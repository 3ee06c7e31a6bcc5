#pragma once

/// \file bitset.hpp
/// Word-parallel adjacency and node-set primitives for the simulator's
/// bitset fast path.
///
/// The model makes channel resolution a pure neighbourhood-counting problem:
/// what a listener hears depends only on |N(v) ∩ T| for the round's
/// transmitter set T.  Lifting the CSR adjacency into per-node 64-bit
/// neighbour bitmaps turns that count into AND/popcount over a handful of
/// words, and turns "who heard the transmitters" into an OR of rows — both
/// word-parallel and branch-free.  The rows are rebuilt every run into
/// reused storage: O(n·words + m), no more than the O(m) graph comparison a
/// topology-keyed cache would pay on every run (plus a graph copy per miss).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace arl::radio {

/// Number of 64-bit words covering an n-bit node set.
[[nodiscard]] constexpr std::size_t bitset_words(std::size_t n) { return (n + 63) / 64; }

/// Sets bit `v`.
inline void bitset_set(std::vector<std::uint64_t>& bits, std::size_t v) {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63);
}

/// Clears bit `v`.
inline void bitset_clear(std::vector<std::uint64_t>& bits, std::size_t v) {
  bits[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
}

/// Tests bit `v`.
[[nodiscard]] inline bool bitset_test(const std::vector<std::uint64_t>& bits, std::size_t v) {
  return ((bits[v >> 6] >> (v & 63)) & 1) != 0;
}

/// Per-node neighbour bitmaps: row v holds bit w iff {v, w} is an edge.
class AdjacencyBitmap {
 public:
  AdjacencyBitmap() = default;

  /// Rebuilds the rows for `graph` (O(n·words + m)), reusing the storage.
  void build(const graph::Graph& graph);

  [[nodiscard]] graph::NodeId node_count() const { return node_count_; }
  [[nodiscard]] std::size_t words_per_row() const { return words_; }

  /// Row of node `v`: words_per_row() words.
  [[nodiscard]] const std::uint64_t* row(graph::NodeId v) const {
    return rows_.data() + static_cast<std::size_t>(v) * words_;
  }

 private:
  graph::NodeId node_count_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> rows_;
};

}  // namespace arl::radio
