#pragma once

/// \file graph.hpp
/// Simple undirected graph with compact adjacency storage.
///
/// Radio networks in the paper are simple undirected connected graphs; this
/// type stores exactly that.  There is one way to build one: `from_edges`,
/// which validates simplicity (no self loops, no parallel edges), sorts the
/// edge list and fills the CSR arrays in one counting pass — no per-node
/// vectors, no per-insertion duplicate scan.  Generators emit an edge list
/// and call it.  Neighbour lists are sorted, enabling O(log Δ) adjacency
/// queries and deterministic iteration order — determinism matters because
/// `Classifier` fixes "an arbitrary ordering of the vertices" and all our
/// algorithms must replay identically.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace arl::graph {

/// Index of a node in a graph; nodes are 0..n-1.
using NodeId = std::uint32_t;

/// An undirected edge as an (unordered) pair of node ids.
using Edge = std::pair<NodeId, NodeId>;

/// Immutable simple undirected graph.
class Graph {
 public:
  /// Empty graph (0 nodes).
  Graph() = default;

  /// Builds the graph over `nodes` vertices with the given edges, in any
  /// order and orientation.  Requires both ends in range, u != v, and no
  /// edge listed twice (in either orientation).
  static Graph from_edges(NodeId nodes, std::vector<Edge> edges);

  /// Number of nodes.
  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const { return neighbors_.size() / 2; }

  /// Sorted neighbours of `v`.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const;

  /// Degree of `v`.
  [[nodiscard]] NodeId degree(NodeId v) const;

  /// Maximum degree Δ (0 for the empty graph).
  [[nodiscard]] NodeId max_degree() const;

  /// True if {u, v} is an edge (O(log Δ)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// All edges with u < v, lexicographically sorted.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Structural equality (same node count and edge set).
  friend bool operator==(const Graph& a, const Graph& b) = default;

 private:
  // CSR storage: neighbours of v are neighbors_[offsets_[v] .. offsets_[v+1]).
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> neighbors_;
};

}  // namespace arl::graph
