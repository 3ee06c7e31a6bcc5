#include "radio/bitset.hpp"

namespace arl::radio {

void AdjacencyBitmap::build(const graph::Graph& graph) {
  node_count_ = graph.node_count();
  words_ = bitset_words(node_count_);
  rows_.assign(static_cast<std::size_t>(node_count_) * words_, 0);
  for (graph::NodeId v = 0; v < node_count_; ++v) {
    std::uint64_t* row = rows_.data() + static_cast<std::size_t>(v) * words_;
    for (const graph::NodeId w : graph.neighbors(v)) {
      row[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
  }
}

}  // namespace arl::radio
