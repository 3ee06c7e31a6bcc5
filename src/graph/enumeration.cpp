#include "graph/enumeration.hpp"

#include <vector>

#include "graph/algorithms.hpp"
#include "support/assert.hpp"

namespace arl::graph {

std::uint64_t for_each_connected_graph(NodeId n, const std::function<void(const Graph&)>& visit) {
  ARL_EXPECTS(n >= 1 && n <= 7, "enumeration is exponential; n must be in [1, 7]");
  // Enumerate all subsets of the n(n-1)/2 potential edges.
  std::vector<Edge> slots;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      slots.emplace_back(u, v);
    }
  }
  const std::uint32_t bits = static_cast<std::uint32_t>(slots.size());
  std::uint64_t visited = 0;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << bits); ++mask) {
    std::vector<Edge> edges;
    for (std::uint32_t b = 0; b < bits; ++b) {
      if ((mask >> b) & 1U) {
        edges.push_back(slots[b]);
      }
    }
    Graph graph = Graph::from_edges(n, std::move(edges));
    if (is_connected(graph)) {
      ++visited;
      visit(graph);
    }
  }
  return visited;
}

std::uint64_t connected_graph_count(NodeId n) {
  ARL_EXPECTS(n >= 1 && n <= 6, "table covers n in [1, 6]");
  constexpr std::uint64_t table[] = {1, 1, 4, 38, 728, 26704};
  return table[n - 1];
}

}  // namespace arl::graph
