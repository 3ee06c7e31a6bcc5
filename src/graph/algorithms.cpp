#include "graph/algorithms.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace arl::graph {

std::vector<NodeId> bfs_distances(const Graph& graph, NodeId source) {
  const NodeId n = graph.node_count();
  ARL_EXPECTS(source < n, "source out of range");
  std::vector<NodeId> distance(n, n);  // n == "unreachable"
  // Each node enters the frontier once, so one vector read through a
  // cursor is the whole FIFO queue.
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  frontier.push_back(source);
  distance[source] = 0;
  for (std::size_t next = 0; next < frontier.size(); ++next) {
    const NodeId v = frontier[next];
    for (const NodeId w : graph.neighbors(v)) {
      if (distance[w] == n) {
        distance[w] = distance[v] + 1;
        frontier.push_back(w);
      }
    }
  }
  return distance;
}

std::vector<NodeId> components(const Graph& graph) {
  const NodeId n = graph.node_count();
  std::vector<NodeId> component(n, n);
  // Every node enters the frontier exactly once across all components, so
  // one buffer read through one cursor serves every search.
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  std::size_t next = 0;
  NodeId label = 0;
  for (NodeId start = 0; start < n; ++start) {
    if (component[start] != n) {
      continue;
    }
    component[start] = label;
    frontier.push_back(start);
    for (; next < frontier.size(); ++next) {
      for (const NodeId w : graph.neighbors(frontier[next])) {
        if (component[w] == n) {
          component[w] = label;
          frontier.push_back(w);
        }
      }
    }
    ++label;
  }
  return component;
}

bool is_connected(const Graph& graph) {
  const NodeId n = graph.node_count();
  if (n == 0) {
    return false;
  }
  const auto distance = bfs_distances(graph, 0);
  return std::all_of(distance.begin(), distance.end(),
                     [n](NodeId d) { return d < n; });
}

NodeId diameter(const Graph& graph) {
  ARL_EXPECTS(is_connected(graph), "diameter of a disconnected graph is undefined");
  NodeId best = 0;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const auto distance = bfs_distances(graph, v);
    best = std::max(best, *std::max_element(distance.begin(), distance.end()));
  }
  return best;
}

}  // namespace arl::graph
