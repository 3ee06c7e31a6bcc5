#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>

#include "support/assert.hpp"

namespace arl::graph {

Graph Graph::from_edges(NodeId nodes, std::vector<Edge> edges) {
  for (auto& [u, v] : edges) {
    ARL_EXPECTS(u < nodes && v < nodes, "edge endpoint out of range");
    ARL_EXPECTS(u != v, "self loops are not allowed in a simple graph");
    if (v < u) {
      std::swap(u, v);
    }
  }
  if (!std::is_sorted(edges.begin(), edges.end())) {
    std::sort(edges.begin(), edges.end());
  }
  ARL_EXPECTS(std::adjacent_find(edges.begin(), edges.end()) == edges.end(),
              "parallel edges are not allowed in a simple graph");

  // Counting pass: the degree of v lands in offsets_[v + 2], so after the
  // prefix sum offsets_[v + 1] is v's first slot and serves as its fill
  // cursor, ending as v's end (= the start of v + 1); the spare last entry
  // goes.  With the edges sorted, each list fills in increasing order: v's
  // smaller neighbours arrive (as first ends) before its larger ones.
  Graph graph;
  graph.offsets_.assign(std::size_t{nodes} + 2, 0);
  for (const auto& [u, v] : edges) {
    ++graph.offsets_[u + 2];
    ++graph.offsets_[v + 2];
  }
  std::partial_sum(graph.offsets_.begin(), graph.offsets_.end(), graph.offsets_.begin());
  graph.neighbors_.resize(2 * edges.size());
  for (const auto& [u, v] : edges) {
    graph.neighbors_[graph.offsets_[u + 1]++] = v;
    graph.neighbors_[graph.offsets_[v + 1]++] = u;
  }
  graph.offsets_.pop_back();
  return graph;
}

std::span<const NodeId> Graph::neighbors(NodeId v) const {
  ARL_EXPECTS(v < node_count(), "node out of range");
  return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

NodeId Graph::degree(NodeId v) const {
  ARL_EXPECTS(v < node_count(), "node out of range");
  return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
}

NodeId Graph::max_degree() const {
  NodeId best = 0;
  for (NodeId v = 0; v < node_count(); ++v) {
    best = std::max(best, degree(v));
  }
  return best;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto span = neighbors(u);
  ARL_EXPECTS(v < node_count(), "node out of range");
  return std::binary_search(span.begin(), span.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (const NodeId v : neighbors(u)) {
      if (u < v) {
        result.emplace_back(u, v);
      }
    }
  }
  return result;
}

}  // namespace arl::graph
