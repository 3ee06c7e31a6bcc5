#include "config/mutations.hpp"

#include "graph/algorithms.hpp"
#include "support/assert.hpp"

namespace arl::config {

Configuration with_tag(const Configuration& configuration, graph::NodeId v, Tag tag) {
  ARL_EXPECTS(v < configuration.size(), "node out of range");
  std::vector<Tag> tags = configuration.tags();
  tags[v] = tag;
  return Configuration(configuration.graph(), std::move(tags));
}

std::optional<Configuration> with_random_extra_edge(const Configuration& configuration,
                                                    support::Rng& rng) {
  const graph::Graph& g = configuration.graph();
  const graph::NodeId n = g.node_count();
  std::vector<graph::Edge> missing;
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      if (!g.has_edge(u, v)) {
        missing.emplace_back(u, v);
      }
    }
  }
  if (missing.empty()) {
    return std::nullopt;
  }
  auto edges = g.edges();
  edges.push_back(rng.pick(missing));
  return Configuration(graph::Graph::from_edges(n, std::move(edges)), configuration.tags());
}

std::optional<Configuration> with_random_edge_removed(const Configuration& configuration,
                                                      support::Rng& rng) {
  const graph::Graph& g = configuration.graph();
  const auto edges = g.edges();
  std::vector<std::size_t> removable;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    std::vector<graph::Edge> remaining;
    remaining.reserve(edges.size() - 1);
    for (std::size_t other = 0; other < edges.size(); ++other) {
      if (other != e) {
        remaining.push_back(edges[other]);
      }
    }
    if (graph::is_connected(graph::Graph::from_edges(g.node_count(), std::move(remaining)))) {
      removable.push_back(e);
    }
  }
  if (removable.empty()) {
    return std::nullopt;
  }
  const std::size_t victim = rng.pick(removable);
  std::vector<graph::Edge> remaining;
  remaining.reserve(edges.size() - 1);
  for (std::size_t other = 0; other < edges.size(); ++other) {
    if (other != victim) {
      remaining.push_back(edges[other]);
    }
  }
  return Configuration(graph::Graph::from_edges(g.node_count(), std::move(remaining)),
                       configuration.tags());
}

std::vector<Configuration> all_tag_mutations(const Configuration& configuration, Tag max_tag) {
  std::vector<Configuration> mutations;
  for (graph::NodeId v = 0; v < configuration.size(); ++v) {
    for (Tag tag = 0; tag <= max_tag; ++tag) {
      if (tag != configuration.tag(v)) {
        mutations.push_back(with_tag(configuration, v, tag));
      }
    }
  }
  return mutations;
}

}  // namespace arl::config
