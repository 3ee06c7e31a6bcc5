#include "lowerbounds/hardness.hpp"

#include <cmath>

#include "core/classifier.hpp"
#include "support/assert.hpp"

namespace arl::lowerbounds {

namespace {

/// Evaluates one assignment; updates `best` if strictly more iterations.
void consider(const graph::Graph& graph, const std::vector<config::Tag>& tags,
              HardnessResult& best) {
  const auto result = core::Classifier{}.run(config::Configuration(graph, tags));
  ++best.evaluated;
  if (result.iterations > best.iterations) {
    best.iterations = result.iterations;
    best.tags = tags;
    best.feasible = result.feasible();
  }
}

}  // namespace

HardnessResult hardest_tags_exhaustive(const graph::Graph& graph, config::Tag max_tag) {
  const graph::NodeId n = graph.node_count();
  ARL_EXPECTS(n >= 1, "graph must be non-empty");
  const double bits = n * std::log2(static_cast<double>(max_tag) + 1.0);
  ARL_EXPECTS(bits <= 24.0, "exhaustive search space too large; use hardest_tags_search");

  HardnessResult best;
  std::vector<config::Tag> tags(n, 0);
  for (;;) {
    consider(graph, tags, best);
    graph::NodeId position = 0;
    while (position < n && tags[position] == max_tag) {
      tags[position] = 0;
      ++position;
    }
    if (position == n) {
      break;
    }
    ++tags[position];
  }
  return best;
}

HardnessResult hardest_tags_search(const graph::Graph& graph, config::Tag max_tag,
                                   support::Rng& rng, std::uint64_t budget) {
  const graph::NodeId n = graph.node_count();
  ARL_EXPECTS(n >= 1, "graph must be non-empty");
  ARL_EXPECTS(budget >= 1, "need a positive budget");

  HardnessResult best;
  while (best.evaluated < budget) {
    // Restart from a random assignment.
    std::vector<config::Tag> current(n);
    for (auto& tag : current) {
      tag = static_cast<config::Tag>(rng.below(static_cast<std::uint64_t>(max_tag) + 1));
    }
    auto score = [&](const std::vector<config::Tag>& tags) {
      const auto result = core::Classifier{}.run(config::Configuration(graph, tags));
      ++best.evaluated;
      if (result.iterations > best.iterations) {
        best.iterations = result.iterations;
        best.tags = tags;
        best.feasible = result.feasible();
      }
      return result.iterations;
    };
    std::uint32_t current_score = score(current);

    // Steepest-of-random-neighbour hill climb with a small patience.
    std::uint32_t stale = 0;
    while (stale < 4 * n && best.evaluated < budget) {
      const auto node = static_cast<graph::NodeId>(rng.below(n));
      const auto new_tag =
          static_cast<config::Tag>(rng.below(static_cast<std::uint64_t>(max_tag) + 1));
      if (current[node] == new_tag) {
        ++stale;
        continue;
      }
      const config::Tag old_tag = current[node];
      current[node] = new_tag;
      const std::uint32_t candidate_score = score(current);
      if (candidate_score > current_score) {
        current_score = candidate_score;
        stale = 0;
      } else {
        current[node] = old_tag;
        ++stale;
      }
    }
  }
  return best;
}

}  // namespace arl::lowerbounds
