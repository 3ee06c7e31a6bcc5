#include "core/quotient.hpp"

#include <algorithm>

#include "core/classifier.hpp"
#include "support/assert.hpp"

namespace arl::core {

SymmetryReport analyze_symmetry(const config::Configuration& configuration,
                                const ClassifierResult& classification) {
  ARL_EXPECTS(!classification.records.empty(), "classification must have run");
  const std::vector<ClassId>& clazz = classification.records.back().clazz;
  const ClassId num_classes = classification.records.back().num_classes;
  ARL_EXPECTS(clazz.size() == configuration.size(),
              "classification does not match the configuration");

  SymmetryReport report;
  report.orbits.resize(num_classes);
  for (ClassId k = 1; k <= num_classes; ++k) {
    report.orbits[k - 1].id = k;
  }
  for (graph::NodeId v = 0; v < configuration.size(); ++v) {
    report.orbits[clazz[v] - 1].members.push_back(v);
  }
  for (std::size_t index = 0; index < report.orbits.size(); ++index) {
    Orbit& orbit = report.orbits[index];
    ARL_ASSERT(!orbit.members.empty(), "every class has at least one node");
    if (orbit.members.size() == 1) {
      report.singleton_orbits.push_back(index);
    }
  }

  // Quotient graph over orbits: one edge per pair of adjacent classes.
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 0; v < configuration.size(); ++v) {
    for (const graph::NodeId w : configuration.graph().neighbors(v)) {
      const ClassId a = clazz[v];
      const ClassId b = clazz[w];
      if (a < b) {
        edges.emplace_back(a - 1, b - 1);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  report.quotient = graph::Graph::from_edges(num_classes, std::move(edges));

  ARL_ENSURES(report.feasible() == classification.feasible(),
              "singleton orbits must coincide with the feasibility verdict");
  return report;
}

SymmetryReport analyze_symmetry(const config::Configuration& configuration) {
  return analyze_symmetry(configuration, Classifier{}.run(configuration));
}

}  // namespace arl::core
