#pragma once

/// \file classifier_oracle.hpp
/// The paper's Classifier (§3.1, Algorithms 1-4) as written: Refine compares
/// each node with the representative of every open class.  It is the test
/// oracle for core::Classifier, whose hashed Refine must return an equal
/// ClassifierResult, the step counter included.  Header-only because every
/// test is its own executable.

#include <algorithm>
#include <utility>
#include <vector>

#include "config/configuration.hpp"
#include "core/classifier.hpp"
#include "core/partition.hpp"

namespace arl::testkit {

/// Algorithms 1-4 with the rep-scan Refine.
inline core::ClassifierResult classify_by_rep_scan(
    const config::Configuration& configuration,
    radio::ChannelModel model = radio::ChannelModel::CollisionDetection) {
  using core::ClassId;
  const graph::NodeId n = configuration.size();
  core::ClassifierResult result;
  result.model = model;

  // Algorithm 1 (Init-Aug): one class, represented by the first node.
  std::vector<ClassId> clazz(n, 1);
  std::vector<graph::NodeId> reps(n + 1, 0);  // 1-based; reps[k] = rep of class k
  ClassId num_classes = 1;

  for (std::uint32_t iteration = 1; iteration <= (n + 1) / 2; ++iteration) {
    const ClassId old_class_count = num_classes;
    std::vector<core::Label> labels =
        core::compute_labels(configuration, clazz, &result.steps, model);

    // Algorithm 2 (Refine): compare each node against every class
    // representative; unmatched nodes open new classes in vertex order.  The
    // paper's loop keeps scanning after a match (which is unique), so every
    // open class is charged.
    const std::vector<ClassId> old_class = clazz;
    for (graph::NodeId v = 0; v < n; ++v) {
      bool assigned = false;
      for (ClassId k = 1; k <= num_classes; ++k) {
        const graph::NodeId rep = reps[k];
        result.steps += 1 + std::min(labels[v].size(), labels[rep].size());
        if (old_class[v] == old_class[rep] && labels[v] == labels[rep]) {
          clazz[v] = k;
          assigned = true;
        }
      }
      if (!assigned) {
        ++num_classes;
        clazz[v] = num_classes;
        reps[num_classes] = v;
      }
    }

    core::IterationRecord record;
    record.clazz = clazz;
    record.labels = std::move(labels);
    record.reps.assign(reps.begin() + 1, reps.begin() + 1 + num_classes);
    record.num_classes = num_classes;
    result.records.push_back(std::move(record));
    result.iterations = iteration;

    // Algorithm 4: a singleton class elects its node; a stable partition
    // never changes again.
    if (const auto singleton = core::find_singleton(clazz, num_classes)) {
      result.verdict = core::Verdict::Feasible;
      result.leader_class = singleton->first;
      result.leader = singleton->second;
      return result;
    }
    if (num_classes == old_class_count) {
      result.verdict = core::Verdict::Infeasible;
      return result;
    }
  }
  return result;  // unreachable by Lemma 3.4; the caller's comparison fails
}

}  // namespace arl::testkit
