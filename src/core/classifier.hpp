#pragma once

/// \file classifier.hpp
/// The centralized feasibility decision algorithm (paper §3.1, Algorithms
/// 1-4) and its result record.
///
/// `Classifier::run` decides whether a configuration is feasible — whether
/// any deterministic distributed algorithm can elect a leader on it — in
/// O(n³Δ) time (Lemma 3.5, Theorem 3.17).  The run records every iteration's
/// partition, labels and class representatives; those records are exactly
/// the list sequence L_j from which the canonical DRIP (§3.3.1) is compiled,
/// so a "Yes" answer doubles as a constructive leader election algorithm.
///
/// Algorithm 2 (Refine) compares each node with the representative of every
/// open class.  The implementation finds the same match through hashed
/// (old class, label) buckets, O(nΔ) expected per iteration instead of
/// O(n²Δ), and charges the step counter exactly what the comparison scan
/// costs, so every field of the result is the paper's.  The scan itself is
/// kept as the test oracle (tests/classifier_oracle.hpp).

#include <cstdint>
#include <vector>

#include "config/configuration.hpp"
#include "core/label.hpp"
#include "graph/graph.hpp"
#include "radio/message.hpp"

namespace arl::core {

/// Decision outcome.
enum class Verdict : std::uint8_t {
  Feasible,    ///< Classifier output "Yes": leader election is possible
  Infeasible,  ///< Classifier output "No": the partition stabilized without a singleton
};

/// Snapshot of the augmented configuration after one Partitioner iteration.
struct IterationRecord {
  /// Class of each node at the end of this iteration (the paper's
  /// vCLASS,j+1 when this is iteration j).
  std::vector<ClassId> clazz;

  /// Label assigned to each node during this iteration (the paper's vLBL).
  std::vector<Label> labels;

  /// reps[k-1] = representative node of class k at the end of the iteration.
  std::vector<graph::NodeId> reps;

  /// Number of classes at the end of the iteration.
  ClassId num_classes = 0;

  friend bool operator==(const IterationRecord& a, const IterationRecord& b) = default;
};

/// Full result of a Classifier run.
struct ClassifierResult {
  Verdict verdict = Verdict::Infeasible;

  /// Channel model the run assumed (labels depend on it).
  radio::ChannelModel model = radio::ChannelModel::CollisionDetection;

  /// Number of Partitioner iterations executed (the paper's exit iteration;
  /// always in [1, ceil(n/2)] by Lemma 3.4).
  std::uint32_t iterations = 0;

  /// records[j-1] describes the state after iteration j.
  std::vector<IterationRecord> records;

  /// When feasible: the smallest singleton class m̂ at the exit iteration...
  ClassId leader_class = 0;

  /// ...and the unique node in it (the elected leader of the canonical DRIP).
  graph::NodeId leader = 0;

  /// Basic-operation counter (label construction + label comparisons), for
  /// validating the O(n³Δ) bound of Lemma 3.5.  Refine is charged as
  /// Algorithm 2's scan: 1 + min(|L_v|, |L_rep|) per node and open class.
  std::uint64_t steps = 0;

  friend bool operator==(const ClassifierResult& a, const ClassifierResult& b) = default;

  [[nodiscard]] bool feasible() const { return verdict == Verdict::Feasible; }

  /// Classes at the end of iteration j (j >= 1); j = 0 gives the initial
  /// all-ones partition.
  [[nodiscard]] std::vector<ClassId> classes_after(std::uint32_t j) const;

  /// Number of classes at the end of iteration j (j = 0 → 1).
  [[nodiscard]] ClassId num_classes_after(std::uint32_t j) const;
};

/// Algorithms 1-4 with a hashed Refine whose results, the step counter
/// included, equal the paper's rep scan field for field.
class Classifier {
 public:
  /// The paper's model has collision detection; NoCollisionDetection is the
  /// weaker-feedback extension (see ChannelModel) under which collided
  /// slots carry no information.
  explicit Classifier(radio::ChannelModel model = radio::ChannelModel::CollisionDetection)
      : model_(model) {}

  /// Runs Classifier on `configuration` (Algorithm 4).
  [[nodiscard]] ClassifierResult run(const config::Configuration& configuration) const;

  /// The channel model the classification assumes.
  [[nodiscard]] radio::ChannelModel model() const { return model_; }

 private:
  radio::ChannelModel model_;
};

}  // namespace arl::core
