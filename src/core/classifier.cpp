#include "core/classifier.hpp"

#include <algorithm>
#include <bit>

#include "core/partition.hpp"
#include "support/assert.hpp"

namespace arl::core {

std::vector<ClassId> ClassifierResult::classes_after(std::uint32_t j) const {
  if (j == 0) {
    // Init-Aug: every node in class 1.
    const std::size_t n = records.empty() ? 0 : records.front().clazz.size();
    return std::vector<ClassId>(n, 1);
  }
  ARL_EXPECTS(j <= records.size(), "iteration index out of range");
  return records[j - 1].clazz;
}

ClassId ClassifierResult::num_classes_after(std::uint32_t j) const {
  if (j == 0) {
    return 1;
  }
  ARL_EXPECTS(j <= records.size(), "iteration index out of range");
  return records[j - 1].num_classes;
}

namespace {

/// Hash of a refinement key (old class, label).
std::uint64_t key_hash(ClassId old_class, const Label& label) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ old_class;
  for (const LabelTriple& triple : label) {
    const std::uint64_t word = triple.cls | (static_cast<std::uint64_t>(triple.round) << 32) |
                               (static_cast<std::uint64_t>(triple.star) << 63);
    h = std::rotl((h ^ word) * 0xBF58476D1CE4E5B9ULL, 29);
  }
  h ^= h >> 31;
  h *= 0x94D049BB133111EBULL;
  return h ^ (h >> 29);
}

/// Algorithm 2's matching step as an open-addressing table from the key
/// (old class, label) to the class a node with that key joins.  Each class
/// is stored by its representative, whose key is the class's key.
class RefineTable {
 public:
  explicit RefineTable(graph::NodeId n) : slots_(std::bit_ceil(2 * std::size_t{n} + 2)) {}

  void clear() { std::fill(slots_.begin(), slots_.end(), Slot{}); }

  /// The class of `v`'s key, or 0 after inserting it as class `fresh`.
  ClassId find_or_insert(graph::NodeId v, ClassId fresh, const std::vector<ClassId>& old_class,
                         const std::vector<Label>& labels) {
    const std::uint64_t hash = key_hash(old_class[v], labels[v]);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.cls == 0) {
        slot = Slot{hash, fresh, v};
        return 0;
      }
      if (slot.hash == hash && old_class[slot.rep] == old_class[v] &&
          labels[slot.rep] == labels[v]) {
        return slot.cls;
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    ClassId cls = 0;  ///< 0 = empty
    graph::NodeId rep = 0;
  };
  std::vector<Slot> slots_;
};

}  // namespace

ClassifierResult Classifier::run(const config::Configuration& configuration) const {
  const graph::NodeId n = configuration.size();
  ClassifierResult result;
  result.model = model_;

  // Algorithm 1 (Init-Aug): one class, represented by the first node in the
  // fixed vertex order.
  std::vector<ClassId> clazz(n, 1);
  std::vector<ClassId> old_class(n);
  std::vector<graph::NodeId> reps(n + 1, 0);  // 1-based; reps[k] = rep of class k
  ClassId num_classes = 1;
  reps[1] = 0;

  RefineTable table(n);
  // reps_of_size[s] = open classes whose representative's label has s triples.
  std::vector<std::uint64_t> reps_of_size;

  const std::uint32_t max_iterations = (n + 1) / 2;  // ceil(n/2)
  for (std::uint32_t iteration = 1; iteration <= max_iterations; ++iteration) {
    const ClassId old_class_count = num_classes;

    // Algorithm 3 (Partitioner), lines 1-22: label every node.
    std::vector<Label> labels = compute_labels(configuration, clazz, &result.steps, model_);

    // Algorithm 2 (Refine).  Seeding the table with the old representatives
    // keeps surviving class numbers; unmatched nodes open new classes in
    // vertex order, exactly as the rep scan does.
    old_class.swap(clazz);
    table.clear();
    std::size_t max_size = 0;
    for (const Label& label : labels) {
      max_size = std::max(max_size, label.size());
    }
    reps_of_size.assign(max_size + 1, 0);
    for (ClassId k = 1; k <= num_classes; ++k) {
      table.find_or_insert(reps[k], k, old_class, labels);
      ++reps_of_size[labels[reps[k]].size()];
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      // The rep scan compares v with every open class's representative at
      // 1 + min(|L_v|, |L_rep|) steps each; charge exactly that sum.
      const std::size_t size = labels[v].size();
      std::uint64_t shorter = 0;
      std::uint64_t shorter_triples = 0;
      for (std::size_t s = 0; s < size; ++s) {
        shorter += reps_of_size[s];
        shorter_triples += s * reps_of_size[s];
      }
      result.steps += num_classes + shorter_triples + size * (num_classes - shorter);

      if (const ClassId k = table.find_or_insert(v, num_classes + 1, old_class, labels); k != 0) {
        clazz[v] = k;
      } else {
        ++num_classes;
        ARL_ASSERT(num_classes <= n, "cannot have more classes than nodes");
        clazz[v] = num_classes;
        reps[num_classes] = v;
        ++reps_of_size[size];
      }
    }

    // Record the iteration for schedule compilation.
    IterationRecord record;
    record.clazz = clazz;
    record.labels = std::move(labels);
    record.reps.assign(reps.begin() + 1, reps.begin() + 1 + num_classes);
    record.num_classes = num_classes;
    result.records.push_back(std::move(record));
    result.iterations = iteration;

    // Algorithm 4 line 5: a singleton class elects its node.
    if (const auto singleton = find_singleton(clazz, num_classes)) {
      result.verdict = Verdict::Feasible;
      result.leader_class = singleton->first;
      result.leader = singleton->second;
      return result;
    }
    // Algorithm 4 line 8: a stable partition can never change again.
    if (num_classes == old_class_count) {
      result.verdict = Verdict::Infeasible;
      return result;
    }
  }

  // Lemma 3.4: one of the two exits always fires within ceil(n/2) iterations.
  ARL_ASSERT(false, "Classifier failed to terminate within ceil(n/2) iterations");
  return result;
}

}  // namespace arl::core
