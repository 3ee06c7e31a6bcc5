/// \file test_classifier.cpp
/// Tests for the Classifier (Algorithms 1-4): hand-computed partitions and
/// labels on the paper's families, structural properties (Observation 3.2,
/// Corollary 3.3, Lemma 3.4), the Lemma 3.5 step envelope, and equality with
/// the paper's rep-scan Refine (tests/classifier_oracle.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "classifier_oracle.hpp"
#include "config/families.hpp"
#include "core/classifier.hpp"
#include "core/partition.hpp"
#include "engine/workload.hpp"
#include "graph/enumeration.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;
using core::ClassId;
using core::Label;
using core::LabelTriple;

// ----------------------------------------------------- hand-computed families

TEST(Classifier, FamilyHSplitsCompletelyInOneIteration) {
  // H_m: path a-b-c-d, tags m,0,0,m+1, σ = m+1.  First-iteration labels:
  //   a: {(1, 2, 1)}       (hears b at block round σ+1+0-m = 2)
  //   b: {(1, 2m+2, 1)}    (hears a at σ+1+m; c is same-class same-tag)
  //   c: {(1, 2m+3, 1)}    (hears d at σ+1+(m+1))
  //   d: {(1, 1, 1)}       (hears c at σ+1-(m+1) = 1)
  for (const config::Tag m : {1u, 2u, 5u, 9u}) {
    const core::ClassifierResult result = core::Classifier{}.run(config::family_h(m));
    ASSERT_EQ(result.iterations, 1u) << "m=" << m;
    EXPECT_TRUE(result.feasible());
    const auto& record = result.records[0];
    EXPECT_EQ(record.num_classes, 4u);
    EXPECT_EQ(record.labels[0], (Label{{1, 2, false}}));
    EXPECT_EQ(record.labels[1], (Label{{1, 2 * m + 2, false}}));
    EXPECT_EQ(record.labels[2], (Label{{1, 2 * m + 3, false}}));
    EXPECT_EQ(record.labels[3], (Label{{1, 1, false}}));
    // Smallest singleton class is a's (vertex order makes node 0 class 1).
    EXPECT_EQ(result.leader_class, 1u);
    EXPECT_EQ(result.leader, 0u);
  }
}

TEST(Classifier, FamilySStabilizesAtTwoPairs) {
  // S_m: tags m,0,0,m — Proposition 4.5's infeasible family.  Iteration 1
  // splits into {a,d} and {b,c}; iteration 2 changes nothing.
  for (const config::Tag m : {1u, 3u, 7u}) {
    const core::ClassifierResult result = core::Classifier{}.run(config::family_s(m));
    EXPECT_FALSE(result.feasible());
    ASSERT_EQ(result.iterations, 2u) << "m=" << m;
    EXPECT_EQ(result.records[0].clazz, (std::vector<ClassId>{1, 2, 2, 1}));
    EXPECT_EQ(result.records[0].num_classes, 2u);
    EXPECT_EQ(result.records[1].clazz, (std::vector<ClassId>{1, 2, 2, 1}));
    EXPECT_EQ(result.records[1].num_classes, 2u);
  }
}

TEST(Classifier, FamilyGElectsTheCenterAfterMIterations) {
  // Proposition 4.1: "the central node b_{m+1} will be in a one-element
  // equivalence class after m iterations".
  for (const config::Tag m : {2u, 3u, 4u, 6u}) {
    const core::ClassifierResult result = core::Classifier{}.run(config::family_g(m));
    EXPECT_TRUE(result.feasible()) << "m=" << m;
    EXPECT_EQ(result.iterations, m) << "m=" << m;
    EXPECT_EQ(result.leader, config::family_g_center(m)) << "m=" << m;
  }
}

TEST(Classifier, ZeroSpanIsAlwaysInfeasibleForTwoPlusNodes) {
  // With equal tags every label is empty (same class, same tag ⇒ excluded),
  // so the partition never leaves {all}: one iteration, verdict "No".
  // This holds for ANY topology — even asymmetric ones like stars or paths,
  // because radio nodes in lockstep can never hear each other.
  const std::vector<graph::Graph> graphs = {
      graph::path(2),  graph::path(5),     graph::cycle(6),      graph::complete(4),
      graph::star(7),  graph::grid(3, 3),  graph::binary_tree(7)};
  for (const auto& g : graphs) {
    const config::Configuration c(g, std::vector<config::Tag>(g.node_count(), 0));
    const core::ClassifierResult result = core::Classifier{}.run(c);
    EXPECT_FALSE(result.feasible()) << "n=" << g.node_count();
    EXPECT_EQ(result.iterations, 1u);
    EXPECT_EQ(result.records[0].num_classes, 1u);
  }
}

TEST(Classifier, SingleNodeIsFeasible) {
  const config::Configuration c(graph::path(1), {0});
  const core::ClassifierResult result = core::Classifier{}.run(c);
  EXPECT_TRUE(result.feasible());
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(result.leader, 0u);
}

TEST(Classifier, StaggeredPathElectsFirstNode) {
  for (const graph::NodeId n : {2u, 3u, 8u, 15u}) {
    const core::ClassifierResult result =
        core::Classifier{}.run(config::staggered_path(n));
    EXPECT_TRUE(result.feasible()) << "n=" << n;
    EXPECT_EQ(result.iterations, 1u);
    EXPECT_EQ(result.leader, 0u);
  }
}

TEST(Classifier, ClassesAfterZeroIsAllOnes) {
  const core::ClassifierResult result = core::Classifier{}.run(config::family_h(2));
  EXPECT_EQ(result.classes_after(0), (std::vector<ClassId>{1, 1, 1, 1}));
  EXPECT_EQ(result.num_classes_after(0), 1u);
}

// ----------------------------------------------------------- label mechanics

TEST(Partitioner, CollisionSlotsBecomeStars) {
  // Star hub with two leaves of equal tag (≠ hub's): both leaves land on the
  // same (class, round) slot at the hub, so the hub's label holds one (∗)
  // triple.
  const config::Configuration c(graph::star(3), {0, 1, 1});
  const auto labels = core::compute_labels(c, {1, 1, 1});
  // σ = 1: leaves (tag 1) seen from the hub (tag 0) at round σ+1+1 = 3.
  EXPECT_EQ(labels[0], (Label{{1, 3, true}}));
  // Each leaf sees only the hub at round σ+1-1 = 1.
  EXPECT_EQ(labels[1], (Label{{1, 1, false}}));
  EXPECT_EQ(labels[2], (Label{{1, 1, false}}));
}

TEST(Partitioner, SameClassSameTagNeighboursAreExcluded) {
  const config::Configuration c(graph::complete(3), {0, 0, 0});
  const auto labels = core::compute_labels(c, {1, 1, 1});
  for (const auto& label : labels) {
    EXPECT_TRUE(label.empty());
  }
}

TEST(Partitioner, SameClassDifferentTagNeighboursAreIncluded) {
  const config::Configuration c(graph::path(2), {0, 2});
  const auto labels = core::compute_labels(c, {1, 1});
  EXPECT_EQ(labels[0], (Label{{1, 5, false}}));  // σ=2: 2+1+2
  EXPECT_EQ(labels[1], (Label{{1, 1, false}}));  // 2+1-2
}

TEST(Partitioner, LabelsAreSortedByPrecHist) {
  // A centre with neighbours in different classes and at different offsets;
  // the label must come out (class, round, star)-lexicographic.
  const config::Configuration c(graph::star(4), {1, 0, 2, 2});
  const auto labels = core::compute_labels(c, {1, 2, 2, 3});
  const Label& hub = labels[0];
  ASSERT_GE(hub.size(), 2u);
  for (std::size_t i = 0; i + 1 < hub.size(); ++i) {
    EXPECT_LT(hub[i], hub[i + 1]);
  }
}

TEST(LabelOrdering, PrecHistMatchesDefinition31) {
  // (a,b,c) ≺ (a',b',c') iff a<a', or a=a' ∧ b<b', or a=a' ∧ b=b' ∧ c=1.
  EXPECT_LT((LabelTriple{1, 9, true}), (LabelTriple{2, 1, false}));
  EXPECT_LT((LabelTriple{1, 2, true}), (LabelTriple{1, 3, false}));
  EXPECT_LT((LabelTriple{1, 2, false}), (LabelTriple{1, 2, true}));
  EXPECT_EQ(core::format_label({}), "null");
  EXPECT_EQ(core::format_label({{1, 2, false}, {1, 2, true}}), "(1,2,1)(1,2,*)");
}

// ------------------------------------------------------- structural properties

void expect_structural_invariants(const core::ClassifierResult& result, graph::NodeId n) {
  // Lemma 3.4: exit within ceil(n/2) iterations.
  EXPECT_GE(result.iterations, 1u);
  EXPECT_LE(result.iterations, (n + 1u) / 2u);
  // Corollary 3.3: class counts never decrease.
  ClassId previous = 1;
  for (const auto& record : result.records) {
    EXPECT_GE(record.num_classes, previous);
    previous = record.num_classes;
    EXPECT_LE(record.num_classes, n);
  }
  // Observation 3.2: partitions refine (same class later ⇒ same class earlier).
  for (std::size_t j = 1; j < result.records.size(); ++j) {
    const auto& earlier = result.records[j - 1].clazz;
    const auto& later = result.records[j].clazz;
    for (graph::NodeId u = 0; u < n; ++u) {
      for (graph::NodeId v = u + 1; v < n; ++v) {
        if (later[u] == later[v]) {
          EXPECT_EQ(earlier[u], earlier[v]);
        }
      }
    }
  }
  // Representatives live in their class.
  for (const auto& record : result.records) {
    for (ClassId k = 1; k <= record.num_classes; ++k) {
      EXPECT_EQ(record.clazz[record.reps[k - 1]], k);
    }
  }
  // Feasible ⇔ singleton in the final partition.
  const auto& final_record = result.records.back();
  const auto singleton = core::find_singleton(final_record.clazz, final_record.num_classes);
  EXPECT_EQ(result.feasible(), singleton.has_value());
  if (result.feasible()) {
    EXPECT_EQ(result.leader_class, singleton->first);
    EXPECT_EQ(result.leader, singleton->second);
  }
  EXPECT_GT(result.steps, 0u);
}

TEST(Classifier, StructuralInvariantsOnFamilies) {
  expect_structural_invariants(core::Classifier{}.run(config::family_g(4)), 17);
  expect_structural_invariants(core::Classifier{}.run(config::family_h(3)), 4);
  expect_structural_invariants(core::Classifier{}.run(config::family_s(3)), 4);
  expect_structural_invariants(core::Classifier{}.run(config::staggered_path(9)), 9);
}

// ----------------------------------------------------- Lemma 3.5 envelope

/// steps ≤ n³·max(Δ, 1): Lemma 3.5's O(n³Δ) with constant 1.
void expect_within_lemma35(const config::Configuration& c, radio::ChannelModel model) {
  const core::ClassifierResult result = core::Classifier(model).run(c);
  const std::uint64_t n = c.size();
  const std::uint64_t degree = std::max<std::uint64_t>(c.graph().max_degree(), 1);
  EXPECT_LE(result.steps, n * n * n * degree) << "n=" << n << " degree=" << degree;
}

TEST(Classifier, StepsStayWithinTheLemma35Envelope) {
  for (const auto model :
       {radio::ChannelModel::CollisionDetection, radio::ChannelModel::NoCollisionDetection}) {
    for (config::Tag m = 2; m <= 32; ++m) {
      expect_within_lemma35(config::family_g(m), model);
    }
    support::Rng rng(35);
    for (const graph::NodeId n : {2u, 3u, 8u, 16u, 32u, 64u}) {
      expect_within_lemma35(config::random_tags(graph::complete(n), 3, rng), model);
      expect_within_lemma35(
          config::random_tags(graph::complete(n), static_cast<config::Tag>(n), rng), model);
    }
    for (const graph::NodeId n : {4u, 12u, 32u, 64u}) {
      for (const double p : {0.1, 0.3, 0.7}) {
        expect_within_lemma35(config::random_tags(graph::gnp_connected(n, p, rng), 4, rng), model);
      }
    }
    for (graph::NodeId n = 1; n <= 4; ++n) {
      graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
        std::vector<config::Tag> tags(n, 0);
        for (;;) {
          expect_within_lemma35(config::Configuration(g, tags), model);
          graph::NodeId position = 0;  // odometer over {0, 1, 2}^n
          while (position < n && tags[position] == 2) {
            tags[position++] = 0;
          }
          if (position == n) {
            break;
          }
          ++tags[position];
        }
      });
    }
  }
}

// -------------------------------------------- differential: rep-scan oracle

/// The production Classifier equals the paper's rep scan on every field,
/// the step counter included, under both channel models.
void expect_oracle_equal(const config::Configuration& c) {
  for (const auto model :
       {radio::ChannelModel::CollisionDetection, radio::ChannelModel::NoCollisionDetection}) {
    const core::ClassifierResult result = core::Classifier(model).run(c);
    ASSERT_EQ(result, testkit::classify_by_rep_scan(c, model))
        << "model " << static_cast<int>(model) << ", steps " << result.steps;
    expect_structural_invariants(result, c.size());
  }
}

/// Parameterized over RNG seeds: random topology + tags.
class ClassifierEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifierEquivalence, HashedRefineMatchesRepScanOnRandomConfigurations) {
  support::Rng rng(GetParam());
  for (int repeat = 0; repeat < 8; ++repeat) {
    const auto n = static_cast<graph::NodeId>(2 + rng.below(18));
    const auto sigma = static_cast<config::Tag>(rng.below(4));
    graph::Graph g;
    switch (rng.below(4)) {
      case 0:
        g = graph::path(n);
        break;
      case 1:
        g = n >= 3 ? graph::cycle(n) : graph::path(n);
        break;
      case 2:
        g = graph::random_tree(n, rng);
        break;
      default:
        g = graph::gnp_connected(n, 0.3, rng);
        break;
    }
    expect_oracle_equal(config::random_tags(std::move(g), sigma, rng));
  }
}

TEST(ClassifierEquivalenceOnWorkloads, HashedRefineMatchesRepScan) {
  for (const char* spec : {"random:n=64,p=0.1,sigma=64", "torus:rows=8,cols=8,sigma=3"}) {
    const engine::CountedSweep sweep = engine::parse_workload(spec).instantiate(
        3, {core::ProtocolSpec::classify_only()}, {.count = 20});
    ASSERT_EQ(sweep.count, 20u);
    for (engine::JobId id = 0; id < sweep.count; ++id) {
      SCOPED_TRACE(std::string(spec) + " #" + std::to_string(id));
      expect_oracle_equal(sweep.source(id).configuration);
    }
  }
  for (config::Tag m = 2; m <= 16; ++m) {
    expect_oracle_equal(config::family_g(m));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
