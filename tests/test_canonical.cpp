/// \file test_canonical.cpp
/// The canonical DRIP (§3.3.1) in execution: schedule structure, patience
/// (Lemma 3.6), block/offset structure (Lemma 3.7), partition ⇔ history
/// equivalence (Lemma 3.9), termination discipline, and the strict/robust
/// mismatch policies.

#include <gtest/gtest.h>

#include <map>

#include "config/families.hpp"
#include "core/canonical_drip.hpp"
#include "core/classifier.hpp"
#include "core/election.hpp"
#include "core/schedule.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;
using arl::support::ContractViolation;
using arl::testkit::TransmissionLog;

radio::RunResult run_canonical(const config::Configuration& c,
                               radio::SimulatorOptions options = {},
                               core::MismatchPolicy policy = core::MismatchPolicy::Strict) {
  const auto schedule = core::make_schedule(c);
  const core::CanonicalDrip drip(schedule, policy);
  return radio::simulate(c, drip, options);
}

// ---------------------------------------------------------------- schedule

TEST(Schedule, FamilyHStructure) {
  // H_m classifies in one iteration: one phase of 1 block, total 3σ+2 local
  // rounds with σ = m+1.
  const config::Configuration h3 = config::family_h(3);
  const auto schedule = core::make_schedule(h3);
  EXPECT_TRUE(schedule->feasible);
  EXPECT_EQ(schedule->sigma, 4u);
  ASSERT_EQ(schedule->phases.size(), 1u);
  EXPECT_EQ(schedule->phases[0].num_classes, 1u);
  ASSERT_EQ(schedule->phases[0].entries.size(), 1u);
  EXPECT_EQ(schedule->phases[0].entries[0].old_class, 1u);
  EXPECT_TRUE(schedule->phases[0].entries[0].label.empty());  // L_1 = [(1, null)]
  EXPECT_EQ(schedule->block_length(), 9u);
  EXPECT_EQ(schedule->phase_length(0), 13u);  // 1 block + σ trailing
  EXPECT_EQ(schedule->total_rounds(), 14u);
  // Leader signature: node a sits in class 1 with label (1,2,1).
  EXPECT_EQ(schedule->leader_old_class, 1u);
  EXPECT_EQ(schedule->leader_label, (core::Label{{1, 2, false}}));
}

TEST(Schedule, FamilySStructure) {
  // S_m runs two iterations: phase P_1 (1 block) and phase P_2 (2 blocks)
  // with L_2 = [(1, label_a), (1, label_b)], then terminates without leader.
  const config::Tag m = 2;
  const config::Configuration s = config::family_s(m);
  const auto schedule = core::make_schedule(s);
  EXPECT_FALSE(schedule->feasible);
  ASSERT_EQ(schedule->phases.size(), 2u);
  EXPECT_EQ(schedule->phases[1].num_classes, 2u);
  ASSERT_EQ(schedule->phases[1].entries.size(), 2u);
  EXPECT_EQ(schedule->phases[1].entries[0].old_class, 1u);
  EXPECT_EQ(schedule->phases[1].entries[0].label, (core::Label{{1, 1, false}}));
  EXPECT_EQ(schedule->phases[1].entries[1].old_class, 1u);
  EXPECT_EQ(schedule->phases[1].entries[1].label, (core::Label{{1, 2 * m + 1, false}}));
  // σ = 2: total = (1*5+2) + (2*5+2) + 1 = 20.
  EXPECT_EQ(schedule->total_rounds(), 20u);
}

TEST(Schedule, SuggestedWindowCoversLongestPhase) {
  const auto schedule = core::make_schedule(config::family_g(3));
  std::uint64_t longest = 0;
  for (std::size_t j = 0; j < schedule->phases.size(); ++j) {
    longest = std::max(longest, schedule->phase_length(j));
  }
  EXPECT_EQ(schedule->suggested_window(), longest + 2);
}

// ------------------------------------------------------------- Lemma 3.6

TEST(CanonicalDrip, PatienceNoTransmissionInFirstSigmaRounds) {
  for (const auto& c : {config::family_h(4), config::family_s(3), config::family_g(2),
                        config::staggered_path(6)}) {
    TransmissionLog log;
    radio::SimulatorOptions options;
    options.trace = &log;
    const radio::RunResult run = run_canonical(c, options);
    EXPECT_TRUE(run.all_terminated);
    ASSERT_TRUE(log.first_round().has_value());
    EXPECT_GT(*log.first_round(), c.span());  // silent through global rounds 0..σ
    // Lemma 3.6's consequence: every wakeup is spontaneous, at the tag.
    for (graph::NodeId v = 0; v < c.size(); ++v) {
      EXPECT_FALSE(run.nodes[v].forced_wake);
      EXPECT_EQ(run.nodes[v].wake_round, c.tag(v));
    }
  }
}

// ------------------------------------------------------------- Lemma 3.7

TEST(CanonicalDrip, EveryNodeTransmitsExactlyOncePerPhase) {
  for (const auto& c :
       {config::family_h(2), config::family_s(2), config::family_g(3), config::staggered_path(5)}) {
    const auto schedule = core::make_schedule(c);
    const radio::RunResult run = radio::simulate(c, core::CanonicalDrip(schedule));
    EXPECT_EQ(run.stats.transmissions,
              static_cast<std::uint64_t>(c.size()) * schedule->phases.size());
  }
}

TEST(CanonicalDrip, Lemma37OffsetLaw) {
  // Whenever a listening node v hears a clean message in the h'th round of a
  // block, the transmitter w satisfies h = σ+1+t_w-t_v.
  for (const auto& c : {config::family_h(3), config::family_g(2), config::staggered_path(6)}) {
    const auto schedule = core::make_schedule(c);
    TransmissionLog log;
    radio::SimulatorOptions options;
    options.trace = &log;
    options.history_window = 0;  // full histories
    const radio::RunResult run = radio::simulate(c, core::CanonicalDrip(schedule), options);
    ASSERT_TRUE(run.all_terminated);

    // Per-global-round transmitter sets.
    std::map<config::Round, std::vector<graph::NodeId>> transmitters;
    for (const auto& [round, node] : log.entries()) {
      transmitters[round].push_back(node);
    }

    const std::uint64_t block_len = schedule->block_length();
    for (graph::NodeId v = 0; v < c.size(); ++v) {
      const auto& history = run.nodes[v].history;
      for (std::size_t i = 1; i < history.size(); ++i) {
        if (!history[i].is_message()) {
          continue;
        }
        const auto global = static_cast<config::Round>(c.tag(v) + i);
        // Exactly one transmitting neighbour w.
        graph::NodeId transmitter = c.size();
        for (const graph::NodeId w : transmitters[global]) {
          if (c.graph().has_edge(v, w)) {
            EXPECT_EQ(transmitter, c.size()) << "second transmitting neighbour";
            transmitter = w;
          }
        }
        ASSERT_LT(transmitter, c.size());
        // Locate i inside its phase and block.
        std::uint64_t base = 0;
        std::size_t phase = 0;
        while (i > base + schedule->phase_length(phase)) {
          base += schedule->phase_length(phase);
          ++phase;
        }
        const std::uint64_t offset = i - base;  // 1-based within the phase
        ASSERT_LE(offset, schedule->phases[phase].num_classes * block_len)
            << "message in the trailing σ rounds";
        const std::uint64_t h = (offset - 1) % block_len + 1;
        EXPECT_EQ(h, schedule->sigma + 1 + c.tag(transmitter) - c.tag(v));
      }
    }
  }
}

// ------------------------------------------------------------- Lemma 3.9

TEST(CanonicalDrip, Lemma39PartitionEqualsHistoryPartition) {
  // After each phase P_j, grouping nodes by local history prefix H[0..r_j]
  // must reproduce Classifier's equivalence classes after iteration j.
  for (const auto& c : {config::family_h(2), config::family_s(3), config::family_g(3),
                        config::staggered_path(7)}) {
    const core::ClassifierResult classification = core::Classifier{}.run(c);
    const auto schedule = std::make_shared<const core::CanonicalSchedule>(
        core::build_schedule(c, classification));
    radio::SimulatorOptions options;
    options.history_window = 0;
    const radio::RunResult run = radio::simulate(c, core::CanonicalDrip(schedule), options);
    ASSERT_TRUE(run.all_terminated);

    std::uint64_t r_j = 0;
    for (std::uint32_t j = 1; j <= classification.iterations; ++j) {
      r_j += schedule->phase_length(j - 1);
      const auto by_history = testkit::history_partition(run, static_cast<std::size_t>(r_j));
      EXPECT_TRUE(testkit::same_partition(by_history, classification.classes_after(j)))
          << "phase " << j;
    }
  }
}

// ----------------------------------------------------- termination discipline

TEST(CanonicalDrip, AllNodesTerminateInTheSameLocalRound) {
  const config::Configuration c = config::family_g(3);
  const auto schedule = core::make_schedule(c);
  const radio::RunResult run = radio::simulate(c, core::CanonicalDrip(schedule));
  ASSERT_TRUE(run.all_terminated);
  for (const auto& node : run.nodes) {
    EXPECT_EQ(node.done_round, schedule->total_rounds());
  }
}

TEST(CanonicalDrip, InfeasibleScheduleElectsNobody) {
  const config::Configuration c = config::family_s(4);
  const radio::RunResult run = run_canonical(c);
  ASSERT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.leaders().empty());
}

TEST(CanonicalDrip, WindowedAndFullRunsElectTheSameLeader) {
  const config::Configuration c = config::family_g(4);
  const auto schedule = core::make_schedule(c);
  radio::SimulatorOptions full;
  full.history_window = 0;
  const radio::RunResult full_run = radio::simulate(c, core::CanonicalDrip(schedule), full);
  const radio::RunResult windowed_run = radio::simulate(c, core::CanonicalDrip(schedule));
  EXPECT_EQ(full_run.leaders(), windowed_run.leaders());
  EXPECT_EQ(full_run.rounds_executed, windowed_run.rounds_executed);
}

// --------------------------------------------------- mismatch (strict/robust)

TEST(CanonicalDrip, StrictModeRejectsForeignConfigurations) {
  // The S_3 schedule (σ=3, two phases) executed on H_3 (σ=4): offsets no
  // longer fit the schedule and strict mode must flag the violation.
  const auto schedule = core::make_schedule(config::family_s(3));
  const core::CanonicalDrip drip(schedule, core::MismatchPolicy::Strict);
  const config::Configuration h3 = config::family_h(3);
  EXPECT_THROW((void)radio::simulate(h3, drip), ContractViolation);
}

TEST(CanonicalDrip, RobustModeFailsGracefullyOnForeignConfigurations) {
  const auto schedule = core::make_schedule(config::family_s(3));
  const core::CanonicalDrip drip(schedule, core::MismatchPolicy::Robust);
  const radio::RunResult run = radio::simulate(config::family_h(3), drip);
  EXPECT_TRUE(run.all_terminated);          // robust failures terminate
  EXPECT_NE(run.leaders().size(), 1u);      // and never fake an election
}

// The phase-boundary checks, driven directly on one program: a 2-node path
// with tags {0, 1} compiles to one phase of one block (2σ+1 = 3 rounds) plus
// σ = 1 trailing round, so decide(5) reads H[1..4] at the boundary.
TEST(CanonicalDrip, PhaseBoundaryRejectsForeignPayloadsAndTrailingNoise) {
  const auto schedule = core::make_schedule(config::Configuration(graph::path(2), {0, 1}));
  ASSERT_EQ(schedule->phases.size(), 1u);
  ASSERT_EQ(schedule->phase_length(0), 4u);
  const auto silent = radio::HistoryEntry::silence();
  const radio::History foreign_payload = {silent, silent, radio::HistoryEntry::message(7),
                                          silent, silent};
  const radio::History trailing_noise = {silent, silent, silent, silent,
                                         radio::HistoryEntry::collision()};
  for (const radio::History* history : {&foreign_payload, &trailing_noise}) {
    core::CanonicalProgram strict(schedule, core::MismatchPolicy::Strict);
    EXPECT_THROW((void)strict.decide(5, radio::HistoryView(*history, 0)), ContractViolation);

    core::CanonicalProgram robust(schedule, core::MismatchPolicy::Robust);
    EXPECT_TRUE(robust.decide(5, radio::HistoryView(*history, 0)).is_terminate());
    EXPECT_TRUE(robust.failed());
    EXPECT_FALSE(robust.elected());
  }
  // A canonical message inside the block and a silent trailing round pass
  // both checks.
  const radio::History clean = {silent, silent, radio::HistoryEntry::message(1), silent, silent};
  core::CanonicalProgram strict(schedule, core::MismatchPolicy::Strict);
  EXPECT_TRUE(strict.decide(5, radio::HistoryView(clean, 0)).is_terminate());
  EXPECT_FALSE(strict.failed());
}

// -------------------------------------------------------------- elect() API

TEST(Elect, ReportsAreConsistentAcrossFamilies) {
  for (const config::Tag m : {1u, 2u, 5u}) {
    const core::ElectionReport h = core::elect(config::family_h(m));
    EXPECT_TRUE(h.feasible);
    EXPECT_TRUE(h.valid);
    EXPECT_EQ(h.local_rounds, 3u * (m + 1) + 2);

    const core::ElectionReport s = core::elect(config::family_s(m));
    EXPECT_FALSE(s.feasible);
    EXPECT_TRUE(s.valid);
  }
}

TEST(Elect, ClassifyOnlySkipsSimulation) {
  core::ElectionOptions options;
  options.simulate = false;
  const core::ElectionReport report = core::elect(config::family_h(2), options);
  EXPECT_TRUE(report.feasible);
  EXPECT_FALSE(report.simulated);
  EXPECT_FALSE(report.leader.has_value());
  EXPECT_TRUE(report.valid);
}

TEST(Elect, SingleNodeElectsItself) {
  const config::Configuration c(graph::path(1), {0});
  const core::ElectionReport report = core::elect(c);
  EXPECT_TRUE(report.feasible);
  EXPECT_TRUE(report.valid);
  ASSERT_TRUE(report.leader.has_value());
  EXPECT_EQ(*report.leader, 0u);
}

/// Property sweep: random configurations through the whole pipeline.
class ElectProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElectProperty, ElectionOutcomeAlwaysVerifies) {
  support::Rng rng(GetParam());
  for (int repeat = 0; repeat < 6; ++repeat) {
    const auto n = static_cast<graph::NodeId>(2 + rng.below(14));
    const auto sigma = static_cast<config::Tag>(rng.below(4));
    const config::Configuration c =
        config::random_tags(graph::gnp_connected(n, 0.35, rng), sigma, rng);
    const core::ElectionReport report = core::elect(c);
    EXPECT_TRUE(report.valid) << "n=" << n << " seed=" << GetParam();
    // Lemma 3.10's bound: phases <= ceil(n/2), each <= n(2σ+1)+σ rounds.
    const std::uint64_t bound =
        ((n + 1ull) / 2) * (static_cast<std::uint64_t>(n) * (2 * c.span() + 1) + c.span()) + 1;
    EXPECT_LE(report.local_rounds, bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElectProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

}  // namespace
