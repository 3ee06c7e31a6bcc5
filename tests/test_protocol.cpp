/// \file test_protocol.cpp
/// The protocol registry and the unified run_protocol() dispatch: registry
/// round-trips, parse validation, elect() compatibility, and the shared
/// labeled/randomized harness (wakeup-order labels, dispositions, horizon
/// guard).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "config/families.hpp"
#include "graph/generators.hpp"
#include "core/protocol.hpp"
#include "support/assert.hpp"

namespace {

using namespace arl;

config::Configuration simultaneous_single_hop(graph::NodeId n) {
  return config::single_hop(std::vector<config::Tag>(n, 0));
}

// ---------------------------------------------------------------- registry

TEST(ProtocolRegistry, NamesRoundTripForEveryRegisteredSpec) {
  ASSERT_FALSE(core::registered_protocols().empty());
  std::set<std::string> names;
  for (const core::ProtocolSpec& spec : core::registered_protocols()) {
    EXPECT_EQ(core::parse_protocol(spec.name()), spec) << spec.name();
    EXPECT_FALSE(spec.describe().empty());
    names.insert(spec.name());
  }
  EXPECT_EQ(names.size(), core::registered_protocols().size());  // keys are unique
}

TEST(ProtocolRegistry, ParameterizedNamesRoundTrip) {
  for (const core::ProtocolSpec spec :
       {core::ProtocolSpec::binary_search(12), core::ProtocolSpec::tree_split(7),
        core::ProtocolSpec::randomized(64)}) {
    EXPECT_EQ(core::parse_protocol(spec.name()), spec) << spec.name();
  }
  EXPECT_EQ(core::parse_protocol("binary-search:12").label_bits, 12u);
  EXPECT_EQ(core::parse_protocol("tree-split:7").label_bits, 7u);
  EXPECT_EQ(core::parse_protocol("randomized:64").max_slots, 64u);
  // Default parameters fold back into the bare key.
  EXPECT_EQ(core::ProtocolSpec::binary_search().name(), "binary-search");
  EXPECT_EQ(core::ProtocolSpec::randomized().name(), "randomized");
}

TEST(ProtocolRegistry, UnknownNamesFailListingTheRegistry) {
  try {
    (void)core::parse_protocol("bogus");
    FAIL() << "parse_protocol accepted an unknown name";
  } catch (const support::ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    for (const char* name : {"canonical", "classify", "binary-search", "tree-split",
                             "randomized"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
  EXPECT_THROW((void)core::parse_protocol("canonical:3"), support::ContractViolation);
  EXPECT_THROW((void)core::parse_protocol("binary-search:nope"), support::ContractViolation);
  EXPECT_THROW((void)core::parse_protocol("binary-search:64"), support::ContractViolation);
  EXPECT_THROW((void)core::parse_protocol("randomized:0"), support::ContractViolation);
  EXPECT_THROW((void)core::parse_protocol(""), support::ContractViolation);
  // Parameters are digits only: no signs or whitespace.
  for (const char* spelling : {"randomized:+5", "randomized: 5", "binary-search:-0"}) {
    try {
      (void)core::parse_protocol(spelling);
      ADD_FAILURE() << "accepted " << spelling;
    } catch (const support::ContractViolation& error) {
      EXPECT_NE(std::string(error.what()).find("malformed parameter"), std::string::npos)
          << error.what();
    }
  }
}

// ---------------------------------------------------------------- dispatch

TEST(RunProtocol, CanonicalMatchesElect) {
  const config::Configuration c = config::staggered_path(6);
  const core::ElectionReport via_registry = core::run_protocol(c, core::ProtocolSpec::canonical());
  const core::ElectionReport via_elect = core::elect(c);
  EXPECT_EQ(via_registry.protocol, "canonical");
  EXPECT_EQ(via_elect.protocol, "canonical");
  EXPECT_EQ(via_registry.disposition, core::Disposition::Elected);
  EXPECT_EQ(via_registry.feasible, via_elect.feasible);
  EXPECT_EQ(via_registry.leader, via_elect.leader);
  EXPECT_EQ(via_registry.valid, via_elect.valid);
  EXPECT_EQ(via_registry.local_rounds, via_elect.local_rounds);
  EXPECT_EQ(via_registry.stats, via_elect.stats);
}

TEST(RunProtocol, CanonicalElectsAcrossATwoHundredMillionRoundTagGap) {
  // Two nodes whose wakeup tags lie 2·10⁸ rounds apart: the run spans
  // 8·10⁸ global rounds but holds two transmissions.  Simulation cost and
  // memory follow the transmissions, so this elects in milliseconds; one
  // history entry per round would need gigabytes.
  const config::Configuration c(graph::path(2), {0, 200'000'000});
  const core::ElectionReport report = core::run_protocol(c, core::ProtocolSpec::canonical());
  EXPECT_TRUE(report.valid);
  EXPECT_EQ(report.disposition, core::Disposition::Elected);
  EXPECT_EQ(report.leader, graph::NodeId{0});
  EXPECT_EQ(report.local_rounds, 600'000'002u);
  EXPECT_EQ(report.global_rounds, 800'000'003u);
  EXPECT_EQ(report.stats.transmissions, 2u);
  EXPECT_EQ(report.stats.node_rounds, 1'200'000'004u);
}

TEST(RunProtocol, CanonicalOnInfeasibleConfigurationsReportsNoLeader) {
  const core::ElectionReport report =
      core::run_protocol(simultaneous_single_hop(4), core::ProtocolSpec::canonical());
  EXPECT_FALSE(report.feasible);
  EXPECT_TRUE(report.valid);  // correctly elected nobody
  EXPECT_EQ(report.disposition, core::Disposition::NoLeader);
  EXPECT_FALSE(report.leader.has_value());
}

TEST(RunProtocol, ClassifyOnlyNeverSimulates) {
  const core::ElectionReport report =
      core::run_protocol(config::staggered_path(5), core::ProtocolSpec::classify_only());
  EXPECT_EQ(report.protocol, "classify");
  EXPECT_EQ(report.disposition, core::Disposition::NotSimulated);
  EXPECT_TRUE(report.feasible);
  EXPECT_FALSE(report.simulated);
  EXPECT_EQ(report.schedule, nullptr);
}

// ----------------------------------------------------- labeled harness

TEST(RunProtocol, LabeledProtocolsElectTheEarliestWakerByDefault) {
  // Auto-assigned labels follow wakeup order (stable on node id), so on a
  // simultaneous single-hop configuration node 0 holds label 0 and wins both
  // labeled baselines.
  for (const core::ProtocolSpec spec :
       {core::ProtocolSpec::binary_search(), core::ProtocolSpec::tree_split()}) {
    for (const graph::NodeId n : {2u, 5u, 16u}) {
      const core::ElectionReport report = core::run_protocol(simultaneous_single_hop(n), spec);
      EXPECT_EQ(report.protocol, spec.name());
      EXPECT_EQ(report.disposition, core::Disposition::Elected) << spec.name() << " n=" << n;
      ASSERT_TRUE(report.leader.has_value());
      EXPECT_EQ(*report.leader, 0u);
      EXPECT_TRUE(report.valid);
      EXPECT_TRUE(report.simulated);
      EXPECT_GT(report.local_rounds, 0u);
      // Baselines never classify.
      EXPECT_FALSE(report.feasible);
      EXPECT_EQ(report.classification.iterations, 0u);
    }
  }
}

TEST(RunProtocol, ExplicitLabelsOverrideTheWakeupOrderAssignment) {
  core::ElectionOptions options;
  options.simulator.labels = {3, 0, 2, 1};  // node 1 holds the minimum label
  const core::ElectionReport report =
      core::run_protocol(simultaneous_single_hop(4), core::ProtocolSpec::binary_search(4),
                         options);
  ASSERT_TRUE(report.leader.has_value());
  EXPECT_EQ(*report.leader, 1u);
}

TEST(RunProtocol, BinarySearchRunsInExactlyLPlusOneRounds) {
  const core::ElectionReport report =
      core::run_protocol(simultaneous_single_hop(10), core::ProtocolSpec::binary_search(6));
  EXPECT_EQ(report.local_rounds, 7u);
}

TEST(RunProtocol, DuplicateLabelsFailDetectably) {
  // Failure injection: duplicate labels make a fully refined tree-split
  // prefix collide.  NoLeader (not Failed) proves the protocol terminated
  // everywhere instead of spinning to the horizon guard.
  core::ElectionOptions options;
  options.simulator.labels = {5, 5, 2, 2};
  const core::ElectionReport report = core::run_protocol(
      simultaneous_single_hop(4), core::ProtocolSpec::tree_split(3), options);
  EXPECT_EQ(report.disposition, core::Disposition::NoLeader);
  EXPECT_FALSE(report.valid);
  EXPECT_FALSE(report.leader.has_value());
}

TEST(RunProtocol, TooNarrowALabelUniverseFailsWithoutThrowing) {
  // binary-search:2 cannot label 16 nodes; a mixed-protocol batch must get a
  // Failed job, not an exception that kills every other job.
  const core::ElectionReport report =
      core::run_protocol(simultaneous_single_hop(16), core::ProtocolSpec::binary_search(2));
  EXPECT_EQ(report.disposition, core::Disposition::Failed);
  EXPECT_FALSE(report.valid);
  EXPECT_FALSE(report.simulated);
}

// -------------------------------------------------- randomized harness

TEST(RunProtocol, RandomizedElectsOnDeterministicallyImpossibleConfigurations) {
  // The headline contrast: all-equal tags are infeasible for every
  // deterministic anonymous protocol, yet the randomized baseline elects —
  // and through the same API surface.
  const config::Configuration c = simultaneous_single_hop(8);
  EXPECT_EQ(core::run_protocol(c, core::ProtocolSpec::classify_only()).disposition,
            core::Disposition::NotSimulated);
  EXPECT_FALSE(core::run_protocol(c, core::ProtocolSpec::classify_only()).feasible);

  std::set<graph::NodeId> winners;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    core::ElectionOptions options;
    options.simulator.coin_seed = seed;
    const core::ElectionReport report =
        core::run_protocol(c, core::ProtocolSpec::randomized(), options);
    EXPECT_EQ(report.disposition, core::Disposition::Elected) << "seed=" << seed;
    ASSERT_TRUE(report.leader.has_value());
    winners.insert(*report.leader);
  }
  EXPECT_GT(winners.size(), 1u);  // anonymity: no node is structurally favoured
}

TEST(RunProtocol, RandomizedSlotGuardForcesABoundedNoLeaderOutcome) {
  // One node never hears an echo, so no slot succeeds; the guard terminates
  // the run cleanly — NoLeader, not a Failed horizon truncation.
  const core::ElectionReport report =
      core::run_protocol(simultaneous_single_hop(1), core::ProtocolSpec::randomized(16));
  EXPECT_EQ(report.disposition, core::Disposition::NoLeader);
  EXPECT_FALSE(report.valid);
  EXPECT_LE(report.global_rounds, 2u * 17u + 4u);
}

TEST(RunProtocol, ScratchReuseDoesNotChangeOutcomes) {
  core::ElectionScratch scratch;
  for (const core::ProtocolSpec& spec : core::registered_protocols()) {
    const config::Configuration c = simultaneous_single_hop(6);
    const core::ElectionReport fresh = core::run_protocol(c, spec);
    const core::ElectionReport reused = core::run_protocol(c, spec, {}, scratch);
    EXPECT_EQ(fresh.disposition, reused.disposition) << spec.name();
    EXPECT_EQ(fresh.leader, reused.leader) << spec.name();
    EXPECT_EQ(fresh.local_rounds, reused.local_rounds) << spec.name();
    EXPECT_EQ(fresh.stats, reused.stats) << spec.name();
  }
}

}  // namespace
