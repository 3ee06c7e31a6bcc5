/// \file test_fuzz.cpp
/// Randomized differential testing: arbitrary protocols on arbitrary
/// configurations, with the independent validator as the oracle.  Where the
/// unit suites check hand-picked scenarios, these sweeps check that the
/// engine and the model definition agree on *whatever* a protocol does —
/// chaotic transmissions, mid-sleep wakeups, early terminations, both
/// channel models, both wake policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/families.hpp"
#include "config/fingerprint.hpp"
#include "config/io.hpp"
#include "core/canonical_drip.hpp"
#include "core/classifier.hpp"
#include "core/election.hpp"
#include "core/patient.hpp"
#include "core/schedule.hpp"
#include "core/schedule_io.hpp"
#include "dist/merge.hpp"
#include "dist/report_io.hpp"
#include "dist/shard.hpp"
#include "engine/batch_runner.hpp"
#include "engine/sweep.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "lowerbounds/universal.hpp"
#include "radio/validator.hpp"
#include "serve/serve_proto.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;

/// A protocol that acts at random (from its private coins): transmits one of
/// three payloads, listens, or — eventually surely — terminates.
class ChaosDrip final : public radio::Drip {
 public:
  explicit ChaosDrip(config::Round max_life) : max_life_(max_life) {}

  std::unique_ptr<radio::NodeProgram> instantiate(const radio::NodeEnv& env) const override {
    class Program final : public radio::NodeProgram {
     public:
      Program(std::uint64_t seed, config::Round max_life)
          : coins_(seed), max_life_(max_life) {}

      radio::Action decide(config::Round i, const radio::HistoryView&) override {
        if (done_) {
          return radio::Action::terminate();
        }
        if (i >= max_life_ || coins_.bernoulli(0.05)) {
          done_ = true;
          return radio::Action::terminate();
        }
        if (coins_.bernoulli(0.35)) {
          return radio::Action::transmit(1 + coins_.below(3));
        }
        return radio::Action::listen();
      }

     private:
      support::Rng coins_;
      config::Round max_life_;
      bool done_ = false;
    };
    return std::make_unique<Program>(env.coin_seed, max_life_);
  }
  std::string name() const override { return "chaos"; }

 private:
  config::Round max_life_;
};

config::Configuration random_configuration(support::Rng& rng) {
  const auto n = static_cast<graph::NodeId>(2 + rng.below(10));
  const auto sigma = static_cast<config::Tag>(rng.below(6));
  graph::Graph g;
  switch (rng.below(4)) {
    case 0:
      g = graph::path(n);
      break;
    case 1:
      g = graph::star(n);
      break;
    case 2:
      g = graph::random_tree(n, rng);
      break;
    default:
      g = graph::gnp_connected(n, 0.4, rng);
      break;
  }
  return config::random_tags(std::move(g), sigma, rng);
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, ChaoticRunsValidateUnderEveryModelCombination) {
  support::Rng rng(GetParam());
  for (int repeat = 0; repeat < 6; ++repeat) {
    const config::Configuration c = random_configuration(rng);
    const ChaosDrip drip(20);
    for (const auto model : {radio::ChannelModel::CollisionDetection,
                             radio::ChannelModel::NoCollisionDetection}) {
      for (const auto policy : {radio::WakePolicy::HearAll, radio::WakePolicy::SilentWake}) {
        radio::ExecutionRecorder recorder;
        radio::SimulatorOptions options;
        options.trace = &recorder;
        options.history_window = 0;
        options.channel_model = model;
        options.wake_policy = policy;
        options.coin_seed = rng.next();
        const radio::RunResult run = radio::simulate(c, drip, options);
        ASSERT_TRUE(run.all_terminated);
        const radio::ValidationReport report =
            radio::validate_execution(c, recorder, run, model, policy);
        ASSERT_TRUE(report.ok) << report.error;
        ASSERT_GT(report.checks, 0u);
      }
    }
  }
}

TEST_P(FuzzSweep, SimulationIsDeterministic) {
  support::Rng rng(GetParam() ^ 0xD5);
  const config::Configuration c = random_configuration(rng);
  const ChaosDrip drip(15);
  radio::SimulatorOptions options;
  options.history_window = 0;
  options.coin_seed = 1234;
  const radio::RunResult first = radio::simulate(c, drip, options);
  const radio::RunResult second = radio::simulate(c, drip, options);
  ASSERT_EQ(first.nodes.size(), second.nodes.size());
  for (std::size_t v = 0; v < first.nodes.size(); ++v) {
    EXPECT_EQ(first.nodes[v].history, second.nodes[v].history);
    EXPECT_EQ(first.nodes[v].wake_round, second.nodes[v].wake_round);
    EXPECT_EQ(first.nodes[v].done_round, second.nodes[v].done_round);
  }
  EXPECT_EQ(first.stats.transmissions, second.stats.transmissions);
}

TEST_P(FuzzSweep, PatienceWrapperTamesArbitraryProtocols) {
  // Claim 1 of Lemma 3.12, for protocols far wilder than the proof needs:
  // wrap chaos, and nothing transmits through global rounds 0..σ — every
  // wakeup is spontaneous.
  support::Rng rng(GetParam() ^ 0xBEEF);
  for (int repeat = 0; repeat < 4; ++repeat) {
    const config::Configuration c = random_configuration(rng);
    const auto inner = std::make_shared<ChaosDrip>(15);
    const core::PatientWrapper wrapped(inner, c.span());
    testkit::TransmissionLog log;
    radio::SimulatorOptions options;
    options.trace = &log;
    options.coin_seed = rng.next();
    const radio::RunResult run = radio::simulate(c, wrapped, options);
    ASSERT_TRUE(run.all_terminated);
    if (const auto first = log.first_round()) {
      EXPECT_GT(*first, c.span());
    }
    for (graph::NodeId v = 0; v < c.size(); ++v) {
      EXPECT_FALSE(run.nodes[v].forced_wake);
      EXPECT_EQ(run.nodes[v].wake_round, c.tag(v));
    }
  }
}

TEST_P(FuzzSweep, CollisionDetectionRefinesTheNoCdPartition) {
  // Channel-model monotonicity at every iteration: nodes the CD classifier
  // separates may merge without CD, never the other way around.
  support::Rng rng(GetParam() ^ 0xCD);
  for (int repeat = 0; repeat < 6; ++repeat) {
    const config::Configuration c = random_configuration(rng);
    const auto cd = core::Classifier(radio::ChannelModel::CollisionDetection).run(c);
    const auto nocd = core::Classifier(radio::ChannelModel::NoCollisionDetection).run(c);
    const std::uint32_t shared = std::min(cd.iterations, nocd.iterations);
    for (std::uint32_t j = 1; j <= shared; ++j) {
      const auto fine = cd.classes_after(j);
      const auto coarse = nocd.classes_after(j);
      for (graph::NodeId u = 0; u < c.size(); ++u) {
        for (graph::NodeId v = u + 1; v < c.size(); ++v) {
          if (fine[u] == fine[v]) {
            EXPECT_EQ(coarse[u], coarse[v])
                << "CD merged " << u << "," << v << " but no-CD separated them (iter " << j
                << ")";
          }
        }
      }
    }
    // Verdict monotonicity.
    EXPECT_TRUE(cd.feasible() || !nocd.feasible());
  }
}

TEST_P(FuzzSweep, ScheduleTextRoundTripPreservesElections) {
  support::Rng rng(GetParam() ^ 0x10);
  for (int repeat = 0; repeat < 4; ++repeat) {
    const config::Configuration c = random_configuration(rng);
    const auto compiled = core::make_schedule(c);
    const auto parsed = std::make_shared<const core::CanonicalSchedule>(
        core::schedule_from_text_string(core::schedule_to_text_string(*compiled)));
    const radio::RunResult original = radio::simulate(c, core::CanonicalDrip(compiled));
    const radio::RunResult reloaded = radio::simulate(c, core::CanonicalDrip(parsed));
    EXPECT_EQ(original.leaders(), reloaded.leaders());
    EXPECT_EQ(original.rounds_executed, reloaded.rounds_executed);
  }
}

TEST_P(FuzzSweep, ConfigurationTextRoundTripsExactly) {
  support::Rng rng(GetParam() ^ 0x70);
  for (int repeat = 0; repeat < 8; ++repeat) {
    const config::Configuration original = random_configuration(rng);
    const config::Configuration parsed =
        config::from_text_string(config::to_text_string(original));
    EXPECT_EQ(parsed, original);
  }
}

TEST_P(FuzzSweep, ElectReportsAreInternallyConsistent) {
  // Field-check every invariant the report promises, on random inputs:
  // classification/schedule/leader coherence, round accounting, stats.
  support::Rng rng(GetParam() ^ 0xE1);
  for (int repeat = 0; repeat < 4; ++repeat) {
    const config::Configuration c = random_configuration(rng);
    const core::ElectionReport report = core::elect(c);
    ASSERT_TRUE(report.valid);
    EXPECT_EQ(report.feasible, report.classification.feasible());
    EXPECT_EQ(report.feasible, report.schedule->feasible);
    EXPECT_EQ(report.local_rounds, report.schedule->total_rounds());
    if (report.feasible) {
      ASSERT_TRUE(report.leader.has_value());
      EXPECT_EQ(*report.leader, report.classification.leader);
    } else {
      EXPECT_FALSE(report.leader.has_value());
    }
    // Each node transmits once per phase (Lemma 3.7's structure).
    EXPECT_EQ(report.stats.transmissions,
              static_cast<std::uint64_t>(c.size()) * report.schedule->phases.size());
    // Global completion covers the last waker's local schedule.
    const config::Tag max_tag =
        *std::max_element(c.tags().begin(), c.tags().end());
    EXPECT_GE(report.global_rounds, max_tag + report.local_rounds);
  }
}

TEST_P(FuzzSweep, WakePolicyIsUnobservableForPatientProtocols) {
  // The wake-round hearing policy only matters when something transmits
  // while a node wakes; patient protocols never do that, so the canonical
  // DRIP must behave identically under both policies.
  support::Rng rng(GetParam() ^ 0x9A);
  const config::Configuration c = random_configuration(rng);
  const auto schedule = core::make_schedule(c);
  const core::CanonicalDrip drip(schedule);
  radio::RunResult runs[2];
  int index = 0;
  for (const auto policy : {radio::WakePolicy::HearAll, radio::WakePolicy::SilentWake}) {
    radio::SimulatorOptions options;
    options.wake_policy = policy;
    options.history_window = 0;
    runs[index++] = radio::simulate(c, drip, options);
  }
  ASSERT_EQ(runs[0].nodes.size(), runs[1].nodes.size());
  for (graph::NodeId v = 0; v < c.size(); ++v) {
    EXPECT_EQ(runs[0].nodes[v].history, runs[1].nodes[v].history);
    EXPECT_EQ(runs[0].nodes[v].elected, runs[1].nodes[v].elected);
  }
}

TEST(FingerprintFuzz, TenThousandRandomConfigurationsNeverShareFalsely) {
  // The schedule cache's keying property, fuzzed: across 10k random
  // configurations, equal digests only ever come from equal configurations
  // (the generator does repeat small configurations — those duplicates are
  // exactly the collisions the digest must have).
  support::Rng rng(0xF1D6E5);
  std::unordered_map<config::Fingerprint, config::Configuration> seen;
  std::size_t duplicates = 0;
  for (int i = 0; i < 10'000; ++i) {
    const config::Configuration c = random_configuration(rng);
    const config::Fingerprint digest = config::fingerprint(c);
    const auto [slot, inserted] = seen.try_emplace(digest, c);
    if (!inserted) {
      ASSERT_EQ(slot->second, c)
          << "digest collision between distinct configurations at i=" << i << ":\n"
          << config::to_text_string(slot->second) << "vs\n"
          << config::to_text_string(c);
      ++duplicates;
    }
  }
  // Sanity on the workload itself: the small-configuration space guarantees
  // honest repeats, so the no-false-sharing branch above really executed.
  EXPECT_GT(duplicates, 0u);
}

// ------------------------------------------------------- workload digests

/// A random spec assembled as a grammar string and pushed through
/// parse_workload — so the fuzz exercises the parser on every sample, and
/// duplicates (equal specs) occur honestly for the collision check below.
engine::WorkloadSpec random_workload_spec(support::Rng& rng, bool allow_mutations = true) {
  std::string name;
  std::vector<std::string> params;
  switch (rng.below(allow_mutations ? 12 : 11)) {
    case 0:
      name = "random";
      params.push_back("n=" + std::to_string(2 + rng.below(39)));
      params.push_back("p=0." + std::to_string(1 + rng.below(9)));
      params.push_back("sigma=" + std::to_string(rng.below(6)));
      if (rng.bernoulli(0.2)) {
        params.push_back("exact=0");
      }
      break;
    case 1:
      name = "exhaustive";
      params.push_back("n=" + std::to_string(1 + rng.below(5)));
      params.push_back("tau=" + std::to_string(rng.below(4)));
      break;
    case 2:
      name = "family-g";
      break;
    case 3:
      name = "family-h";
      break;
    case 4:
      name = "family-s";
      break;
    case 5:
      name = "staggered";
      break;
    case 6:
      name = "grid";
      params.push_back("rows=" + std::to_string(1 + rng.below(8)));
      params.push_back("cols=" + std::to_string(2 + rng.below(7)));
      params.push_back("sigma=" + std::to_string(rng.below(5)));
      break;
    case 7:
      name = "torus";
      params.push_back("rows=" + std::to_string(3 + rng.below(6)));
      params.push_back("cols=" + std::to_string(3 + rng.below(6)));
      params.push_back("sigma=" + std::to_string(rng.below(5)));
      break;
    case 8:
      name = "hypercube";
      params.push_back("d=" + std::to_string(1 + rng.below(8)));
      params.push_back("sigma=" + std::to_string(rng.below(5)));
      break;
    case 9:
      name = "tree";
      params.push_back("n=" + std::to_string(2 + rng.below(59)));
      params.push_back("sigma=" + std::to_string(rng.below(5)));
      break;
    case 10:
      name = "single-hop";
      params.push_back("n=" + std::to_string(2 + rng.below(39)));
      params.push_back("sigma=" + std::to_string(rng.below(5)));
      break;
    default:
      return engine::WorkloadSpec::mutations(random_workload_spec(rng, false));
  }
  if (rng.bernoulli(0.25)) {
    params.push_back("model=nocd");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    name += (i == 0 ? ':' : ',');
    name += params[i];
  }
  return engine::parse_workload(name);
}

TEST(WorkloadFuzz, TenThousandRandomSpecsNeverShareADigestFalsely) {
  // The sweep-identity keying property, fuzzed like the configuration
  // fingerprint above: across 10k random workload specs, equal digests only
  // ever come from equal specs.  (The generator repeats the parameterless
  // families constantly — those duplicates are exactly the collisions the
  // digest must have.)
  support::Rng rng(0x3A11);
  std::unordered_map<std::uint64_t, engine::WorkloadSpec> seen;
  std::size_t duplicates = 0;
  for (int i = 0; i < 10'000; ++i) {
    const engine::WorkloadSpec spec = random_workload_spec(rng);
    const auto [slot, inserted] = seen.try_emplace(spec.digest(), spec);
    if (!inserted) {
      ASSERT_EQ(slot->second, spec)
          << "digest collision between distinct workloads at i=" << i << ": "
          << slot->second.name() << " vs " << spec.name();
      ++duplicates;
    }
  }
  EXPECT_GT(duplicates, 0u);

  // And the round trip holds on every distinct sampled spec, not just the
  // registry defaults.
  for (const auto& [digest, spec] : seen) {
    ASSERT_EQ(engine::parse_workload(spec.name()), spec) << spec.name();
    ASSERT_EQ(spec.digest(), digest) << spec.name();
  }
}

// --------------------------------------------------------- fault digests

/// A random fault spec assembled as a grammar string and pushed through
/// parse_fault — the same discipline as random_workload_spec: the fuzz
/// exercises the parser on every sample, and duplicates occur honestly.
fault::FaultSpec random_fault_spec(support::Rng& rng) {
  // Canonical probability spellings only (the grammar rejects non-canonical
  // numbers by design, which the garbage pass below covers).
  static const std::vector<std::string> kProbabilities = {
      "0", "0.05", "0.1", "0.125", "0.25", "0.3", "0.5", "0.75", "0.9", "1"};
  std::string name;
  switch (rng.below(5)) {
    case 0:
      name = "none";
      break;
    case 1:
      name = "drop:" + kProbabilities[rng.below(kProbabilities.size())];
      if (rng.bernoulli(0.4)) {
        name += "," + std::to_string(1 + rng.below(999));
      }
      break;
    case 2:
      name = "corrupt:" + kProbabilities[rng.below(kProbabilities.size())];
      break;
    case 3:
      name = "crash:" + std::to_string(rng.below(1'000'000));
      if (rng.bernoulli(0.4)) {
        name += "," + std::to_string(1 + rng.below(999'999));
      }
      break;
    default:
      name = "adversarial-wake:" + std::to_string(rng.below(1'000'000));
      break;
  }
  return fault::parse_fault(name);
}

TEST(FaultSpecFuzz, TenThousandRandomSpecsRoundTripAndNeverShareADigestFalsely) {
  // The fault half of sweep identity, fuzzed exactly like the workload
  // digest above: across 10k random specs, equal digests only ever come
  // from equal specs, and every distinct sampled spec round-trips through
  // its name.
  support::Rng rng(0xFA17F);
  std::unordered_map<std::uint64_t, fault::FaultSpec> seen;
  std::size_t duplicates = 0;
  for (int i = 0; i < 10'000; ++i) {
    const fault::FaultSpec spec = random_fault_spec(rng);
    const auto [slot, inserted] = seen.try_emplace(spec.digest(), spec);
    if (!inserted) {
      ASSERT_EQ(slot->second, spec)
          << "digest collision between distinct faults at i=" << i << ": "
          << slot->second.name() << " vs " << spec.name();
      ++duplicates;
    }
  }
  EXPECT_GT(duplicates, 0u);
  for (const auto& [digest, spec] : seen) {
    ASSERT_EQ(fault::parse_fault(spec.name()), spec) << spec.name();
    ASSERT_EQ(spec.digest(), digest) << spec.name();
  }
}

TEST(FaultSpecFuzz, GarbageSpecsEitherThrowOrRoundTrip) {
  // Total-function property of the parser: any byte string either raises a
  // ContractViolation or yields a spec whose canonical name reparses to the
  // same spec.  Nothing else may happen — no crashes, no lossy acceptance.
  support::Rng rng(0x6A26A6E);
  static const std::string kAlphabet = "abcdefghijkstvw-:,.0123456789 eE+_";
  std::size_t accepted = 0;
  for (int trial = 0; trial < 10'000; ++trial) {
    std::string text;
    const std::size_t length = rng.below(20);
    for (std::size_t i = 0; i < length; ++i) {
      text += kAlphabet[rng.below(kAlphabet.size())];
    }
    try {
      const fault::FaultSpec spec = fault::parse_fault(text);
      ASSERT_EQ(fault::parse_fault(spec.name()), spec) << "'" << text << "'";
      ++accepted;
    } catch (const support::ContractViolation&) {
      // Rejected outright — the expected fate of almost every sample.
    }
  }
  // Sanity: the alphabet is biased enough that some samples do parse
  // (e.g. bare "none" is unlikely, but "crash:3"-shaped strings occur).
  (void)accepted;
}

// ----------------------------------------------------- shard report parser

/// One small but representative shard report (mixed protocols, a cache
/// line, a multi-range cover) to mutate.
std::string reference_shard_report_text() {
  const engine::WorkloadSpec workload = engine::parse_workload("random:n=6,p=0.3,sigma=2");
  const std::vector<core::ProtocolSpec> protocols = {core::ProtocolSpec::canonical(),
                                                     core::ProtocolSpec::binary_search()};
  const engine::CountedSweep counted = workload.instantiate(11, protocols, {.count = 4});

  dist::SweepKey key;
  key.description = workload.name();
  key.digest = workload.digest();
  key.seed = 11;
  key.total_jobs = counted.count;
  for (const core::ProtocolSpec& protocol : protocols) {
    key.protocols.push_back(protocol.name());
  }

  engine::BatchRunner runner({.threads = 1, .seed = 11, .cache_capacity = 64});
  std::vector<dist::ShardReport> pieces;
  for (const dist::JobRange range : {dist::JobRange{0, 3}, dist::JobRange{5, 8}}) {
    engine::BatchReport report = runner.run_range(range.begin, range.end, counted.source);
    pieces.push_back(dist::make_shard_report(key, range, std::move(report)));
  }
  std::ostringstream out;
  dist::write_shard_report(dist::merge_shards(pieces), out);
  return out.str();
}

TEST(ShardReportFuzz, StructuralMutationsAreAlwaysRejected) {
  const std::string text = reference_shard_report_text();
  std::vector<std::string> lines;
  {
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      lines.push_back(line);
    }
  }
  const auto joined = [](const std::vector<std::string>& parts) {
    std::string all;
    for (const std::string& part : parts) {
      all += part;
      all += '\n';
    }
    return all;
  };
  const auto expect_rejected = [](const std::string& mutated, const std::string& what) {
    std::istringstream in(mutated);
    EXPECT_THROW((void)dist::read_shard_report(in), dist::ReportFormatError) << what;
  };

  // Dropping, duplicating or swapping any line breaks the grammar, a
  // count, a cross-check — or, for mutations the grammar itself would
  // accept (the optional cache line removed, a protocol line doubled), the
  // whole-body digest on the `end` line.
  for (std::size_t drop = 0; drop < lines.size(); ++drop) {
    std::vector<std::string> mutated = lines;
    mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(drop));
    expect_rejected(joined(mutated), "dropped line " + std::to_string(drop));
  }
  for (std::size_t dup = 1; dup < lines.size(); ++dup) {
    std::vector<std::string> mutated = lines;
    mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(dup), lines[dup]);
    expect_rejected(joined(mutated), "duplicated line " + std::to_string(dup));
  }
  for (std::size_t at = 0; at + 1 < lines.size(); ++at) {
    std::vector<std::string> mutated = lines;
    std::swap(mutated[at], mutated[at + 1]);
    expect_rejected(joined(mutated), "swapped lines " + std::to_string(at));
  }
  // Trailing garbage after `end` is rejected.
  expect_rejected(text + "job 9 canonical elected 6 2 1 1 1 0 1 1 1 1 " +
                      std::string(16, '0') + " 0 0 0 0 0\n",
                  "appended job line");
  expect_rejected(text + "#\n", "appended comment");
}

TEST(ShardReportFuzz, EverySingleByteCorruptionIsRejected) {
  // The `end` line digests every byte above it, so no single-character
  // corruption anywhere in the file may parse — not even in fields the
  // grammar and the breakdown cross-check would both accept, like a
  // node-count digit or a configuration fingerprint.  Exhaustive over
  // every byte position (digit replacement) plus a randomized pass with
  // arbitrary printable replacements.
  const std::string text = reference_shard_report_text();
  for (std::size_t at = 0; at + 1 < text.size(); ++at) {  // final '\n' stays
    std::string mutated = text;
    mutated[at] = mutated[at] == '7' ? '8' : '7';
    std::istringstream in(mutated);
    EXPECT_THROW((void)dist::read_shard_report(in), dist::ReportFormatError)
        << "corruption at byte " << at << " was accepted";
  }
  support::Rng rng(0xC055);
  for (int trial = 0; trial < 2'000; ++trial) {
    std::string mutated = text;
    const std::size_t at = static_cast<std::size_t>(rng.below(mutated.size() - 1));
    const char replacement = static_cast<char>(' ' + rng.below('~' - ' ' + 1));
    if (mutated[at] == replacement) {
      continue;
    }
    mutated[at] = replacement;
    std::istringstream in(mutated);
    EXPECT_THROW((void)dist::read_shard_report(in), dist::ReportFormatError)
        << "random corruption at byte " << at << " to '" << replacement << "' was accepted";
  }
}

/// A fault-bearing shard report to mutate: same sweep as above, run under
/// drop:0.2, so the optional `fault` line is present and every job line
/// carries nonzero injected-event counters.
std::string faulted_shard_report_text() {
  const engine::WorkloadSpec workload = engine::parse_workload("random:n=6,p=0.3,sigma=2");
  const std::vector<core::ProtocolSpec> protocols = {core::ProtocolSpec::canonical(),
                                                     core::ProtocolSpec::binary_search()};
  const engine::CountedSweep counted = workload.instantiate(11, protocols, {.count = 4});

  dist::SweepKey key;
  key.description = workload.name();
  key.digest = workload.digest();
  key.seed = 11;
  key.total_jobs = counted.count;
  key.fault = "drop:0.2";
  for (const core::ProtocolSpec& protocol : protocols) {
    key.protocols.push_back(protocol.name());
  }

  engine::BatchRunner runner(
      {.threads = 1, .seed = 11, .fault = fault::FaultSpec::drop(0.2)});
  engine::BatchReport report = runner.run_range(0, counted.count, counted.source);
  const dist::ShardReport shard =
      dist::make_shard_report(key, {0, counted.count}, std::move(report));
  std::ostringstream out;
  dist::write_shard_report(shard, out);
  return out.str();
}

TEST(ShardReportFuzz, FaultedReportsRoundTripThroughTheWire) {
  const std::string text = faulted_shard_report_text();
  ASSERT_NE(text.find("\nfault drop:0.2\n"), std::string::npos);
  std::istringstream in(text);
  const dist::ShardReport parsed = dist::read_shard_report(in);
  EXPECT_EQ(parsed.key.fault, "drop:0.2");
  EXPECT_EQ(parsed.report.fault, fault::FaultSpec::drop(0.2));
  EXPECT_GT(parsed.report.total_stats.injected_drops, 0u);
}

TEST(ShardReportFuzz, FaultLineMutationsAreAlwaysRejected) {
  const std::string text = faulted_shard_report_text();
  const std::size_t line_start = text.find("\nfault ") + 1;
  ASSERT_NE(line_start, std::string::npos + 1);
  const std::size_t line_end = text.find('\n', line_start);
  const auto expect_rejected = [](const std::string& mutated, const std::string& what) {
    std::istringstream in(mutated);
    EXPECT_THROW((void)dist::read_shard_report(in), dist::ReportFormatError) << what;
  };

  // Deleting the line is grammar-legal (the field is optional) but strips
  // the fault from the sweep identity — the whole-body digest rejects it.
  std::string deleted = text;
  deleted.erase(line_start, line_end - line_start + 1);
  expect_rejected(deleted, "deleted fault line");

  // Spelling mutations: non-canonical ("drop:0.20"), inactive ("none",
  // "drop:0"), unknown and malformed specs.  Each breaks the canonical-
  // spelling contract — and the digest, for defense in depth.
  for (const char* respelled :
       {"fault drop:0.20", "fault none", "fault drop:0", "fault bogus", "fault drop:",
        "fault drop:0.2 extra", "fault"}) {
    std::string mutated = text;
    mutated.replace(line_start, line_end - line_start, respelled);
    expect_rejected(mutated, std::string("'") + respelled + "'");
  }

  // Every single-byte corruption of the line (spec characters and the
  // keyword alike) is rejected.
  for (std::size_t at = line_start; at < line_end; ++at) {
    std::string mutated = text;
    mutated[at] = mutated[at] == 'x' ? 'y' : 'x';
    std::istringstream in(mutated);
    EXPECT_THROW((void)dist::read_shard_report(in), dist::ReportFormatError)
        << "fault-line corruption at byte " << at << " was accepted";
  }
}

TEST(ShardReportFuzz, FaultedReportsRejectEverySingleByteCorruption) {
  // The digest shields the fault-bearing format exactly as it shields the
  // unfaulted one — including the widened job/breakdown stat fields.
  const std::string text = faulted_shard_report_text();
  for (std::size_t at = 0; at + 1 < text.size(); ++at) {
    std::string mutated = text;
    mutated[at] = mutated[at] == '7' ? '8' : '7';
    std::istringstream in(mutated);
    EXPECT_THROW((void)dist::read_shard_report(in), dist::ReportFormatError)
        << "corruption at byte " << at << " was accepted";
  }
}

TEST(ShardReportFuzz, SweepIdentityLineIsDigestProtected) {
  // The one header field merge identity hangs on — the sweep description —
  // is digest-protected: corrupting any of its characters (or the digest
  // itself) must throw, so a hand-edited workload line cannot sneak two
  // different sweeps past the merge verifier.
  const std::string text = reference_shard_report_text();
  const std::size_t line_start = text.find("\nsweep ") + 1;
  const std::size_t line_end = text.find('\n', line_start);
  for (std::size_t at = line_start + 6; at < line_end; ++at) {
    std::string mutated = text;
    mutated[at] = mutated[at] == 'x' ? 'y' : 'x';
    std::istringstream in(mutated);
    EXPECT_THROW((void)dist::read_shard_report(in), dist::ReportFormatError)
        << "sweep-line corruption at byte " << at << " was accepted";
  }
}

// --------------------------------------------------- serve stats protocol

/// A stats response with every field distinct and nonzero, so a parse that
/// transposes two counters cannot round-trip back to the original.
serve::Response reference_stats_response() {
  serve::Response response;
  response.kind = serve::Response::Kind::Stats;
  serve::ServerStats& s = response.stats;
  s.uptime_ms = 1201;
  s.queued = 2;
  s.active = 3;
  s.sessions = 4;
  s.accepted = 55;
  s.completed = 51;
  s.failed = 1;
  s.busy_rejections = 6;
  s.drain_rejections = 7;
  s.protocol_errors = 8;
  s.cache = {90, 41, 42};
  s.store = {13, 14, 15};
  s.queue_wait = {51, 127, 511, 2047};
  s.dispatch = {51, 1023, 8191, 16383};
  return response;
}

TEST(StatsProtoFuzz, ReferenceLineRoundTrips) {
  const serve::Response response = reference_stats_response();
  const std::string line = serve::format_response(response);
  EXPECT_EQ(line,
            "arl-serve 1 stats uptime-ms 1201 queued 2 active 3 sessions 4 "
            "accepted 55 completed 51 failed 1 busy 6 drained 7 proto-errors 8 "
            "cache 90 41 42 store 13 14 15 queue-wait-us 51 127 511 2047 "
            "dispatch-us 51 1023 8191 16383");
  const auto matched = serve::match_response(line);
  ASSERT_TRUE(matched.has_value());
  EXPECT_EQ(*matched, response);

  // The request side is three exact tokens.
  serve::Request request;
  request.kind = serve::Request::Kind::Stats;
  EXPECT_EQ(serve::format_request(request), "arl-serve 1 stats");
  EXPECT_EQ(serve::parse_request("arl-serve 1 stats"), request);
}

TEST(StatsProtoFuzz, EveryTruncationIsRejected) {
  // Cutting the response after any token prefix must throw: the parser
  // demands all 41 tokens, so a connection dropped mid-line can never be
  // mistaken for a smaller-but-valid snapshot.
  const std::string line = serve::format_response(reference_stats_response());
  std::vector<std::string> tokens;
  {
    std::istringstream in(line);
    for (std::string token; in >> token;) {
      tokens.push_back(token);
    }
  }
  ASSERT_EQ(tokens.size(), 41u);
  for (std::size_t keep = 2; keep < tokens.size(); ++keep) {
    std::string truncated = tokens[0];
    for (std::size_t i = 1; i < keep; ++i) {
      truncated += ' ';
      truncated += tokens[i];
    }
    EXPECT_THROW((void)serve::match_response(truncated), serve::ProtoError)
        << "accepted after " << keep << " tokens: " << truncated;
  }
}

TEST(StatsProtoFuzz, VersionSkewIsRejected) {
  const std::string line = serve::format_response(reference_stats_response());
  for (const std::string version : {"0", "2", "999", "01", "one"}) {
    std::string skewed = line;
    skewed.replace(std::string("arl-serve ").size(), 1, version);
    EXPECT_THROW((void)serve::match_response(skewed), serve::ProtoError)
        << "accepted version " << version;
    EXPECT_THROW((void)serve::parse_request("arl-serve " + version + " stats"),
                 serve::ProtoError)
        << "accepted request version " << version;
  }
}

TEST(StatsProtoFuzz, GarbageCountersAreRejected) {
  // Replace each of the 26 numeric value positions in turn with tokens a
  // lenient strtoull-style reader might wave through: signs, floats,
  // hex, overflow, empty-adjacent doubled spaces.
  const std::string line = serve::format_response(reference_stats_response());
  std::vector<std::string> tokens;
  {
    std::istringstream in(line);
    for (std::string token; in >> token;) {
      tokens.push_back(token);
    }
  }
  const auto joined = [](const std::vector<std::string>& parts) {
    std::string all;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) {
        all += ' ';
      }
      all += parts[i];
    }
    return all;
  };
  const std::vector<std::string> garbage = {
      "x", "-1", "1.5", "+3", "18446744073709551616", "0x10", "12a", ""};
  for (std::size_t at = 3; at < tokens.size(); ++at) {
    const bool is_value = std::all_of(tokens[at].begin(), tokens[at].end(),
                                      [](char c) { return c >= '0' && c <= '9'; });
    if (!is_value) {
      continue;
    }
    for (const std::string& bad : garbage) {
      std::vector<std::string> mutated = tokens;
      mutated[at] = bad;
      EXPECT_THROW((void)serve::match_response(joined(mutated)), serve::ProtoError)
          << "accepted '" << bad << "' at token " << at;
    }
  }
}

TEST(StatsProtoFuzz, LabelCorruptionAndTrailingFieldsAreRejected) {
  const std::string line = serve::format_response(reference_stats_response());
  std::vector<std::string> tokens;
  {
    std::istringstream in(line);
    for (std::string token; in >> token;) {
      tokens.push_back(token);
    }
  }
  const auto joined = [](const std::vector<std::string>& parts) {
    std::string all;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) {
        all += ' ';
      }
      all += parts[i];
    }
    return all;
  };
  // Corrupt each label token (uppercase first letter — same length, wrong
  // spelling) and drop each label token.
  for (std::size_t at = 3; at < tokens.size(); ++at) {
    const bool is_value = std::all_of(tokens[at].begin(), tokens[at].end(),
                                      [](char c) { return c >= '0' && c <= '9'; });
    if (is_value) {
      continue;
    }
    std::vector<std::string> corrupted = tokens;
    corrupted[at][0] = static_cast<char>(corrupted[at][0] - 'a' + 'A');
    EXPECT_THROW((void)serve::match_response(joined(corrupted)), serve::ProtoError)
        << "accepted corrupted label at token " << at;
    std::vector<std::string> dropped = tokens;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(at));
    EXPECT_THROW((void)serve::match_response(joined(dropped)), serve::ProtoError)
        << "accepted dropped label at token " << at;
  }
  // Trailing fields on either direction.
  EXPECT_THROW((void)serve::match_response(line + " 0"), serve::ProtoError);
  EXPECT_THROW((void)serve::match_response(line + " uptime-ms 1"), serve::ProtoError);
  EXPECT_THROW((void)serve::parse_request("arl-serve 1 stats extra"), serve::ProtoError);
  EXPECT_THROW((void)serve::parse_request("arl-serve 1 stats "), serve::ProtoError);
}

TEST(StatsProtoFuzz, RandomSnapshotsRoundTrip) {
  // Property pass: arbitrary counter values (including the 0 and max
  // extremes the reference line avoids) survive the wire exactly.
  support::Rng rng(0x57A7);
  const auto value = [&rng]() -> std::uint64_t {
    switch (rng.below(4)) {
      case 0:
        return 0;
      case 1:
        return rng.below(100);
      case 2:
        return rng.next();
      default:
        return ~std::uint64_t{0};
    }
  };
  for (int trial = 0; trial < 2'000; ++trial) {
    serve::Response response;
    response.kind = serve::Response::Kind::Stats;
    serve::ServerStats& s = response.stats;
    s.uptime_ms = value();
    s.queued = value();
    s.active = value();
    s.sessions = value();
    s.accepted = value();
    s.completed = value();
    s.failed = value();
    s.busy_rejections = value();
    s.drain_rejections = value();
    s.protocol_errors = value();
    s.cache = {value(), value(), value()};
    s.store = {value(), value(), value()};
    s.queue_wait = {value(), value(), value(), value()};
    s.dispatch = {value(), value(), value(), value()};
    const auto matched = serve::match_response(serve::format_response(response));
    ASSERT_TRUE(matched.has_value()) << "trial " << trial;
    ASSERT_EQ(*matched, response) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006, 7007, 8008,
                                           9009, 10010));

}  // namespace
