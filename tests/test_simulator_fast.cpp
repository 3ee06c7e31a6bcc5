/// \file test_simulator_fast.cpp
/// Differential suite for the simulator's event-driven fast path: the
/// bitset engine, with its sparse histories and per-node round calendar,
/// must produce RunResults bit-identical to the dense scalar reference
/// loop — same per-node outcomes including full histories, same
/// RunStats including the injected-event counters — across channel models,
/// wake policies, history windows, every fault adversary, protocols (with
/// and without listen_streak, including streaks that a reception cuts short
/// or that outlast the horizon), scratch reuse, and batches whose jobs select
/// either loop at several thread counts.  Traced runs must emit the same
/// callback log, argument for argument, on both loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/randomized.hpp"
#include "config/configuration.hpp"
#include "config/families.hpp"
#include "config/mutations.hpp"
#include "core/canonical_drip.hpp"
#include "core/schedule.hpp"
#include "engine/batch_runner.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/sweep.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "radio/simulator.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;

/// Full bit-identity over two runs: everything RunResult exposes.
void expect_same_run(const radio::RunResult& scalar, const radio::RunResult& bitset,
                     const std::string& what) {
  ASSERT_EQ(scalar.nodes.size(), bitset.nodes.size()) << what;
  EXPECT_EQ(scalar.rounds_executed, bitset.rounds_executed) << what;
  EXPECT_EQ(scalar.all_terminated, bitset.all_terminated) << what;
  EXPECT_TRUE(scalar.stats == bitset.stats) << what;
  for (std::size_t v = 0; v < scalar.nodes.size(); ++v) {
    const radio::NodeOutcome& a = scalar.nodes[v];
    const radio::NodeOutcome& b = bitset.nodes[v];
    const std::string node_what = what + ", node " + std::to_string(v);
    EXPECT_EQ(a.wake_round, b.wake_round) << node_what;
    EXPECT_EQ(a.forced_wake, b.forced_wake) << node_what;
    EXPECT_EQ(a.terminated, b.terminated) << node_what;
    EXPECT_EQ(a.done_round, b.done_round) << node_what;
    EXPECT_EQ(a.elected, b.elected) << node_what;
    EXPECT_EQ(a.crashed, b.crashed) << node_what;
    EXPECT_EQ(a.awake_rounds, b.awake_rounds) << node_what;
    EXPECT_EQ(a.transmissions, b.transmissions) << node_what;
    EXPECT_EQ(a.history_dropped, b.history_dropped) << node_what;
    ASSERT_EQ(a.history.size(), b.history.size()) << node_what;
    for (std::size_t t = 0; t < a.history.size(); ++t) {
      EXPECT_TRUE(a.history[t] == b.history[t]) << node_what << ", entry " << t;
    }
  }
}

/// The 8 option variants the suite crosses for every (configuration, drip):
/// {CD, NoCD} x {HearAll, SilentWake} x {unwindowed, windowed}.  The
/// windowed variant evicts aggressively but never below the drip's own
/// declared minimum — a smaller window would violate the program's history
/// contract, which is a caller bug, not an engine difference.
std::vector<radio::SimulatorOptions> option_variants(const radio::Drip& drip,
                                                     std::uint64_t coin_seed) {
  const std::size_t window = std::max<std::size_t>(3, drip.history_window().value_or(0));
  std::vector<radio::SimulatorOptions> variants;
  for (const radio::ChannelModel model :
       {radio::ChannelModel::CollisionDetection, radio::ChannelModel::NoCollisionDetection}) {
    for (const radio::WakePolicy policy :
         {radio::WakePolicy::HearAll, radio::WakePolicy::SilentWake}) {
      for (const bool windowed : {false, true}) {
        radio::SimulatorOptions options;
        options.channel_model = model;
        options.wake_policy = policy;
        // 0 retains everything, even for drips that declare a window.
        options.history_window = windowed ? window : 0;
        options.coin_seed = coin_seed;
        variants.push_back(options);
      }
    }
  }
  return variants;
}

/// The adversaries every option variant is crossed with: the reliable
/// channel plus one active spec per fault kind, so each injection branch of
/// the bitset loop (channel dice, crash-stops, staggered wakeups) meets the
/// reference loop.
const std::vector<fault::FaultSpec>& differential_faults() {
  static const std::vector<fault::FaultSpec> faults = {
      fault::FaultSpec::none(),
      fault::parse_fault("drop:0.2"),
      fault::parse_fault("corrupt:0.2"),
      fault::parse_fault("crash:2"),
      fault::parse_fault("adversarial-wake:4"),
  };
  return faults;
}

std::string describe(const radio::SimulatorOptions& options) {
  std::string out =
      options.channel_model == radio::ChannelModel::CollisionDetection ? "cd" : "nocd";
  out += options.wake_policy == radio::WakePolicy::HearAll ? "/hearall" : "/silentwake";
  out += options.history_window == std::size_t{0} ? "/full" : "/windowed";
  return out + "/" + options.fault.spec.name();
}

/// Injected-event totals over a suite's runs, so a suite can assert that
/// every injection branch actually fired.
struct InjectedTotals {
  std::uint64_t drops = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t crashes = 0;
  std::uint64_t delayed_wakeups = 0;

  void add(const radio::RunStats& stats) {
    drops += stats.injected_drops;
    corruptions += stats.injected_corruptions;
    crashes += stats.injected_crashes;
    delayed_wakeups += stats.delayed_wakeups;
  }

  void expect_all_fired() const {
    EXPECT_GT(drops, 0u);
    EXPECT_GT(corruptions, 0u);
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(delayed_wakeups, 0u);
  }
};

/// Every option variant crossed with every differential fault: the
/// variants `expect_differential` and the trace parity test run, all with
/// horizon `max_rounds`.
std::vector<radio::SimulatorOptions> faulted_variants(
    const radio::Drip& drip, std::uint64_t coin_seed,
    config::Round max_rounds = radio::SimulatorOptions{}.max_rounds) {
  std::vector<radio::SimulatorOptions> variants;
  for (const fault::FaultSpec& spec : differential_faults()) {
    for (radio::SimulatorOptions options : option_variants(drip, coin_seed)) {
      options.fault = {spec, /*seed=*/coin_seed};
      options.max_rounds = max_rounds;
      variants.push_back(options);
    }
  }
  return variants;
}

/// Runs every faulted variant through both engines (fresh scratches) and
/// asserts bit-identity; adds the bitset runs' injected events to `totals`.
void expect_differential(const config::Configuration& configuration, const radio::Drip& drip,
                         std::uint64_t coin_seed, const std::string& what,
                         InjectedTotals* totals = nullptr,
                         config::Round max_rounds = radio::SimulatorOptions{}.max_rounds) {
  for (radio::SimulatorOptions options : faulted_variants(drip, coin_seed, max_rounds)) {
    radio::SimulatorScratch scalar_scratch;
    radio::SimulatorScratch bitset_scratch;
    options.engine = radio::SimulatorEngine::Scalar;
    const radio::RunResult scalar = radio::simulate(configuration, drip, options, scalar_scratch);
    options.engine = radio::SimulatorEngine::Bitset;
    const radio::RunResult bitset = radio::simulate(configuration, drip, options, bitset_scratch);
    expect_same_run(scalar, bitset, what + " [" + describe(options) + "]");
    if (totals != nullptr) {
      totals->add(bitset.stats);
    }
  }
}

/// Trace sink that logs all five callbacks with every argument, one line
/// per event in emission order.
class CallbackLog final : public radio::TraceSink {
 public:
  void on_round_begin(config::Round global_round) override { log("begin", global_round); }
  void on_wake(graph::NodeId v, config::Round global_round, bool forced,
               radio::HistoryEntry h0) override {
    log("wake", v, global_round, forced, h0.to_string());
  }
  void on_action(graph::NodeId v, config::Round global_round, config::Round local_round,
                 const radio::Action& action) override {
    log("action", v, global_round, local_round, static_cast<int>(action.kind), action.message);
  }
  void on_reception(graph::NodeId v, config::Round global_round,
                    radio::HistoryEntry entry) override {
    log("reception", v, global_round, entry.to_string());
  }
  void on_round_end(config::Round global_round) override { log("end", global_round); }

  [[nodiscard]] const std::vector<std::string>& events() const { return events_; }

 private:
  template <typename... Fields>
  void log(const Fields&... fields) {
    std::ostringstream line;
    ((line << fields << ' '), ...);
    events_.push_back(line.str());
  }

  std::vector<std::string> events_;
};

/// Runs every faulted variant traced on both engines and asserts identical
/// callback logs, plus results identical to the untraced bitset run (a
/// sink observes; it never changes the outcome).
void expect_trace_parity(const config::Configuration& configuration, const radio::Drip& drip,
                         std::uint64_t coin_seed, const std::string& what,
                         config::Round max_rounds = radio::SimulatorOptions{}.max_rounds) {
  for (radio::SimulatorOptions options : faulted_variants(drip, coin_seed, max_rounds)) {
    const std::string variant = what + " [" + describe(options) + "]";
    options.engine = radio::SimulatorEngine::Bitset;
    const radio::RunResult untraced = radio::simulate(configuration, drip, options);

    CallbackLog scalar_log;
    options.engine = radio::SimulatorEngine::Scalar;
    options.trace = &scalar_log;
    const radio::RunResult scalar = radio::simulate(configuration, drip, options);

    CallbackLog bitset_log;
    options.engine = radio::SimulatorEngine::Bitset;
    options.trace = &bitset_log;
    const radio::RunResult bitset = radio::simulate(configuration, drip, options);

    expect_same_run(scalar, bitset, variant);
    expect_same_run(untraced, bitset, variant + " untraced");
    ASSERT_EQ(scalar_log.events(), bitset_log.events()) << variant;
  }
}

/// Promises long listen streaks yet reacts to what it hears: hearing a
/// message or noise in H[i-1] makes decide(i) echo it (a message as its
/// payload + 1, noise as 100), at most `echoes` times.  Its streaks are
/// exact "given silence", so the engine must ask listen_streak() again after
/// every reception; one that kept the old streak would miss the echo.
class ReactiveDrip final : public radio::Drip {
 public:
  ReactiveDrip(config::Round fire, config::Round lifetime, unsigned echoes)
      : fire_(fire), lifetime_(lifetime), echoes_(echoes) {}

  std::unique_ptr<radio::NodeProgram> instantiate(const radio::NodeEnv&) const override {
    class Program final : public radio::NodeProgram {
     public:
      Program(config::Round fire, config::Round lifetime, unsigned echoes)
          : fire_(fire), lifetime_(lifetime), echoes_left_(echoes) {}

      radio::Action decide(config::Round i, const radio::HistoryView& history) override {
        if (i >= lifetime_) {
          return radio::Action::terminate();
        }
        const radio::HistoryEntry heard = history.last();
        if (!heard.is_silence() && echoes_left_ > 0) {
          --echoes_left_;
          return radio::Action::transmit(heard.is_message() ? heard.payload() + 1 : 100);
        }
        return i == fire_ ? radio::Action::transmit(1) : radio::Action::listen();
      }

      config::Round listen_streak(config::Round i, const radio::HistoryView& history) override {
        if (!history.last().is_silence() && echoes_left_ > 0) {
          return 0;
        }
        const config::Round stop = std::min(i <= fire_ ? fire_ : lifetime_, lifetime_);
        return stop - i;
      }

     private:
      config::Round fire_;
      config::Round lifetime_;
      unsigned echoes_left_;
    };
    return std::make_unique<Program>(fire_, lifetime_, echoes_);
  }
  std::string name() const override { return "reactive"; }

 private:
  config::Round fire_;
  config::Round lifetime_;
  unsigned echoes_;
};

/// Transmits once in local round `fire` and answers the first message or
/// noise it hears, but never terminates: after that its listen streak runs
/// far past any horizon, so a run ends with pending streaks cut short.
class EndlessStreakDrip final : public radio::Drip {
 public:
  explicit EndlessStreakDrip(config::Round fire) : fire_(fire) {}

  std::unique_ptr<radio::NodeProgram> instantiate(const radio::NodeEnv&) const override {
    class Program final : public radio::NodeProgram {
     public:
      explicit Program(config::Round fire) : fire_(fire) {}

      radio::Action decide(config::Round i, const radio::HistoryView& history) override {
        if (!history.last().is_silence() && !answered_) {
          answered_ = true;
          return radio::Action::transmit(7);
        }
        return i == fire_ ? radio::Action::transmit(3) : radio::Action::listen();
      }

      config::Round listen_streak(config::Round i, const radio::HistoryView& history) override {
        if (!history.last().is_silence() && !answered_) {
          return 0;
        }
        return i <= fire_ ? fire_ - i : std::numeric_limits<config::Round>::max();
      }

     private:
      config::Round fire_;
      bool answered_ = false;
    };
    return std::make_unique<Program>(fire_);
  }
  std::string name() const override { return "endless-streak"; }

 private:
  config::Round fire_;
};

/// A compiled canonical drip for `configuration` (robust mismatch policy, so
/// windowed runs that starve the program of history terminate cleanly
/// instead of asserting).
std::unique_ptr<core::CanonicalDrip> canonical_for(const config::Configuration& configuration,
                                                   radio::ChannelModel model) {
  return std::make_unique<core::CanonicalDrip>(core::make_schedule(configuration, model),
                                               core::MismatchPolicy::Robust);
}

config::Configuration random_configuration(support::Rng& rng) {
  const auto n = static_cast<graph::NodeId>(2 + rng.next() % 9);  // 2..10
  const double p = 0.15 + 0.1 * static_cast<double>(rng.next() % 8);
  const auto sigma = static_cast<config::Tag>(rng.next() % 7);
  graph::Graph graph = graph::gnp_connected(n, p, rng);
  if (sigma == 0) {
    return config::Configuration(std::move(graph),
                                 std::vector<config::Tag>(n, config::Tag{0}));
  }
  return config::random_tags_with_span(std::move(graph), sigma, rng);
}

// ---------------------------------------------------------------- exhaustive

TEST(SimulatorFast, ExhaustiveSmallConfigurationsBeacon) {
  // Every connected 3-node configuration with tags in [0, 2], and every
  // connected 4-node configuration with tags in [0, 1]: the beacon drip
  // fires early, so these runs are dense in forced wakeups and collisions.
  for (const auto& [n, tau] : std::vector<std::pair<graph::NodeId, config::Tag>>{{3, 2}, {4, 1}}) {
    const std::vector<engine::BatchJob> jobs = engine::exhaustive_jobs(n, tau);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const testkit::BeaconDrip beacon(1 + i % 3, /*payload=*/7, /*lifetime=*/6);
      expect_differential(jobs[i].configuration, beacon, /*coin_seed=*/i,
                          "exhaustive n=" + std::to_string(n) + " #" + std::to_string(i));
    }
  }
}

TEST(SimulatorFast, ExhaustiveSmallConfigurationsCanonical) {
  // The canonical DRIP over the full 3-node census: the protocol whose
  // listen_streak() drives the fast path's per-node calendar.
  const std::vector<engine::BatchJob> jobs = engine::exhaustive_jobs(3, 2);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (const radio::ChannelModel model :
         {radio::ChannelModel::CollisionDetection, radio::ChannelModel::NoCollisionDetection}) {
      const auto drip = canonical_for(jobs[i].configuration, model);
      expect_differential(jobs[i].configuration, *drip, /*coin_seed=*/i,
                          "exhaustive canonical #" + std::to_string(i));
    }
  }
}

// -------------------------------------------------------------- random fuzz

TEST(SimulatorFast, RandomConfigurationsFuzz) {
  // 10000 random configurations (n in [2, 10], random density, span in
  // [0, 6] including the all-equal-tags symmetric case), rotating through
  // the protocol zoo: beacons (collisions + forced wakeups), silence
  // (termination discipline), the coin-flipping randomized baseline (the
  // coin-seed cache), and the canonical DRIP (listen_streak schedules).
  // Each runs under all 8 option variants, each crossed with the reliable
  // channel and four active adversaries, on both engines.
  constexpr std::size_t kConfigs = 10000;
  support::Rng rng(20260808);
  InjectedTotals totals;
  for (std::size_t i = 0; i < kConfigs; ++i) {
    const config::Configuration configuration = random_configuration(rng);
    const std::string what = "fuzz #" + std::to_string(i);
    switch (i % 16) {
      case 0: {
        // Canonical DRIP every 16th config (schedule compilation is the
        // expensive part, and the exhaustive census above already covers it
        // densely on small n).
        const auto drip =
            canonical_for(configuration, radio::ChannelModel::CollisionDetection);
        expect_differential(configuration, *drip, i, what + " canonical", &totals);
        break;
      }
      case 1: {
        const testkit::SilentDrip silent(2 + i % 5);
        expect_differential(configuration, silent, i, what + " silent", &totals);
        break;
      }
      case 2:
      case 3: {
        const baselines::RandomizedElection randomized(/*max_slots=*/64);
        expect_differential(configuration, randomized, i, what + " randomized", &totals);
        break;
      }
      default: {
        const testkit::BeaconDrip beacon(1 + i % 4, /*payload=*/1 + i % 3,
                                         /*lifetime=*/5 + i % 7);
        expect_differential(configuration, beacon, i, what + " beacon", &totals);
        break;
      }
    }
  }
  totals.expect_all_fired();
}

// ------------------------------------------------------ per-node streaks

TEST(SimulatorFast, ReceptionsCallTheNodeBackForAFreshStreak) {
  // The bitset loop visits a node only when its streak runs out, unless it
  // hears a message or noise first.  The reactive drip echoes what it
  // hears although its streak promised silence; the endless-streak drip
  // leaves streaks pending past the horizon.  Every other reactive drip
  // fires and lives past the calendar's 64-round ring, so its streaks wait
  // in the heap, and every fourth echoes up to 40 times, so windowed
  // histories shed events.  Every tenth configuration also runs the
  // canonical DRIP with a tag span of 20-40, whose phases outlast the
  // ring.  All must match the reference under every option variant and
  // adversary, untraced and traced.
  support::Rng rng(20261018);
  InjectedTotals totals;
  for (std::size_t i = 0; i < 150; ++i) {
    const config::Configuration configuration = random_configuration(rng);
    const std::string what = "streak #" + std::to_string(i);
    const config::Round far = i % 2 == 1 ? 70 : 0;
    const ReactiveDrip reactive(1 + i % 5 + far, 12 + i % 9 + 2 * far,
                                i % 4 == 3 ? 40 : 1 + i % 3);
    expect_differential(configuration, reactive, i, what + " reactive", &totals);
    const EndlessStreakDrip endless(1 + i % 4);
    expect_differential(configuration, endless, i, what + " endless", &totals,
                        /*max_rounds=*/40);
    if (i % 5 == 0) {
      expect_trace_parity(configuration, reactive, i, what + " reactive");
      expect_trace_parity(configuration, endless, i, what + " endless", /*max_rounds=*/40);
    }
    if (i % 10 == 0) {
      const auto span = static_cast<config::Tag>(20 + i % 21);
      const config::Configuration wide = config::random_tags_with_span(
          graph::gnp_connected(configuration.size(), 0.4, rng), span, rng);
      const auto drip = canonical_for(wide, radio::ChannelModel::CollisionDetection);
      expect_differential(wide, *drip, i, what + " canonical span " + std::to_string(span),
                          &totals);
    }
  }
  totals.expect_all_fired();

  // On a 2-node path the echoes ping-pong: node 0 fires in round 3, which
  // force-wakes node 1, and each then answers the other until its three
  // echoes run out — six transmissions no streak predicted.
  const config::Configuration path(graph::path(2), {0, 9});
  const ReactiveDrip reactive(3, 20, 3);
  const radio::RunResult run = radio::simulate(path, reactive);
  EXPECT_EQ(run.stats.transmissions, 7u);
  EXPECT_EQ(run.stats.clean_receptions, 6u);
  expect_differential(path, reactive, 0, "ping-pong");
}

// ----------------------------------------------------------------- horizon

TEST(SimulatorFast, HorizonGuardParity) {
  // The immortal drip never terminates: both engines must abort at the
  // horizon with identical truncated results.
  const config::Configuration configuration = config::staggered_path(5);
  const testkit::ImmortalDrip immortal;
  for (radio::SimulatorOptions options : option_variants(immortal, /*coin_seed=*/3)) {
    options.max_rounds = 50;
    radio::SimulatorScratch scalar_scratch;
    radio::SimulatorScratch bitset_scratch;
    options.engine = radio::SimulatorEngine::Scalar;
    const radio::RunResult scalar =
        radio::simulate(configuration, immortal, options, scalar_scratch);
    options.engine = radio::SimulatorEngine::Bitset;
    const radio::RunResult bitset =
        radio::simulate(configuration, immortal, options, bitset_scratch);
    EXPECT_FALSE(scalar.all_terminated);
    expect_same_run(scalar, bitset, "horizon [" + describe(options) + "]");
  }
}

// ------------------------------------------------------------ trace parity

TEST(SimulatorFast, TracedRunsEmitIdenticalCallbackLogs) {
  // A trace sink makes the bitset loop step every round (no calendar, no
  // all-asleep jump) and emit callbacks in the reference order: round
  // begin, actions by node id, wakes and receptions by node id, round end.
  // The full logs must match under every option variant and adversary, for
  // beacons (collisions, forced wakeups), the randomized baseline and the
  // canonical DRIP (the protocol `arl trace` replays).
  support::Rng rng(20261017);
  for (std::size_t i = 0; i < 120; ++i) {
    const config::Configuration configuration = random_configuration(rng);
    const std::string what = "traced #" + std::to_string(i);
    switch (i % 4) {
      case 0: {
        const auto drip = canonical_for(configuration, radio::ChannelModel::CollisionDetection);
        expect_trace_parity(configuration, *drip, i, what + " canonical");
        break;
      }
      case 1: {
        const baselines::RandomizedElection randomized(/*max_slots=*/64);
        expect_trace_parity(configuration, randomized, i, what + " randomized");
        break;
      }
      default: {
        const testkit::BeaconDrip beacon(1 + i % 4, /*payload=*/1 + i % 3,
                                         /*lifetime=*/5 + i % 7);
        expect_trace_parity(configuration, beacon, i, what + " beacon");
        break;
      }
    }
  }
}

// ------------------------------------------------------------ scratch reuse

TEST(SimulatorFast, ScratchReuseStaysBitIdentical) {
  // One scratch driven through an interleaved sequence of configurations,
  // sizes, drips and seeds — every run must equal the same run on a fresh
  // scratch.  This is the engine-worker usage pattern (one scratch, many
  // jobs) plus the repeated-run pattern (same config twice in a row).
  support::Rng rng(99);
  std::vector<config::Configuration> configurations;
  for (int i = 0; i < 6; ++i) {
    configurations.push_back(random_configuration(rng));
  }
  radio::SimulatorScratch reused;
  for (const radio::SimulatorEngine engine :
       {radio::SimulatorEngine::Scalar, radio::SimulatorEngine::Bitset}) {
    int step = 0;
    for (const std::size_t index : {0u, 1u, 0u, 2u, 3u, 3u, 4u, 5u, 0u}) {
      const config::Configuration& configuration = configurations[index];
      const testkit::BeaconDrip beacon(1 + step % 3, 5, 6);
      radio::SimulatorOptions options;
      options.engine = engine;
      options.coin_seed = static_cast<std::uint64_t>(step);
      const radio::RunResult with_reuse = radio::simulate(configuration, beacon, options, reused);
      radio::SimulatorScratch fresh;
      const radio::RunResult with_fresh = radio::simulate(configuration, beacon, options, fresh);
      expect_same_run(with_fresh, with_reuse,
                      "scratch reuse step " + std::to_string(step) +
                          (engine == radio::SimulatorEngine::Scalar ? " scalar" : " bitset"));
      ++step;
    }
  }
}

// ------------------------------------------------------- keep_histories off

TEST(SimulatorFast, DroppedHistoriesPreserveEverythingElse) {
  // keep_histories = false empties the returned histories but must keep
  // history_length() and every other field identical, on both engines.
  support::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const config::Configuration configuration = random_configuration(rng);
    const testkit::BeaconDrip beacon(1 + i % 3, 2, 5 + i % 4);
    for (const radio::SimulatorEngine engine :
         {radio::SimulatorEngine::Scalar, radio::SimulatorEngine::Bitset}) {
      radio::SimulatorOptions options;
      options.engine = engine;
      const radio::RunResult kept = radio::simulate(configuration, beacon, options);
      options.keep_histories = false;
      const radio::RunResult dropped = radio::simulate(configuration, beacon, options);
      ASSERT_EQ(kept.nodes.size(), dropped.nodes.size());
      EXPECT_EQ(kept.rounds_executed, dropped.rounds_executed);
      EXPECT_EQ(kept.all_terminated, dropped.all_terminated);
      EXPECT_TRUE(kept.stats == dropped.stats);
      for (std::size_t v = 0; v < kept.nodes.size(); ++v) {
        EXPECT_TRUE(dropped.nodes[v].history.empty());
        EXPECT_EQ(kept.nodes[v].history_length(), dropped.nodes[v].history_length());
        EXPECT_EQ(kept.nodes[v].wake_round, dropped.nodes[v].wake_round);
        EXPECT_EQ(kept.nodes[v].forced_wake, dropped.nodes[v].forced_wake);
        EXPECT_EQ(kept.nodes[v].terminated, dropped.nodes[v].terminated);
        EXPECT_EQ(kept.nodes[v].done_round, dropped.nodes[v].done_round);
        EXPECT_EQ(kept.nodes[v].elected, dropped.nodes[v].elected);
      }
    }
  }
}

// ------------------------------------------------------------- batch engine

TEST(SimulatorFast, EnginesProduceSameBatchResultsAcrossThreadCounts) {
  // The engine layer: a mixed-protocol sweep whose jobs select the scalar
  // reference loop or the bitset fast path, at 1, 2 and 8 worker threads
  // (with and without the schedule cache), must agree on every outcome and
  // aggregate.
  const engine::WorkloadSpec workload = engine::parse_workload("random:n=8,p=0.3,sigma=3");
  const engine::CountedSweep sweep = workload.instantiate(
      /*seed=*/17,
      {core::ProtocolSpec::canonical(), core::ProtocolSpec::randomized()},
      {.count = 48});

  std::optional<engine::BatchReport> reference;
  for (const radio::SimulatorEngine simulator :
       {radio::SimulatorEngine::Scalar, radio::SimulatorEngine::Bitset}) {
    const engine::JobSource source = testkit::with_simulator_engine(sweep.source, simulator);
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const std::size_t cache : {std::size_t{0}, engine::ScheduleCache::kDefaultCapacity}) {
        engine::BatchRunner runner({.threads = threads, .seed = 17, .cache_capacity = cache});
        const engine::BatchReport report = runner.run(sweep.count, source);
        if (!reference) {
          reference = report;
          continue;
        }
        EXPECT_TRUE(engine::same_results(*reference, report))
            << "simulator " << static_cast<int>(simulator) << ", threads " << threads
            << ", cache " << cache;
      }
    }
  }
}

TEST(SimulatorFast, MutationSweepEngineParityAtN64) {
  // The E5 benchmark shape in miniature: single-tag mutations of an n=64
  // configuration with a large tag span, where the bitset path's calendar
  // skips almost every round.  Scalar and bitset jobs must carry
  // identical results.
  support::Rng rng(4242);
  const config::Configuration base =
      config::random_tags_with_span(graph::gnp_connected(64, 0.1, rng), 256, rng);
  const std::vector<config::Configuration> neighbourhood =
      config::all_tag_mutations(base, base.span());
  std::vector<engine::BatchJob> jobs;
  for (std::size_t i = 0; i < neighbourhood.size() && jobs.size() < 12; i += 997) {
    jobs.push_back({neighbourhood[i], core::ProtocolSpec::canonical(), {}});
  }
  ASSERT_FALSE(jobs.empty());

  std::optional<engine::BatchReport> reference;
  for (const radio::SimulatorEngine simulator :
       {radio::SimulatorEngine::Scalar, radio::SimulatorEngine::Bitset}) {
    for (engine::BatchJob& job : jobs) {
      job.options.simulator.engine = simulator;
    }
    engine::BatchRunner runner(
        {.threads = 2, .seed = 5, .cache_capacity = engine::ScheduleCache::kDefaultCapacity});
    const engine::BatchReport report = runner.run(jobs);
    if (!reference) {
      reference = report;
    } else {
      EXPECT_TRUE(engine::same_results(*reference, report));
    }
  }
}

}  // namespace
