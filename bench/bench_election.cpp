/// \file bench_election.cpp
/// E3 (Lemma 3.10 / Theorem 3.15): canonical-DRIP election time in rounds
/// against the O(n²σ) bound, across topologies, sizes and spans — plus E3b,
/// the engine experiment (wall-time of a 1000-configuration sweep through
/// the serial elect() loop versus the batch election engine), E3c, a
/// mixed-protocol engine batch putting the canonical Θ(n²σ) election time
/// next to the O(log n) labeled baselines on single-hop configurations,
/// E5, the engine trajectory (scalar reference loop vs the wavefront engine
/// on a steady-state mutation sweep at n=64, emitted as machine-readable
/// BENCH_E5.json and gated in CI by tools/bench_gate), and E5b, the
/// distributed pipeline (shard → serialize → merge) against the same sweep
/// in one process.  E3's deterministic rows land in BENCH_E3.json.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "config/families.hpp"
#include "config/mutations.hpp"
#include "core/canonical_drip.hpp"
#include "core/election.hpp"
#include "core/schedule.hpp"
#include "dist/merge.hpp"
#include "dist/report_io.hpp"
#include "dist/shard.hpp"
#include "engine/batch_runner.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/sweep.hpp"
#include "engine/workload.hpp"
#include "graph/generators.hpp"
#include "radio/simulator.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace arl;

double bound_ratio(std::uint64_t local_rounds, graph::NodeId n, config::Tag sigma) {
  // Lemma 3.10's explicit envelope: ceil(n/2) phases x (n(2σ+1)+σ) rounds.
  const double bound = ((n + 1.0) / 2.0) * (n * (2.0 * sigma + 1.0) + sigma) + 1.0;
  return static_cast<double>(local_rounds) / bound;
}

void print_e3_table() {
  // The workload list, materialized once; the engine executes it as a batch
  // and the table is read off the per-job outcomes.
  std::vector<std::string> names;
  std::vector<std::string> slugs;
  std::vector<engine::BatchJob> jobs;
  support::Rng rng(2027);
  auto add = [&](const std::string& name, const std::string& slug, config::Configuration c) {
    names.push_back(name);
    slugs.push_back(slug);
    jobs.push_back({std::move(c), core::ProtocolSpec::canonical(), {}});
  };

  for (const config::Tag m : {2u, 4u, 8u, 16u, 32u}) {
    add("G_m path", std::string("g") + std::to_string(m), config::family_g(m));
  }
  for (const config::Tag m : {2u, 8u, 32u, 128u}) {
    add("H_m", std::string("h") + std::to_string(m), config::family_h(m));
  }
  for (const graph::NodeId n : {8u, 16u, 32u, 64u}) {
    add("staggered path", std::string("staggered") + std::to_string(n), config::staggered_path(n));
  }
  for (const graph::NodeId n : {8u, 16u, 32u}) {
    add("random gnp(0.3) sigma=3", std::string("gnp") + std::to_string(n),
        config::random_tags_with_span(graph::gnp_connected(n, 0.3, rng), 3, rng));
  }
  for (const graph::NodeId n : {9u, 16u, 25u}) {
    const auto side = static_cast<graph::NodeId>(n == 9 ? 3 : n == 16 ? 4 : 5);
    add("grid sigma=2", std::string("grid") + std::to_string(n),
        config::random_tags_with_span(graph::grid(side, side), 2, rng));
  }

  engine::BatchRunner runner;
  const engine::BatchReport report = runner.run(jobs);

  // Every row's rounds and feasibility is a pure function of the fixed seeds
  // above, so the snapshot's fields are exact-match material for bench_gate:
  // a drift in any of them is a semantic change, not a perf regression.
  benchsupport::JsonSnapshot snapshot;
  snapshot.add("bench", std::string("E3"));
  support::Table table({"workload", "n", "sigma", "feasible", "phases", "local rounds",
                        "n^2*sigma", "rounds/bound"});
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const engine::JobOutcome& outcome = report.jobs[i];
    table.add_row({names[i], static_cast<std::int64_t>(outcome.nodes),
                   static_cast<std::int64_t>(outcome.span),
                   std::string(outcome.feasible ? "yes" : "no"),
                   static_cast<std::int64_t>(outcome.classifier_iterations),
                   static_cast<std::int64_t>(outcome.local_rounds),
                   static_cast<double>(outcome.nodes) * outcome.nodes *
                       std::max<config::Tag>(outcome.span, 1),
                   bound_ratio(outcome.local_rounds, outcome.nodes, outcome.span)});
    snapshot.add(slugs[i] + "_rounds", outcome.local_rounds);
    snapshot.add(slugs[i] + "_feasible", outcome.feasible);
  }
  benchsupport::print_table("E3 — canonical-DRIP election time vs the O(n^2*sigma) bound",
                            table);
  snapshot.write("BENCH_E3.json");
}

void print_e3b_table() {
  // The sweep behind the engine's reason to exist: 1000 random
  // configurations, serial elect() loop vs BatchRunner.
  constexpr engine::JobId kCount = 1000;
  constexpr std::uint64_t kSeed = 9;

  const engine::CountedSweep sweep = engine::WorkloadSpec::random(16, 0.3, 3).instantiate(
      kSeed, {core::ProtocolSpec::canonical()}, {.count = kCount});
  std::vector<engine::BatchJob> jobs;
  jobs.reserve(kCount);
  for (engine::JobId i = 0; i < kCount; ++i) {
    jobs.push_back(sweep.source(i));
  }

  support::Table table({"path", "threads", "wall ms", "configs/s", "speedup vs serial"});
  table.set_precision(2);
  double serial_millis = 0.0;
  {
    // Reference: the hand-rolled loop every consumer used before the engine.
    support::Stopwatch watch;
    std::uint64_t valid = 0;
    for (engine::JobId i = 0; i < kCount; ++i) {
      core::ElectionOptions options = jobs[i].options;
      options.simulator.coin_seed = engine::job_coin_seed(0, i);
      valid += core::elect(jobs[i].configuration, options).valid ? 1 : 0;
    }
    serial_millis = watch.millis();
    benchmark::DoNotOptimize(valid);
    table.add_row({std::string("serial elect() loop"), std::int64_t{1}, serial_millis,
                   static_cast<double>(kCount) / (serial_millis / 1e3), 1.0});
  }
  for (const unsigned threads : {1u, 0u}) {  // 0 = hardware concurrency
    engine::BatchRunner runner({.threads = threads});
    const engine::BatchReport report = runner.run(jobs);
    table.add_row({std::string(threads == 1 ? "engine, 1 thread" : "engine, all cores"),
                   static_cast<std::int64_t>(report.threads_used), report.wall_millis,
                   report.throughput(), serial_millis / report.wall_millis});
  }
  benchsupport::print_table(
      "E3b — 1000-configuration sweep (n=16, sigma=3): serial loop vs batch engine", table);
}

void print_e3c_table() {
  // The protocol axis head-to-head: one mixed-protocol engine batch, each
  // protocol on its natural single-hop instance — the canonical DRIP on
  // staggered wakeups (tags 0..n-1, so σ = n-1, and Lemma 3.10 charges
  // Θ(n²σ) rounds) against the labeled O(log n) baselines on simultaneous
  // wakeups with wakeup-order labels.
  const std::vector<graph::NodeId> sizes = {8, 16, 32, 64};
  std::vector<engine::BatchJob> jobs;
  for (const graph::NodeId n : sizes) {
    std::vector<config::Tag> staggered(n);
    std::iota(staggered.begin(), staggered.end(), config::Tag{0});
    jobs.push_back({config::single_hop(staggered), core::ProtocolSpec::canonical(), {}});
    const config::Configuration flat = config::single_hop(std::vector<config::Tag>(n, 0));
    jobs.push_back({flat, core::ProtocolSpec::binary_search(), {}});
    jobs.push_back({flat, core::ProtocolSpec::tree_split(), {}});
  }

  engine::BatchRunner runner;
  const engine::BatchReport report = runner.run(jobs);

  support::Table table({"n", "canonical rounds (sigma=n-1)", "binary-search rounds",
                        "tree-split rounds", "canonical/binary ratio"});
  table.set_precision(3);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const engine::JobOutcome& canonical = report.jobs[3 * i];
    const engine::JobOutcome& binary = report.jobs[3 * i + 1];
    const engine::JobOutcome& tree = report.jobs[3 * i + 2];
    table.add_row({static_cast<std::int64_t>(sizes[i]),
                   static_cast<std::int64_t>(canonical.local_rounds),
                   static_cast<std::int64_t>(binary.local_rounds),
                   static_cast<std::int64_t>(tree.local_rounds),
                   static_cast<double>(canonical.local_rounds) /
                       static_cast<double>(std::max<std::uint64_t>(binary.local_rounds, 1))});
  }
  benchsupport::print_table(
      "E3c — single-hop head-to-head (one engine batch): Theta(n^2*sigma) canonical vs "
      "O(log n) labeled election",
      table);

  support::Table throughput({"protocol", "jobs", "elected", "avg rounds", "max rounds",
                             "transmissions"});
  throughput.set_precision(3);
  for (const engine::ProtocolBreakdown& row : report.by_protocol) {
    throughput.add_row({row.protocol.name(), static_cast<std::int64_t>(row.jobs),
                        static_cast<std::int64_t>(row.elected), row.average_local_rounds(),
                        static_cast<std::int64_t>(row.max_local_rounds),
                        static_cast<std::int64_t>(row.stats.transmissions)});
  }
  benchsupport::print_table("E3c — per-protocol breakdown of the same batch", throughput);
}

void print_e4_table() {
  // The schedule cache's reason to exist: a deployment planner iterating on
  // a candidate network re-evaluates the same mutation neighbourhood on
  // every refinement step, and without the cache each pass re-classifies
  // (O(n³Δ)) and re-compiles every candidate from scratch.  Same jobs, same
  // outcomes (asserted by tests/test_schedule_cache.cpp) — only the compile
  // count and the wall time move.
  constexpr int kPasses = 3;
  support::Rng rng(4040);
  const config::Configuration base =
      config::random_tags_with_span(graph::gnp_connected(12, 0.3, rng), 3, rng);
  const std::vector<config::Configuration> neighbourhood =
      config::all_tag_mutations(base, base.span());

  std::vector<engine::BatchJob> jobs;
  jobs.reserve(static_cast<std::size_t>(kPasses) * neighbourhood.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const config::Configuration& candidate : neighbourhood) {
      jobs.push_back({candidate, core::ProtocolSpec::canonical(), {}});
    }
  }

  support::Table table({"path", "wall ms", "classifier runs", "schedule builds", "hit rate %",
                        "speedup"});
  table.set_precision(2);
  double uncached_millis = 0.0;
  {
    // One thread on both paths: with workers racing, duplicate compiles at
    // pass boundaries would smear the compile counts run to run; serial
    // execution pins them to exactly jobs vs neighbourhood size.
    engine::BatchRunner runner({.threads = 1});
    const engine::BatchReport report = runner.run(jobs);
    uncached_millis = report.wall_millis;
    table.add_row({std::string("uncached"), report.wall_millis,
                   static_cast<std::int64_t>(jobs.size()),
                   static_cast<std::int64_t>(jobs.size()), 0.0, 1.0});
  }
  {
    engine::BatchRunner runner(
        {.threads = 1, .cache_capacity = engine::ScheduleCache::kDefaultCapacity});
    const engine::BatchReport report = runner.run(jobs);
    const engine::ScheduleCacheStats stats = report.cache.value();
    table.add_row({std::string("cached"), report.wall_millis,
                   static_cast<std::int64_t>(stats.misses),
                   static_cast<std::int64_t>(stats.schedule_builds), 100.0 * stats.hit_rate(),
                   uncached_millis / report.wall_millis});
  }
  benchsupport::print_table(
      "E4 — mutation-sweep schedule cache (" + std::to_string(kPasses) + " passes over " +
          std::to_string(neighbourhood.size()) +
          " single-tag mutations): compiles per batch, cached vs uncached",
      table);
}

/// Counts the decide() calls of every program it instantiates (the
/// CountingRadio idiom of SNIPPETS.md Snippet 3): the protocol work a
/// simulation asks for, a count that does not move with the machine.
class CountingDrip final : public radio::Drip {
 public:
  CountingDrip(const radio::Drip& inner, std::uint64_t& decide_calls)
      : inner_(inner), decide_calls_(decide_calls) {}

  [[nodiscard]] std::unique_ptr<radio::NodeProgram> instantiate(
      const radio::NodeEnv& env) const override {
    class Program final : public radio::NodeProgram {
     public:
      Program(std::unique_ptr<radio::NodeProgram> inner, std::uint64_t& decide_calls)
          : inner_(std::move(inner)), decide_calls_(decide_calls) {}
      radio::Action decide(config::Round local_round, const radio::HistoryView& history) override {
        ++decide_calls_;
        return inner_->decide(local_round, history);
      }
      config::Round listen_streak(config::Round local_round,
                                  const radio::HistoryView& history) override {
        return inner_->listen_streak(local_round, history);
      }
      [[nodiscard]] bool elected() const override { return inner_->elected(); }

     private:
      std::unique_ptr<radio::NodeProgram> inner_;
      std::uint64_t& decide_calls_;
    };
    return std::make_unique<Program>(inner_.instantiate(env), decide_calls_);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::optional<std::size_t> history_window() const override {
    return inner_.history_window();
  }

 private:
  const radio::Drip& inner_;
  std::uint64_t& decide_calls_;
};

/// E5's sparse rows: the canonical DRIP simulated on the random shapes the
/// served benchmark and E7 run, where each node transmits once per phase
/// and listens the rest of the time.  Schedules are compiled up front, so
/// the rows time simulation alone, best of kReps per loop.  The work
/// counters are exact-gated; the speedup of the bitset loop over the
/// scalar reference is tolerance-gated.
void add_e5_sparse_rows(benchsupport::JsonSnapshot& snapshot) {
  struct Row {
    std::string key;
    std::string workload;
    engine::JobId count;
  };
  const std::vector<Row> rows = {{"sparse_n64", "random:n=64,p=0.1,sigma=64", 24},
                                 {"sparse_n256", "random:n=256,p=0.03,sigma=200", 4}};
  constexpr int kReps = 3;

  support::Table table({"workload", "jobs", "node-rounds", "global rounds", "transmissions",
                        "decide calls (bitset)", "scalar ms", "bitset ms", "speedup"});
  table.set_precision(3);
  for (const Row& row : rows) {
    const engine::CountedSweep sweep = engine::parse_workload(row.workload)
                                           .instantiate(/*seed=*/1,
                                                        {core::ProtocolSpec::canonical()},
                                                        {.count = row.count});
    std::vector<config::Configuration> configurations;
    std::vector<std::unique_ptr<core::CanonicalDrip>> drips;
    std::vector<config::Round> horizons;
    for (engine::JobId id = 0; id < sweep.count; ++id) {
      configurations.push_back(sweep.source(id).configuration);
      const config::Configuration& c = configurations.back();
      drips.push_back(std::make_unique<core::CanonicalDrip>(core::make_schedule(c)));
      const config::Tag max_tag = *std::max_element(c.tags().begin(), c.tags().end());
      horizons.push_back(
          static_cast<config::Round>(max_tag + drips.back()->schedule().total_rounds() + 2));
    }

    struct LoopRun {
      double millis = 0.0;
      std::uint64_t decide_calls = 0;
      radio::RunStats stats;
      std::uint64_t global_rounds = 0;
    };
    auto measure = [&](radio::SimulatorEngine simulator) {
      LoopRun best;
      for (int rep = 0; rep < kReps; ++rep) {
        LoopRun run;
        radio::SimulatorScratch scratch;
        const support::Stopwatch watch;
        for (std::size_t i = 0; i < configurations.size(); ++i) {
          const CountingDrip counted(*drips[i], run.decide_calls);
          radio::SimulatorOptions options;
          options.engine = simulator;
          options.max_rounds = horizons[i];
          options.keep_histories = false;
          const radio::RunResult result =
              radio::simulate(configurations[i], counted, options, scratch);
          run.global_rounds += result.rounds_executed;
          run.stats.node_rounds += result.stats.node_rounds;
          run.stats.transmissions += result.stats.transmissions;
          run.stats.clean_receptions += result.stats.clean_receptions;
          run.stats.collisions_heard += result.stats.collisions_heard;
        }
        run.millis = watch.millis();
        if (rep == 0 || run.millis < best.millis) {
          best = run;
        }
      }
      return best;
    };
    const LoopRun scalar = measure(radio::SimulatorEngine::Scalar);
    const LoopRun bitset = measure(radio::SimulatorEngine::Bitset);
    const bool identical = scalar.global_rounds == bitset.global_rounds &&
                           scalar.stats == bitset.stats;
    const double speedup = scalar.millis / std::max(bitset.millis, 1e-6);
    table.add_row({row.workload, static_cast<std::int64_t>(sweep.count),
                   static_cast<std::int64_t>(bitset.stats.node_rounds),
                   static_cast<std::int64_t>(bitset.global_rounds),
                   static_cast<std::int64_t>(bitset.stats.transmissions),
                   static_cast<std::int64_t>(bitset.decide_calls), scalar.millis, bitset.millis,
                   speedup});

    // Exact-match fields: pure functions of the workload seed, equal on
    // both loops (`identical`).  decide_calls is the bitset loop's own
    // work: it falls as the engine skips more, and a rise is a regression.
    snapshot.add(row.key + "_workload", row.workload);
    snapshot.add(row.key + "_jobs", static_cast<std::uint64_t>(sweep.count));
    snapshot.add(row.key + "_identical", identical);
    snapshot.add(row.key + "_node_rounds", bitset.stats.node_rounds);
    snapshot.add(row.key + "_global_rounds", bitset.global_rounds);
    snapshot.add(row.key + "_transmissions", bitset.stats.transmissions);
    snapshot.add(row.key + "_decide_calls", bitset.decide_calls);
    // Gated with bench_gate's tolerance; the raw times are informational.
    snapshot.add(row.key + "_speedup", speedup);
    snapshot.add(row.key + "_scalar_ms", scalar.millis);
    snapshot.add(row.key + "_bitset_ms", bitset.millis);
  }
  benchsupport::print_table(
      "E5 sparse rows — canonical DRIP simulation only, scalar reference vs bitset loop "
      "(schedules precompiled, best of " + std::to_string(kReps) + ")",
      table);
}

void print_e5_table() {
  // The engine trajectory: steady-state throughput of the scalar reference
  // loop vs the bitset fast path (the "wavefront" row and snapshot keys) on
  // a mutation sweep at n=64 — the planner
  // workload of E4, at the tag spans where simulation (not classification)
  // is the cost.  Each engine runs the same jobs twice, a 1-pass batch and
  // a (1+kPasses)-pass batch; their wall-time difference is kPasses times
  // the cache-warm steady-state cost, which cancels the one-off
  // classification+compile work every candidate pays identically on both
  // engines.  Outcome identity between the engines is asserted — the
  // speedup is only meaningful if the wavefront path computes the same
  // results bit for bit.
  constexpr graph::NodeId kNodes = 64;
  constexpr config::Tag kSigma = 2048;
  constexpr double kEdgeProbability = 0.1;
  constexpr std::size_t kMutations = 32;
  constexpr int kPasses = 4;

  support::Rng rng(4242);
  const config::Configuration base = config::random_tags_with_span(
      graph::gnp_connected(kNodes, kEdgeProbability, rng), kSigma, rng);
  const std::vector<config::Configuration> neighbourhood =
      config::all_tag_mutations(base, base.span());
  // Stride-sample the (very large) neighbourhood so the sampled candidates
  // spread over every node rather than exhausting node 0's tags first.
  std::vector<engine::BatchJob> cold_jobs;
  const std::size_t stride = std::max<std::size_t>(1, neighbourhood.size() / kMutations);
  for (std::size_t i = 0; i < neighbourhood.size() && cold_jobs.size() < kMutations;
       i += stride) {
    cold_jobs.push_back({neighbourhood[i], core::ProtocolSpec::canonical(), {}});
  }
  std::vector<engine::BatchJob> warm_jobs;
  for (int pass = 0; pass < 1 + kPasses; ++pass) {
    warm_jobs.insert(warm_jobs.end(), cold_jobs.begin(), cold_jobs.end());
  }

  struct EngineRun {
    double cold_millis = 0.0;
    double steady_millis = 0.0;  ///< (warm batch - cold batch) wall time
    engine::BatchReport report;  ///< the (1+kPasses)-pass batch
  };
  auto measure = [&](radio::SimulatorEngine simulator) {
    // One thread and the schedule cache on for both engines: the comparison
    // moves exactly one lever, the simulator loop every job selects.
    auto select = [simulator](std::vector<engine::BatchJob> jobs) {
      for (engine::BatchJob& job : jobs) {
        job.options.simulator.engine = simulator;
      }
      return jobs;
    };
    const std::vector<engine::BatchJob> cold = select(cold_jobs);
    const std::vector<engine::BatchJob> warm = select(warm_jobs);
    engine::BatchRunner runner(
        {.threads = 1, .cache_capacity = engine::ScheduleCache::kDefaultCapacity});
    EngineRun run;
    run.cold_millis = runner.run(cold).wall_millis;
    run.report = runner.run(warm);
    run.steady_millis = std::max(run.report.wall_millis - run.cold_millis, 1e-6);
    return run;
  };
  const EngineRun scalar = measure(radio::SimulatorEngine::Scalar);
  const EngineRun wavefront = measure(radio::SimulatorEngine::Bitset);
  const bool identical = engine::same_results(scalar.report, wavefront.report);

  const double steady_jobs = static_cast<double>(kPasses) * static_cast<double>(cold_jobs.size());
  const auto steady_rate = [&](const EngineRun& run) {
    return steady_jobs / (run.steady_millis / 1e3);
  };
  const double speedup = scalar.steady_millis / wavefront.steady_millis;

  support::Table table({"engine", "cold-pass ms", "steady ms/pass", "steady jobs/s",
                        "node-rounds/s", "speedup", "identical outcomes"});
  table.set_precision(3);
  table.add_row({std::string("scalar"), scalar.cold_millis,
                 scalar.steady_millis / kPasses, steady_rate(scalar),
                 static_cast<double>(scalar.report.total_stats.node_rounds) /
                     (scalar.report.wall_millis / 1e3),
                 1.0, std::string("-")});
  table.add_row({std::string("wavefront"), wavefront.cold_millis,
                 wavefront.steady_millis / kPasses, steady_rate(wavefront),
                 static_cast<double>(wavefront.report.total_stats.node_rounds) /
                     (wavefront.report.wall_millis / 1e3),
                 speedup, std::string(identical ? "yes" : "NO (BUG)")});
  benchsupport::print_table(
      "E5 — engine trajectory: scalar vs wavefront on a mutation sweep (n=" +
          std::to_string(kNodes) + ", sigma=" + std::to_string(kSigma) + ", " +
          std::to_string(cold_jobs.size()) + " candidates x " + std::to_string(kPasses) +
          " steady passes, cache on)",
      table);

  benchsupport::JsonSnapshot snapshot;
  snapshot.add("bench", std::string("E5"));
  std::ostringstream workload_name;
  workload_name << "mutations of gnp(n=" << kNodes << ",p=" << kEdgeProbability
                << ",sigma=" << kSigma << ")";
  snapshot.add("workload", workload_name.str());
  snapshot.add("candidates", static_cast<std::uint64_t>(cold_jobs.size()));
  snapshot.add("steady_passes", static_cast<std::uint64_t>(kPasses));
  // Exact-match fields: pure functions of the fixed seeds, identical across
  // engines (same_results) — any drift is a correctness change.
  snapshot.add("total_global_rounds", wavefront.report.total_global_rounds);
  snapshot.add("feasible_jobs", wavefront.report.feasible_count);
  snapshot.add("identical_outcomes", identical);
  // Gated field: the wavefront engine must stay this much faster than the
  // scalar reference (bench_gate applies its tolerance to it).
  snapshot.add("wavefront_speedup", speedup);
  // Informational fields (suffix-exempt in bench_gate): raw rates move with
  // the machine, the speedup above is the tracked invariant.
  snapshot.add("scalar_steady_jobs_per_s", steady_rate(scalar));
  snapshot.add("wavefront_steady_jobs_per_s", steady_rate(wavefront));
  snapshot.add("scalar_cold_wall_ms", scalar.cold_millis);
  snapshot.add("wavefront_cold_wall_ms", wavefront.cold_millis);
  add_e5_sparse_rows(snapshot);
  snapshot.write("BENCH_E5.json");
}

void print_e5b_table() {
  // The distributed pipeline end-to-end on one machine: the same sweep run
  // (a) in one batch and (b) as 4 shard ranges, each through its own runner
  // (as separate worker processes would), serialized to the wire format,
  // parsed back and merged.  Identity of the outcomes is asserted; the
  // engine trajectory snapshot lives in E5 above.
  constexpr engine::JobId kCount = 400;
  constexpr std::uint64_t kSeed = 13;
  constexpr std::uint32_t kShards = 4;

  const engine::WorkloadSpec workload = engine::parse_workload("random:n=14,p=0.3,sigma=3");
  const engine::CountedSweep counted =
      workload.instantiate(kSeed, {core::ProtocolSpec::canonical()}, {.count = kCount});
  const engine::JobSource& source = counted.source;

  dist::SweepKey key;
  key.description = workload.name();
  key.digest = workload.digest();
  key.seed = kSeed;
  key.total_jobs = counted.count;
  key.protocols = {core::ProtocolSpec::canonical().name()};

  double single_millis = 0.0;
  engine::BatchReport single;
  {
    // Watch starts before the runner: the sharded path below pays its pool
    // constructions inside the clock, so the single path must too.
    support::Stopwatch watch;
    engine::BatchRunner runner({.seed = kSeed});
    single = runner.run(kCount, source);
    single_millis = watch.millis();
  }

  // Sharded path, wire format included (that is what a real fleet pays).
  double sharded_millis = 0.0;
  engine::BatchReport merged;
  {
    support::Stopwatch watch;
    std::vector<dist::ShardReport> shards;
    for (const dist::JobRange& range : dist::shard_ranges(kCount, kShards)) {
      engine::BatchRunner runner({.seed = kSeed});
      std::stringstream wire;
      dist::write_shard_report(
          dist::make_shard_report(key, range,
                                  runner.run_range(range.begin, range.end, source)),
          wire);
      shards.push_back(dist::read_shard_report(wire));
    }
    merged = dist::complete_report(dist::merge_shards(shards));
    sharded_millis = watch.millis();
  }
  const bool identical = engine::same_results(merged, single);

  // Coarse clocks can report 0 ms; keep the JSON numeric (no inf/nan).
  const auto throughput = [](double millis) {
    return millis > 0.0 ? static_cast<double>(kCount) / (millis / 1e3) : 0.0;
  };
  support::Table table({"path", "wall ms", "configs/s", "identical outcomes"});
  table.set_precision(2);
  table.add_row({std::string("single process"), single_millis, throughput(single_millis),
                 std::string("-")});
  table.add_row({std::string("4 shards + wire + merge"), sharded_millis,
                 throughput(sharded_millis), std::string(identical ? "yes" : "NO (BUG)")});
  benchsupport::print_table(
      "E5b — sharded-vs-single sweep (400 configs, n=14, sigma=3): the distributed "
      "pipeline reproduces the batch bit for bit",
      table);
}

void print_tables() {
  print_e3_table();
  print_e3b_table();
  print_e3c_table();
  print_e4_table();
  print_e5_table();
  print_e5b_table();
}

// ------------------------------------------------------------- timed series

void BM_ElectOnFamilyG(benchmark::State& state) {
  const auto m = static_cast<config::Tag>(state.range(0));
  const config::Configuration c = config::family_g(m);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    const core::ElectionReport report = core::elect(c);
    benchmark::DoNotOptimize(report.valid);
    rounds = report.local_rounds;
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["n"] = static_cast<double>(c.size());
}
BENCHMARK(BM_ElectOnFamilyG)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ElectOnStaggeredPath(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const config::Configuration c = config::staggered_path(n);
  for (auto _ : state) {
    const core::ElectionReport report = core::elect(c);
    benchmark::DoNotOptimize(report.valid);
  }
}
BENCHMARK(BM_ElectOnStaggeredPath)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ElectOnRandomGnp(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  support::Rng rng(55 + n);
  const config::Configuration c =
      config::random_tags_with_span(graph::gnp_connected(n, 0.3, rng), 3, rng);
  for (auto _ : state) {
    const core::ElectionReport report = core::elect(c);
    benchmark::DoNotOptimize(report.valid);
  }
}
BENCHMARK(BM_ElectOnRandomGnp)->Arg(8)->Arg(16)->Arg(32);

void BM_ElectWithScratchReuse(benchmark::State& state) {
  // The per-worker buffer reuse the engine's workers get, in isolation.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  support::Rng rng(55 + n);
  const config::Configuration c =
      config::random_tags_with_span(graph::gnp_connected(n, 0.3, rng), 3, rng);
  core::ElectionScratch scratch;
  for (auto _ : state) {
    const core::ElectionReport report = core::elect(c, {}, scratch);
    benchmark::DoNotOptimize(report.valid);
  }
}
BENCHMARK(BM_ElectWithScratchReuse)->Arg(8)->Arg(16)->Arg(32);

void BM_EngineSweep(benchmark::State& state) {
  // Whole-batch wall time: `threads` workers over a 64-configuration sweep.
  const auto threads = static_cast<unsigned>(state.range(0));
  constexpr engine::JobId kCount = 64;
  const engine::CountedSweep sweep = engine::WorkloadSpec::random(16, 0.3, 3).instantiate(
      21, {core::ProtocolSpec::canonical()}, {.count = kCount});
  std::vector<engine::BatchJob> jobs;
  jobs.reserve(kCount);
  for (engine::JobId i = 0; i < kCount; ++i) {
    jobs.push_back(sweep.source(i));
  }
  engine::BatchRunner runner({.threads = threads});
  std::uint64_t valid = 0;
  for (auto _ : state) {
    const engine::BatchReport report = runner.run(jobs);
    valid = report.valid_count;
    benchmark::DoNotOptimize(valid);
  }
  state.counters["configs/s"] = benchmark::Counter(
      static_cast<double>(kCount), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_EngineSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MutationSweepScheduleCache(benchmark::State& state) {
  // E4's workload as a tracked series: three passes over a single-tag
  // mutation neighbourhood, arg 0 = uncached, arg 1 = cached.
  const bool cached = state.range(0) != 0;
  support::Rng rng(4040);
  const config::Configuration base =
      config::random_tags_with_span(graph::gnp_connected(12, 0.3, rng), 3, rng);
  std::vector<engine::BatchJob> jobs;
  for (int pass = 0; pass < 3; ++pass) {
    for (const config::Configuration& candidate : config::all_tag_mutations(base, base.span())) {
      jobs.push_back({candidate, core::ProtocolSpec::canonical(), {}});
    }
  }
  engine::BatchRunner runner(  // one thread: keeps the builds counter exact (see E4)
      {.threads = 1,
       .cache_capacity = cached ? engine::ScheduleCache::kDefaultCapacity : std::size_t{0}});
  std::uint64_t builds = 0;
  for (auto _ : state) {
    const engine::BatchReport report = runner.run(jobs);
    builds = report.cache ? report.cache->schedule_builds : jobs.size();
    benchmark::DoNotOptimize(builds);
  }
  state.counters["schedule_builds"] = static_cast<double>(builds);
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_MutationSweepScheduleCache)->Arg(0)->Arg(1);

}  // namespace

ARL_BENCH_MAIN(print_tables)
