/// \file bench_feasibility.cpp
/// E8 (extension figure): how common are feasible configurations?  Sampled
/// feasibility rate of random configurations as a function of size, span and
/// edge density — the "how much wakeup asymmetry does nature need to give
/// you" picture the paper's characterization makes computable.  Every sweep
/// is a classify-only batch on the election engine.

#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "config/families.hpp"
#include "config/mutations.hpp"
#include "core/classifier.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;

double feasibility_rate(graph::NodeId n, config::Tag sigma, double p, std::size_t samples,
                        engine::BatchRunner& runner) {
  engine::WorkloadSpec workload = engine::WorkloadSpec::random(n, p, sigma);
  workload.exact = false;  // uniform tags in [0, sigma], as in the seed experiment
  const std::uint64_t seed = 0xFEA51B1E ^ (static_cast<std::uint64_t>(n) << 32) ^
                             (static_cast<std::uint64_t>(sigma) << 16) ^
                             static_cast<std::uint64_t>(p * 1000);
  const engine::CountedSweep sweep =
      workload.instantiate(seed, {core::ProtocolSpec::classify_only()}, {.count = samples});
  const engine::BatchReport report = runner.run(sweep.count, sweep.source);
  return static_cast<double>(report.feasible_count) / static_cast<double>(samples);
}

/// Classify-only batch over an explicit configuration list.
engine::BatchReport classify_all(engine::BatchRunner& runner,
                                 std::vector<config::Configuration> configurations) {
  std::vector<engine::BatchJob> jobs;
  jobs.reserve(configurations.size());
  for (auto& configuration : configurations) {
    jobs.push_back({std::move(configuration), core::ProtocolSpec::classify_only(), {}});
  }
  return runner.run(jobs);
}

void print_tables() {
  engine::BatchRunner runner;
  constexpr std::size_t kSamples = 400;

  {
    support::Table table({"n", "sigma=1", "sigma=2", "sigma=4", "sigma=8"});
    table.set_precision(3);
    for (const graph::NodeId n : {4u, 6u, 8u, 12u, 16u, 24u}) {
      table.add_row({static_cast<std::int64_t>(n),
                     feasibility_rate(n, 1, 0.3, kSamples, runner),
                     feasibility_rate(n, 2, 0.3, kSamples, runner),
                     feasibility_rate(n, 4, 0.3, kSamples, runner),
                     feasibility_rate(n, 8, 0.3, kSamples, runner)});
    }
    benchsupport::print_table(
        "E8a — feasibility rate vs n and sigma (gnp p=0.3, uniform tags, 400 samples)", table);
  }
  {
    support::Table table({"edge probability p", "n=8", "n=16"});
    table.set_precision(3);
    for (const double p : {0.1, 0.2, 0.4, 0.6, 0.8}) {
      table.add_row({p, feasibility_rate(8, 2, p, kSamples, runner),
                     feasibility_rate(16, 2, p, kSamples, runner)});
    }
    benchsupport::print_table("E8b — feasibility rate vs edge density (sigma = 2)", table);
  }
  {
    // E8c — sensitivity: how often does nudging ONE wakeup tag flip the
    // verdict?  (The deployment-robustness question mutations.hpp exists
    // for.)  Each base configuration's mutations go through the engine as
    // one classify-only batch.
    support::Table table({"n", "configs", "feasible->infeasible flips %",
                          "infeasible->feasible flips %"});
    table.set_precision(3);
    support::Rng rng(0x5EED);
    for (const graph::NodeId n : {6u, 10u, 14u}) {
      std::uint64_t feasible_mutations = 0;
      std::uint64_t feasible_flips = 0;
      std::uint64_t infeasible_mutations = 0;
      std::uint64_t infeasible_flips = 0;
      constexpr int kConfigs = 40;
      for (int i = 0; i < kConfigs; ++i) {
        const config::Configuration c =
            config::random_tags(graph::gnp_connected(n, 0.3, rng), 2, rng);
        const bool feasible = core::Classifier{}.run(c).feasible();
        const engine::BatchReport mutated = classify_all(runner, config::all_tag_mutations(c, 2));
        const auto mutations = static_cast<std::uint64_t>(mutated.jobs.size());
        if (feasible) {
          feasible_mutations += mutations;
          feasible_flips += mutations - mutated.feasible_count;
        } else {
          infeasible_mutations += mutations;
          infeasible_flips += mutated.feasible_count;
        }
      }
      auto rate = [](std::uint64_t flips, std::uint64_t total) {
        return total == 0 ? 0.0 : 100.0 * static_cast<double>(flips) / static_cast<double>(total);
      };
      table.add_row({static_cast<std::int64_t>(n), std::int64_t{kConfigs},
                     rate(feasible_flips, feasible_mutations),
                     rate(infeasible_flips, infeasible_mutations)});
    }
    benchsupport::print_table(
        "E8c — verdict sensitivity to a single tag perturbation (tags 0..2)", table);
  }
  {
    // E8d — the repair direction, measured where infeasibility actually
    // lives: every single-tag mutation of the infeasible family S_m.
    support::Table table({"S_m", "mutations", "repaired to feasible", "repair %"});
    table.set_precision(3);
    for (const config::Tag m : {1u, 2u, 4u}) {
      const engine::BatchReport mutated =
          classify_all(runner, config::all_tag_mutations(config::family_s(m), m + 2));
      table.add_row({static_cast<std::int64_t>(m),
                     static_cast<std::int64_t>(mutated.jobs.size()),
                     static_cast<std::int64_t>(mutated.feasible_count),
                     100.0 * static_cast<double>(mutated.feasible_count) /
                         static_cast<double>(mutated.jobs.size())});
    }
    benchsupport::print_table(
        "E8d — repairing the infeasible family S_m with one tag change", table);
  }
}

void BM_FeasibilitySample(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  support::Rng rng(99 + n);
  std::uint64_t feasible = 0;
  for (auto _ : state) {
    const config::Configuration c =
        config::random_tags(graph::gnp_connected(n, 0.3, rng), 2, rng);
    feasible += core::Classifier{}.run(c).feasible() ? 1 : 0;
  }
  benchmark::DoNotOptimize(feasible);
}
BENCHMARK(BM_FeasibilitySample)->Arg(8)->Arg(16)->Arg(32);

void BM_FeasibilityBatch(benchmark::State& state) {
  // Classify-only batch throughput through the engine.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  constexpr engine::JobId kCount = 64;
  engine::WorkloadSpec workload = engine::parse_workload("random:sigma=2,exact=0");
  workload.nodes = n;
  const engine::CountedSweep sweep = workload.instantiate(
      99 + n, {core::ProtocolSpec::classify_only()}, {.count = kCount});
  engine::BatchRunner runner;
  for (auto _ : state) {
    const engine::BatchReport report = runner.run(sweep.count, sweep.source);
    benchmark::DoNotOptimize(report.feasible_count);
  }
  state.counters["configs/s"] = benchmark::Counter(
      static_cast<double>(kCount), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FeasibilityBatch)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

ARL_BENCH_MAIN(print_tables)
