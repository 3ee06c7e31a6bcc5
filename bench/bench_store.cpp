/// \file bench_store.cpp
/// E7: the persistent artifact store as a cross-process warm start.  One
/// expensive classification sweep runs three ways: storeless (the
/// baseline), store-cold (every configuration classifies AND persists),
/// and store-preloaded — a fresh runner, memory-cache cold, that answers
/// every configuration from the entry files a previous process wrote.  The
/// preload speedup over the compiling run is the tracked perf invariant
/// (BENCH_E7.json, gated in CI by tools/bench_gate); wall times are
/// machine facts, printed but not gated; the store counters and outcome
/// identity are exact.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "core/classifier.hpp"
#include "core/schedule.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "store/artifact_store.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

#include <dirent.h>
#include <unistd.h>

namespace {

using namespace arl;

constexpr const char* kWorkload = "random:n=256,p=0.03,sigma=200";
constexpr std::uint64_t kCount = 200;  // configurations
constexpr std::uint64_t kSeed = 11;

/// A private store directory, emptied and removed by the destructor.
struct BenchStore {
  BenchStore() {
    char pattern[] = "/tmp/arl-bench-store-XXXXXX";
    if (::mkdtemp(pattern) == nullptr) {
      throw std::runtime_error("bench_store: mkdtemp failed");
    }
    dir = pattern;
  }

  ~BenchStore() {
    if (DIR* d = ::opendir(dir.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          (void)::unlink((dir + "/" + name).c_str());
        }
      }
      ::closedir(d);
    }
    ::rmdir(dir.c_str());
  }

  std::string dir;
};

engine::CountedSweep e7_sweep() {
  return engine::parse_workload(kWorkload).instantiate(
      kSeed, {core::ProtocolSpec::classify_only()}, {.count = kCount});
}

engine::BatchOptions e7_options(const std::string& store_directory) {
  engine::BatchOptions options;
  options.threads = 1;  // timings compare store tiers, not pool sizes
  options.cache_capacity = 1024;
  options.store_directory = store_directory;
  return options;
}

void print_e7_table() {
  const engine::CountedSweep sweep = e7_sweep();
  BenchStore store;

  // Baseline: no store at all — what the sweep costs with nothing to reuse.
  support::Stopwatch watch;
  engine::BatchRunner baseline_runner(e7_options(""));
  const engine::BatchReport baseline = baseline_runner.run(sweep.count, sweep.source);
  const double baseline_ms = watch.millis();

  // Store-cold: same compiles, plus one crash-safe entry file per
  // configuration (the write overhead the durability costs).
  watch.restart();
  engine::BatchRunner cold_runner(e7_options(store.dir));
  const engine::BatchReport cold = cold_runner.run(sweep.count, sweep.source);
  const double cold_ms = watch.millis();

  // Store-preloaded: a fresh runner (fresh process, as far as the cache can
  // tell — its memory tier is empty) answers every configuration from disk.
  watch.restart();
  engine::BatchRunner warm_runner(e7_options(store.dir));
  const engine::BatchReport warm = warm_runner.run(sweep.count, sweep.source);
  const double warm_ms = watch.millis();

  if (!cold.artifact_store || !warm.artifact_store) {
    throw std::runtime_error("bench_store: store-backed runs reported no store counters");
  }
  const bool identical =
      engine::same_results(cold, baseline) && engine::same_results(warm, baseline);
  const double preload_speedup = cold_ms / warm_ms;

  support::Table table({"run", "wall ms", "loads", "misses", "saves", "jobs"});
  const auto row = [&](const std::string& name, double ms, std::uint64_t loads,
                       std::uint64_t misses, std::uint64_t saves) {
    std::ostringstream wall;
    wall << static_cast<int>(ms * 10.0) / 10.0;
    table.add_row({name, wall.str(), std::to_string(loads), std::to_string(misses),
                   std::to_string(saves), std::to_string(baseline.jobs.size())});
  };
  row("storeless", baseline_ms, 0, 0, 0);
  row("store-cold", cold_ms, cold.artifact_store->hits, cold.artifact_store->misses,
      cold.artifact_store->saves);
  row("store-preloaded", warm_ms, warm.artifact_store->hits, warm.artifact_store->misses,
      warm.artifact_store->saves);
  benchsupport::print_table("E7: persistent artifact store, compile vs preload (" +
                                std::string(kWorkload) + " x " + std::to_string(kCount) +
                                ", classify)",
                            table);
  std::cout << "\npreload speedup: " << preload_speedup
            << "x over the compiling run; outcomes identical: " << (identical ? "yes" : "no")
            << "\n";

  benchsupport::JsonSnapshot snapshot;
  snapshot.add("bench", std::string("E7"));
  snapshot.add("workload", std::string(kWorkload));
  snapshot.add("configurations", kCount);
  snapshot.add("total_jobs", static_cast<std::uint64_t>(baseline.jobs.size()));
  snapshot.add("cold_saves", cold.artifact_store->saves);
  snapshot.add("cold_rejected", cold.artifact_store->rejected);
  snapshot.add("preload_hits", warm.artifact_store->hits);
  snapshot.add("preload_misses", warm.artifact_store->misses);
  snapshot.add("preload_saves", warm.artifact_store->saves);
  snapshot.add("identical_outcomes", identical);
  snapshot.add("store_preload_speedup", preload_speedup);
  snapshot.add("baseline_wall_ms", baseline_ms);
  snapshot.add("cold_wall_ms", cold_ms);
  snapshot.add("preload_wall_ms", warm_ms);
  snapshot.write("BENCH_E7.json");
}

// ------------------------------------------------------- timed micro-series

/// A complete entry, as every production save writes: the classification
/// plus the canonical schedule compiled from it.
core::CompiledConfiguration complete_entry(const config::Configuration& configuration) {
  core::CompiledConfiguration compiled;
  compiled.classification = core::Classifier().run(configuration);
  compiled.schedule = std::make_shared<const core::CanonicalSchedule>(
      core::build_schedule(configuration, compiled.classification));
  return compiled;
}

void BM_StoreSave(benchmark::State& state) {
  const engine::CountedSweep sweep = e7_sweep();
  const engine::BatchJob job = sweep.source(0);
  const core::CompiledConfiguration compiled = complete_entry(job.configuration);
  BenchStore store;
  store::ArtifactStore artifacts(store.dir);
  for (auto _ : state) {
    artifacts.save(job.configuration, radio::ChannelModel::CollisionDetection, false, compiled);
  }
}
BENCHMARK(BM_StoreSave)->Unit(benchmark::kMicrosecond);

void BM_StoreLoad(benchmark::State& state) {
  const engine::CountedSweep sweep = e7_sweep();
  const engine::BatchJob job = sweep.source(0);
  const core::CompiledConfiguration compiled = complete_entry(job.configuration);
  BenchStore store;
  store::ArtifactStore artifacts(store.dir);
  artifacts.save(job.configuration, radio::ChannelModel::CollisionDetection, false, compiled);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        artifacts.load(job.configuration, radio::ChannelModel::CollisionDetection, false));
  }
}
BENCHMARK(BM_StoreLoad)->Unit(benchmark::kMicrosecond);

void print_tables() { print_e7_table(); }

}  // namespace

ARL_BENCH_MAIN(print_tables)