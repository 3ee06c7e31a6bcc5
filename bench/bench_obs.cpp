/// \file bench_obs.cpp
/// E8 — observability overhead: the same classification+election sweep runs
/// with the metrics registry enabled (the default) and disabled.  The two
/// arms run kPairs times back to back, one sweep each, swapping which goes
/// first every pair, so each pair shares one stretch of machine load.  The
/// tracked perf invariant is the median over the pairs of the on/off
/// throughput ratio (BENCH_E8.json, gated in CI by tools/bench_gate with
/// --tolerance=0.03): instrumentation may cost at most the gate tolerance.
/// The instrumented pass also pins down the phase span *counts*, which are
/// workload facts — deterministic at threads=1 — and therefore exact-match
/// gated; wall times are machine facts, printed but not gated.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

using namespace arl;

constexpr const char* kWorkload = "random:n=24,p=0.25,sigma=6";
constexpr std::uint64_t kCount = 300;  // configurations
constexpr std::uint64_t kSeed = 9;
// One sweep takes ~13 ms (4-core shared x86 host), too short for a 0.03
// gate on its own: best-of-5 single sweeps read on/off ratios of 0.88-1.21
// there, and even the sum of twenty best-of-5 sweeps per arm read
// 0.92-1.05 over 30 runs, because a minimum follows the luckiest pass.
// The median of 100 paired ratios read 0.982-1.001 over the same 30 runs.
constexpr std::size_t kPairs = 100;

engine::CountedSweep e8_sweep() {
  return engine::parse_workload(kWorkload).instantiate(
      kSeed, {core::ProtocolSpec::canonical()}, {.count = kCount});
}

engine::BatchOptions e8_options() {
  engine::BatchOptions options;
  options.threads = 1;  // timings compare instrumentation, not pool sizes
  options.seed = kSeed;
  return options;
}

/// The upper median (the sample at index size/2 in sorted order).
double median(std::vector<double> values) {
  const auto middle = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), middle, values.end());
  return *middle;
}

/// One timed sweep under the given registry mode; `out` receives the run's
/// report (every run of one mode is identical — same seed, same jobs).
double timed_sweep(engine::BatchRunner& runner, const engine::CountedSweep& sweep,
                   bool metrics_on, engine::BatchReport& out) {
  obs::Registry::global().set_enabled(metrics_on);
  support::Stopwatch watch;
  out = runner.run(sweep.count, sweep.source);
  return watch.millis();
}

void print_e8_table() {
  const engine::CountedSweep sweep = e8_sweep();
  engine::BatchRunner runner(e8_options());
  engine::BatchReport off_report;
  engine::BatchReport on_report;
  // Warm-up (page cache, allocator) outside both timed arms.
  (void)timed_sweep(runner, sweep, true, on_report);

  // Slow drift on a shared machine (CPU frequency, background load) hits
  // both sweeps of a pair alike and cancels in its ratio; the median then
  // drops the pairs in which one sweep was descheduled.
  std::vector<double> off_ms(kPairs);
  std::vector<double> on_ms(kPairs);
  std::vector<double> ratios(kPairs);
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    for (const bool metrics_on : {pair % 2 == 0, pair % 2 != 0}) {
      (metrics_on ? on_ms : off_ms)[pair] =
          timed_sweep(runner, sweep, metrics_on, metrics_on ? on_report : off_report);
    }
    ratios[pair] = on_ms[pair] > 0.0 ? off_ms[pair] / on_ms[pair] : 1.0;
  }
  obs::Registry::global().set_enabled(true);  // restore the process default

  const bool identical = engine::same_results(on_report, off_report);
  if (!on_report.phases || off_report.phases) {
    throw std::runtime_error(
        "bench_obs: expected phase timings exactly on the instrumented run");
  }
  const obs::MetricsSnapshot& phases = *on_report.phases;
  const double raw_speedup = median(ratios);
  // The committed invariant is "metrics cost at most the gate tolerance",
  // not "this machine ran faster with metrics on today" — clamp the gated
  // ratio at 1.0 so a lucky committed run cannot tighten the gate.
  const double gated_speedup = std::min(raw_speedup, 1.0);

  const std::uint64_t jobs = on_report.jobs.size();
  const double off_median_ms = median(off_ms);
  const double on_median_ms = median(on_ms);
  support::Table table({"mode", "wall ms (median sweep)", "jobs", "jobs/s"});
  const auto row = [&](const std::string& mode, double ms) {
    table.add_row({mode, ms, static_cast<std::int64_t>(jobs),
                   static_cast<double>(jobs) / (ms / 1e3)});
  };
  row("metrics off", off_median_ms);
  row("metrics on", on_median_ms);
  benchsupport::print_table("E8: observability overhead (" + std::string(kWorkload) + " x " +
                                std::to_string(kCount) + ", canonical, " +
                                std::to_string(kPairs) + " interleaved pairs)",
                            table);

  support::Table spans({"phase", "spans", "total ms"});
  for (const obs::Phase phase : obs::all_phases()) {
    const obs::HistogramSnapshot& histogram = phases[phase];
    if (histogram.count() == 0) {
      continue;
    }
    spans.add_row({std::string(obs::phase_name(phase)),
                   static_cast<std::int64_t>(histogram.count()),
                   static_cast<double>(histogram.total) / 1e6});
  }
  benchsupport::print_table("E8: instrumented phase spans (one sweep)", spans);
  std::cout << "\nmetrics-on throughput ratio: " << raw_speedup
            << " (1.0 = free); outcomes identical: " << (identical ? "yes" : "no") << "\n";

  benchsupport::JsonSnapshot snapshot;
  snapshot.add("bench", std::string("E8"));
  snapshot.add("workload", std::string(kWorkload));
  snapshot.add("configurations", kCount);
  snapshot.add("total_jobs", static_cast<std::uint64_t>(on_report.jobs.size()));
  snapshot.add("identical_outcomes", identical);
  snapshot.add("e8_phase_classify_count", phases[obs::Phase::Classify].count());
  snapshot.add("e8_phase_schedule_compile_count", phases[obs::Phase::ScheduleCompile].count());
  snapshot.add("e8_phase_simulate_count", phases[obs::Phase::Simulate].count());
  snapshot.add("e8_metrics_on_speedup", gated_speedup);
  snapshot.add("on_wall_ms", on_median_ms);
  snapshot.add("off_wall_ms", off_median_ms);
  snapshot.add("on_jobs_per_s", static_cast<double>(jobs) / (on_median_ms / 1e3));
  snapshot.write("BENCH_E8.json");
}

// ------------------------------------------------------- timed micro-series

/// The hot-path cost a single span pays: one histogram record.
void BM_HistogramRecord(benchmark::State& state) {
  obs::LatencyHistogram histogram;
  std::uint64_t value = 1;
  for (auto _ : state) {
    histogram.record(value);
    value = value * 2862933555777941757ull + 3037000493ull;  // spread the buckets
  }
  benchmark::DoNotOptimize(histogram.snapshot().count());
}
BENCHMARK(BM_HistogramRecord);

/// A full span: two steady_clock reads plus the record.
void BM_PhaseTimerEnabled(benchmark::State& state) {
  obs::Registry registry;
  registry.set_enabled(true);
  for (auto _ : state) {
    const obs::PhaseTimer timer(obs::Phase::Simulate, registry);
    benchmark::DoNotOptimize(&timer);
  }
  benchmark::DoNotOptimize(registry.snapshot().empty());
}
BENCHMARK(BM_PhaseTimerEnabled);

/// The disabled-registry span: no clock reads, no records — the price every
/// instrumented call site pays when observability is off.
void BM_PhaseTimerDisabled(benchmark::State& state) {
  obs::Registry registry;
  registry.set_enabled(false);
  for (auto _ : state) {
    const obs::PhaseTimer timer(obs::Phase::Simulate, registry);
    benchmark::DoNotOptimize(&timer);
  }
}
BENCHMARK(BM_PhaseTimerDisabled);

/// Snapshot + merge across shards, the `arl stats` / drain-summary path.
void BM_SnapshotAndMerge(benchmark::State& state) {
  obs::Registry registry;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    registry.record(obs::Phase::Simulate, i * 977);
    registry.record(obs::Phase::Classify, i * 131);
  }
  const obs::MetricsSnapshot base = registry.snapshot();
  for (auto _ : state) {
    obs::MetricsSnapshot merged = registry.snapshot();
    merged.merge(base);
    benchmark::DoNotOptimize(merged[obs::Phase::Simulate].count());
  }
}
BENCHMARK(BM_SnapshotAndMerge);

void print_tables() { print_e8_table(); }

}  // namespace

ARL_BENCH_MAIN(print_tables)
