#pragma once

/// \file common.hpp
/// Shared plumbing of the sweep benchmark: command-line arguments, the
/// result record every workload returns, and the statistics helpers.
///
/// Percentiles are computed here from raw samples.  The library's obs
/// histograms bucket by bit_width(nanos), so every percentile they report
/// is a power-of-two bucket edge and cannot resolve a 10% change.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/batch_runner.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: a handful of configurations per workload.
  bool tiny = false;
  /// Self-test of the output check: every reference outcome is altered, so
  /// every job must be counted as failed.
  bool corrupt_reference = false;
  /// Scratch directory for stores and sockets (inside the checkout).
  std::string run_dir;
  /// When nonempty, the traced run writes its spans here as JSON lines.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports.  `metrics` is the machine-read set (the
/// end-to-end metrics untraced, the per-layer metrics traced); `extra` rows
/// are printed for people only.  `exact` names the per-layer counters a
/// traced run holds to be pure functions of the workload and seed; it is
/// printed too, so the self-test checks the list the run itself enforced.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<std::string> exact;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Linear-interpolated percentile (q in [0, 1]) of raw samples; 0 when empty.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(rank);
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lower);
  return samples[lower] + frac * (samples[upper] - samples[lower]);
}

inline double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

/// Resident-memory high-water mark of this process, in MiB.
double peak_rss_mb();

/// Returns the allocator's free pages to the system.  Called after each
/// set-up's slice is torn down, so that the high-water mark is that of one
/// set-up rather than the sum of what earlier set-ups' threads left in
/// their allocator arenas.
void release_freed_memory();

/// Counts the jobs of `got` that differ from the reference outcome with the
/// same global id (`reference.jobs[id]`).
std::uint64_t count_mismatches(const arl::engine::BatchReport& got,
                               const arl::engine::BatchReport& reference);

/// Alters every job of a reference so that no correct run can match it.
void corrupt(arl::engine::BatchReport& reference);

}  // namespace perfbench
