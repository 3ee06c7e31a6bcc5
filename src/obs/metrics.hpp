#pragma once

/// \file metrics.hpp
/// Process-wide metrics: named phase spans recorded into fixed log-bucketed
/// latency histograms.
///
/// Every stage of the election pipeline — classification, schedule
/// compilation, simulation, the cache and store tiers, the serve queue —
/// opens a `PhaseTimer` span; the elapsed nanoseconds land in one
/// `LatencyHistogram` per phase inside a `Registry`.  The design constraints
/// mirror the rest of the repository:
///
///  - **Allocation-free hot path.** A histogram is a fixed array of atomic
///    bucket counters indexed by `std::bit_width` of the sample, so
///    record() is two relaxed fetch_adds and no branches that depend on the
///    data distribution.
///  - **Deterministic bucket boundaries.** Bucket 0 holds exactly {0};
///    bucket i >= 1 holds [2^(i-1), 2^i - 1].  Percentiles are reported as
///    the inclusive upper bound of the bucket containing the requested
///    rank — integers that are a pure function of the recorded multiset, so
///    snapshots of the same samples compare bit-identically however the
///    recording was threaded or sharded.
///  - **Associative merge.** `HistogramSnapshot`/`MetricsSnapshot` add and
///    subtract bucket-wise, exactly like `dist::merge_shards` over job
///    outcomes: merging K shard snapshots of a partition of the samples
///    equals the snapshot of the concatenated samples, and `since()` deltas
///    attribute growth to one batch the way `ScheduleCacheStats::since`
///    does.  (The price: no atomic max — a maximum is not delta-subtractable
///    — so `max_bound()` derives from the highest non-empty bucket.)
///  - **Provably cheap when off.** `Registry::set_enabled(false)` makes
///    every PhaseTimer skip its clock reads entirely (checked once at
///    construction), so the metrics-off arm of the E8 overhead bench
///    measures an honest zero, not a disabled write behind two clock calls.
///
/// `Registry::global()` is the process-wide instance the instrumented call
/// sites use; plain instances exist so tests can exercise merge/delta
/// algebra in isolation.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace arl::obs {

/// The named phase spans instrumented across the stack.  Order is the
/// presentation order of every table and snapshot.
enum class Phase : std::uint8_t {
  Classify,        ///< core: Classifier runs
  ScheduleCompile, ///< core: build_schedule
  Simulate,        ///< radio: one protocol execution on the simulator
  FaultInject,     ///< radio: fault-plan precomputation (crash schedule, stagger)
  CacheLookup,     ///< schedule-cache lookups (memory, then the disk tier on a miss)
  CachePromote,    ///< schedule cache: disk hit promoted into memory
  StoreLoad,       ///< artifact store: load + verify one entry file
  StoreSave,       ///< artifact store: compose + persist one entry file
  ServeQueueWait,  ///< serve: ack-to-begin wait in the dispatcher queue
  ServeDispatch,   ///< serve: one request's execution on the shared runner
};

inline constexpr std::size_t kPhaseCount = 10;

/// The canonical lowercase identifier of a phase ("classify",
/// "schedule-compile", ...): table rows, JSON keys and trace fields all
/// spell phases this way.
[[nodiscard]] std::string_view phase_name(Phase phase);

/// All phases in presentation order, for iteration.
[[nodiscard]] const std::array<Phase, kPhaseCount>& all_phases();

/// Buckets 0..64: bucket 0 holds {0}, bucket i holds [2^(i-1), 2^i - 1],
/// covering every uint64 nanosecond value (~584 years at the top).
inline constexpr std::size_t kHistogramBuckets = 65;

/// Inclusive upper bound of a bucket — the value percentiles report.
[[nodiscard]] constexpr std::uint64_t bucket_upper_bound(std::size_t bucket) {
  if (bucket == 0) {
    return 0;
  }
  if (bucket >= 64) {
    return ~std::uint64_t{0};
  }
  return (std::uint64_t{1} << bucket) - 1;
}

/// Immutable copy of one histogram: plain counters with the merge/delta
/// algebra and the percentile extraction.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t total = 0;  ///< sum of every recorded sample (exact)

  /// Samples recorded.
  [[nodiscard]] std::uint64_t count() const;

  /// Mean sample value (0 when empty).
  [[nodiscard]] double mean() const;

  /// Upper bound of the bucket holding rank ceil(q * count) in [1, count];
  /// 0 when the histogram is empty.  q must be in (0, 1].
  [[nodiscard]] std::uint64_t percentile(double q) const;

  /// Upper bound of the highest non-empty bucket (0 when empty) — the
  /// delta-mergeable stand-in for an exact maximum.
  [[nodiscard]] std::uint64_t max_bound() const;

  /// Bucket-wise sum: merge(a, b) of disjoint sample sets equals the
  /// snapshot of their concatenation (associative and commutative).
  void merge(const HistogramSnapshot& other);

  /// Bucket-wise growth since an earlier snapshot of the same histogram.
  [[nodiscard]] HistogramSnapshot since(const HistogramSnapshot& earlier) const;

  friend bool operator==(const HistogramSnapshot& a, const HistogramSnapshot& b) = default;
};

/// Immutable copy of a whole registry: one histogram per phase, same
/// algebra lifted pointwise.
struct MetricsSnapshot {
  std::array<HistogramSnapshot, kPhaseCount> phases{};

  [[nodiscard]] const HistogramSnapshot& operator[](Phase phase) const {
    return phases[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] HistogramSnapshot& operator[](Phase phase) {
    return phases[static_cast<std::size_t>(phase)];
  }

  /// True when no phase recorded anything.
  [[nodiscard]] bool empty() const;

  void merge(const MetricsSnapshot& other);
  [[nodiscard]] MetricsSnapshot since(const MetricsSnapshot& earlier) const;

  friend bool operator==(const MetricsSnapshot& a, const MetricsSnapshot& b) = default;
};

/// One log-bucketed latency histogram, concurrently recordable.  The atomic
/// counters are independent, so a snapshot taken while writers run is some
/// linearizable interleaving — exact totals are only promised once the
/// writers are quiesced (how every caller uses it: batches snapshot after
/// their workers joined, the serve dispatcher is single-threaded).
class LatencyHistogram {
 public:
  /// Records one sample.  Lock-free: two relaxed fetch_adds.
  void record(std::uint64_t value) {
    buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> total_{0};
};

/// A set of phase histograms plus the enabled switch.  `global()` is the
/// process-wide registry every instrumented call site records into.
class Registry {
 public:
  /// The process-wide registry.
  [[nodiscard]] static Registry& global();

  /// Records `nanos` into the phase's histogram (even when disabled — the
  /// switch gates the *timers*, which own the expensive clock reads).
  void record(Phase phase, std::uint64_t nanos) {
    histograms_[static_cast<std::size_t>(phase)].record(nanos);
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Gates PhaseTimer clock reads; flipping it never loses already-recorded
  /// samples.  Enabled by default.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  std::array<LatencyHistogram, kPhaseCount> histograms_{};
  std::atomic<bool> enabled_{true};
};

/// Per-job phase durations, summed across the spans one job opened — the
/// payload of a trace event.  A worker installs a frame around each job
/// (see ScopedJobFrame); every PhaseTimer on that thread then adds its span
/// to the frame as well as to the registry.
struct JobFrame {
  std::array<std::uint64_t, kPhaseCount> nanos{};

  [[nodiscard]] std::uint64_t operator[](Phase phase) const {
    return nanos[static_cast<std::size_t>(phase)];
  }
};

/// Installs `frame` as this thread's active job frame for the current
/// scope.  Frames do not nest (jobs do not run jobs); the previous pointer
/// is restored on exit so scratch reuse across jobs stays clean.
class ScopedJobFrame {
 public:
  explicit ScopedJobFrame(JobFrame& frame);
  ~ScopedJobFrame();

  ScopedJobFrame(const ScopedJobFrame&) = delete;
  ScopedJobFrame& operator=(const ScopedJobFrame&) = delete;

  /// The calling thread's active frame, or null outside any job.
  [[nodiscard]] static JobFrame* active();

 private:
  JobFrame* previous_ = nullptr;
};

/// RAII phase span: construction stamps the start, destruction records the
/// elapsed nanoseconds into the registry (and the thread's active JobFrame,
/// if any).  When the registry is disabled at construction the timer is
/// inert — no clock is ever read.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase phase, Registry& registry = Registry::global())
      : registry_(registry.enabled() ? &registry : nullptr), phase_(phase) {
    if (registry_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~PhaseTimer() {
    if (registry_ == nullptr) {
      return;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    registry_->record(phase_, nanos);
    if (JobFrame* frame = ScopedJobFrame::active()) {
      frame->nanos[static_cast<std::size_t>(phase_)] += nanos;
    }
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Registry* registry_;  ///< null when the span is inert (metrics disabled)
  Phase phase_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace arl::obs
