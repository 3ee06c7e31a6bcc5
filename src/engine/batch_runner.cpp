#include "engine/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <utility>

#include "store/tiered_cache.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace arl::engine {

std::uint64_t job_coin_seed(std::uint64_t batch_seed, JobId id) {
  return support::Rng(batch_seed).split(id).next();
}

double ProtocolBreakdown::average_local_rounds() const {
  if (jobs == 0) {
    return 0.0;
  }
  return static_cast<double>(total_local_rounds) / static_cast<double>(jobs);
}

double BatchReport::throughput() const {
  if (wall_millis <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(jobs.size()) / (wall_millis / 1e3);
}

double BatchReport::node_rounds_per_second() const {
  if (wall_millis <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(total_stats.node_rounds) / (wall_millis / 1e3);
}

namespace {

/// Executes one job on one worker's scratch and condenses the report.
JobOutcome execute_job(const BatchJob& job, JobId id, std::uint64_t batch_seed,
                       const fault::FaultSpec& fault_spec, core::ElectionScratch& scratch,
                       core::ElectionReport* keep, obs::TraceSink* trace) {
  // The frame collects this job's phase spans (classify, simulate, store
  // I/O, ...) via the thread-local PhaseTimer hook — per-job attribution
  // without threading a parameter through core::run_protocol.
  obs::JobFrame frame;
  const obs::ScopedJobFrame active_frame(frame);

  core::ElectionOptions options = job.options;
  options.simulator.coin_seed = job_coin_seed(batch_seed, id);
  if (fault_spec.active()) {
    // Per-job fault seed from the reserved fault stream — a pure function
    // of (batch seed, global job id), mirroring the coin-seed discipline.
    options.simulator.fault = {fault_spec, fault::job_fault_seed(batch_seed, id)};
  }
  // Result histories are skipped: no batch consumer reads them, and
  // ElectionReport never retains them, so outcomes are unchanged.  The
  // simulator loop stays the job's own choice: the bitset default runs
  // every job, faulted or traced ones included; the parity tests select the
  // scalar reference per job.
  options.simulator.keep_histories = false;

  core::ElectionReport report = core::run_protocol(job.configuration, job.protocol, options,
                                                   scratch);

  JobOutcome outcome;
  outcome.id = id;
  outcome.protocol = job.protocol;
  // Recorded unconditionally so any BatchReport can become a shard report
  // (dist/report_io.hpp serializes it per job); the O(n+m) hash is noise
  // next to the classification/simulation every job already pays.
  outcome.config_fingerprint = config::fingerprint(job.configuration);
  outcome.disposition = report.disposition;
  outcome.nodes = job.configuration.size();
  outcome.span = job.configuration.span();
  outcome.feasible = report.feasible;
  outcome.simulated = report.simulated;
  outcome.valid = report.valid;
  outcome.leader = report.leader;
  outcome.classifier_iterations = report.classification->iterations;
  outcome.classifier_steps = report.classification->steps;
  outcome.local_rounds = report.local_rounds;
  outcome.global_rounds = report.global_rounds;
  outcome.stats = report.stats;
  if (keep != nullptr) {
    *keep = std::move(report);
  }

  if (trace != nullptr) {
    obs::TraceEvent event;
    event.job_id = id;
    event.protocol = outcome.protocol.name();
    event.config_fingerprint = outcome.config_fingerprint;
    event.nodes = outcome.nodes;
    event.span = outcome.span;
    event.disposition = core::to_string(outcome.disposition);
    event.feasible = outcome.feasible;
    event.simulated = outcome.simulated;
    event.valid = outcome.valid;
    event.local_rounds = outcome.local_rounds;
    event.injected = outcome.stats.injected_drops + outcome.stats.injected_corruptions +
                     outcome.stats.injected_crashes + outcome.stats.delayed_wakeups;
    event.frame = frame;
    trace->emit(event);
  }
  return outcome;
}

void accumulate(radio::RunStats& total, const radio::RunStats& stats) {
  total.transmissions += stats.transmissions;
  total.clean_receptions += stats.clean_receptions;
  total.collisions_heard += stats.collisions_heard;
  total.forced_wakeups += stats.forced_wakeups;
  total.node_rounds += stats.node_rounds;
  // Per-node maxima combine by max (the busiest node across the batch);
  // injected-event counts sum like the other totals.
  total.max_node_transmissions = std::max(total.max_node_transmissions,
                                          stats.max_node_transmissions);
  total.max_node_awake_rounds = std::max(total.max_node_awake_rounds,
                                         stats.max_node_awake_rounds);
  total.injected_drops += stats.injected_drops;
  total.injected_corruptions += stats.injected_corruptions;
  total.injected_crashes += stats.injected_crashes;
  total.delayed_wakeups += stats.delayed_wakeups;
}

}  // namespace

BatchRunner::BatchRunner(BatchOptions options)
    : options_(options), pool_(options.threads) {}

template <typename Fetch>
BatchReport BatchRunner::run_batch(JobId begin, JobId end, const Fetch& fetch,
                                   const RunOverrides& overrides) {
  ARL_EXPECTS(begin <= end, "job range must have begin <= end");
  ARL_EXPECTS(!overrides.max_threads || *overrides.max_threads >= 1,
              "RunOverrides::max_threads must be >= 1");
  support::Stopwatch watch;
  // Phase timing is attributed to this batch as registry growth between here
  // and the last worker joining — the ScheduleCacheStats::since idiom.  When
  // metrics are disabled every PhaseTimer is inert, so the delta would be
  // all zeros; skip the snapshots entirely and leave report.phases unset.
  obs::Registry& registry = obs::Registry::global();
  const bool metrics_on = registry.enabled();
  const obs::MetricsSnapshot phases_before = metrics_on ? registry.snapshot()
                                                        : obs::MetricsSnapshot{};
  const JobId count = end - begin;
  const std::uint64_t seed = overrides.seed.value_or(options_.seed);
  const fault::FaultSpec fault = overrides.fault.value_or(options_.fault);
  BatchReport report;
  report.fault = fault;
  report.jobs.resize(count);
  if (options_.keep_reports) {
    report.reports.resize(count);
  }

  // One schedule cache per batch, shared by every worker (it is sharded and
  // thread-safe), so jobs that repeat a configuration — cross-protocol
  // head-to-heads, mutation sweeps — compile it once.  Per batch, not per
  // runner: stats describe one batch and entries never leak across runs.
  // An overriding shared cache replaces it entirely: entries then live as
  // long as its owner (the sweep service's warm cross-request cache), and
  // the owner — not this batch — accounts its stats.
  // A store directory upgrades the per-batch cache to the two-tier handle:
  // same memory LRU in front, with the on-disk store preloading cold keys
  // and persisting fresh compiles across the process boundary.
  std::optional<ScheduleCache> cache;
  std::unique_ptr<store::TieredScheduleCache> tiered;
  if (overrides.shared_cache == nullptr) {
    if (!options_.store_directory.empty()) {
      const std::size_t memory_capacity =
          options_.cache_capacity > 0 ? options_.cache_capacity : ScheduleCache::kDefaultCapacity;
      tiered = std::make_unique<store::TieredScheduleCache>(options_.store_directory,
                                                            memory_capacity);
    } else if (options_.cache_capacity > 0) {
      cache.emplace(options_.cache_capacity);
    }
  }
  core::ScheduleCacheHandle* const cache_handle =
      overrides.shared_cache != nullptr
          ? overrides.shared_cache
          : (tiered ? static_cast<core::ScheduleCacheHandle*>(tiered.get())
                    : (cache ? &*cache : nullptr));

  // One long-lived task per worker, pulling job ids from a shared counter:
  // dynamic load balancing without per-job scheduling overhead, and each
  // worker's ElectionScratch is reused across every job it claims.
  std::size_t workers =
      count == 0 ? 0 : std::min<std::size_t>(pool_.size(), static_cast<std::size_t>(count));
  if (overrides.max_threads) {
    workers = std::min(workers, *overrides.max_threads);
  }
  // Workers claim *global* job ids: seeding and recorded outcomes use the
  // id the job has in the whole sweep, while result slots are range-local —
  // which is exactly why a shard run reproduces the unsharded jobs bit for
  // bit (the shard offset never reaches job_coin_seed).
  std::atomic<JobId> next{begin};
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(pool_.submit(
        [this, begin, end, &fetch, &next, &report, cache_handle, seed, &fault]() {
          core::ElectionScratch scratch;
          scratch.schedule_cache = cache_handle;
          for (JobId id = next.fetch_add(1); id < end; id = next.fetch_add(1)) {
            decltype(auto) job = fetch(id);
            core::ElectionReport* keep =
                options_.keep_reports ? &report.reports[id - begin] : nullptr;
            report.jobs[id - begin] =
                execute_job(job, id, seed, fault, scratch, keep, options_.job_trace);
          }
        }));
  }

  // Wait for every worker before rethrowing: the tasks capture locals by
  // reference, so no worker may outlive this frame.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }

  aggregate_outcomes(report);
  report.threads_used = workers;
  if (cache) {
    report.cache = cache->stats();
  }
  if (tiered) {
    report.cache = tiered->memory().stats();
    report.artifact_store = tiered->artifacts().stats();
  }
  if (metrics_on) {
    report.phases = registry.snapshot().since(phases_before);
  }
  report.wall_millis = watch.millis();
  return report;
}

BatchReport BatchRunner::run(const std::vector<BatchJob>& jobs) {
  return run_batch(0, static_cast<JobId>(jobs.size()),
                   [&jobs](JobId id) -> const BatchJob& {
                     return jobs[static_cast<std::size_t>(id)];
                   },
                   {});
}

BatchReport BatchRunner::run(JobId count, const JobSource& source) {
  return run_batch(0, count, [&source](JobId id) { return source(id); }, {});
}

BatchReport BatchRunner::run_range(JobId begin, JobId end, const JobSource& source) {
  return run_batch(begin, end, [&source](JobId id) { return source(id); }, {});
}

BatchReport BatchRunner::run_range(JobId begin, JobId end, const JobSource& source,
                                   const RunOverrides& overrides) {
  return run_batch(begin, end, [&source](JobId id) { return source(id); }, overrides);
}

BatchReport run_batch(const std::vector<BatchJob>& jobs, BatchOptions options) {
  BatchRunner runner(options);
  return runner.run(jobs);
}

void aggregate_outcomes(BatchReport& report) {
  report.by_protocol.clear();
  report.feasible_count = 0;
  report.valid_count = 0;
  report.total_local_rounds = 0;
  report.max_local_rounds = 0;
  report.total_global_rounds = 0;
  report.total_stats = {};
  for (const JobOutcome& outcome : report.jobs) {
    report.feasible_count += outcome.feasible ? 1 : 0;
    report.valid_count += outcome.valid ? 1 : 0;
    report.total_local_rounds += outcome.local_rounds;
    report.max_local_rounds = std::max(report.max_local_rounds, outcome.local_rounds);
    report.total_global_rounds += outcome.global_rounds;
    accumulate(report.total_stats, outcome.stats);

    // Per-protocol breakdown, keyed by registry name in order of first
    // appearance (job-id order, so the rows are deterministic).
    auto row =
        std::find_if(report.by_protocol.begin(), report.by_protocol.end(),
                     [&](const ProtocolBreakdown& b) { return b.protocol == outcome.protocol; });
    if (row == report.by_protocol.end()) {
      ProtocolBreakdown fresh;
      fresh.protocol = outcome.protocol;
      report.by_protocol.push_back(std::move(fresh));
      row = std::prev(report.by_protocol.end());
    }
    row->jobs += 1;
    row->feasible += outcome.feasible ? 1 : 0;
    row->valid += outcome.valid ? 1 : 0;
    row->elected += outcome.disposition == core::Disposition::Elected ? 1 : 0;
    row->no_leader += outcome.disposition == core::Disposition::NoLeader ? 1 : 0;
    row->failed += outcome.disposition == core::Disposition::Failed ? 1 : 0;
    row->detected_fault += outcome.disposition == core::Disposition::DetectedFault ? 1 : 0;
    row->total_local_rounds += outcome.local_rounds;
    row->max_local_rounds = std::max(row->max_local_rounds, outcome.local_rounds);
    accumulate(row->stats, outcome.stats);
  }
}

bool same_results(const BatchReport& a, const BatchReport& b) {
  return a.jobs == b.jobs && a.by_protocol == b.by_protocol && a.fault == b.fault &&
         a.feasible_count == b.feasible_count && a.valid_count == b.valid_count &&
         a.total_local_rounds == b.total_local_rounds &&
         a.max_local_rounds == b.max_local_rounds &&
         a.total_global_rounds == b.total_global_rounds && a.total_stats == b.total_stats;
}

}  // namespace arl::engine
