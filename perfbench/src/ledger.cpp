#include <algorithm>
#include <iostream>

#include "workloads.hpp"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

namespace {

/// Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"workload.busy_ms", "ms"},          {"workload.configs", "count"},
      {"classify.busy_ms", "ms"},          {"classify.calls", "count"},
      {"classify.steps", "count"},         {"compile.busy_ms", "ms"},
      {"compile.calls", "count"},          {"simulate.busy_ms", "ms"},
      {"simulate.node_rounds", "count"},   {"simulate.global_rounds", "count"},
      {"simulate.transmissions", "count"}, {"simulate.ns_per_node_round", "ns"},
      {"cache.hits", "count"},             {"cache.misses", "count"},
      {"cache.lookup_ms", "ms"},           {"cache.duplicate_compiles", "count"},
      {"store.loads", "count"},            {"store.load_ms", "ms"},
      {"store.saves", "count"},            {"store.save_ms", "ms"},
      {"store.skipped", "count"},          {"store.rejected", "count"},
      {"store.bytes", "bytes"},            {"wire.encode_ms", "ms"},
      {"wire.decode_ms", "ms"},            {"wire.bytes", "bytes"},
      {"serve.round_trip_ms_p50", "ms"},   {"serve.overhead_ms_p50", "ms"},
      {"serve.busy_rejections", "count"},  {"fault.injected_events", "count"},
      {"batch.self_ms", "ms"},             {"trace.traced_jobs_per_s", "1/s"},
      {"trace.untraced_jobs_per_s", "1/s"},
  };
  return metrics;
}

double value_of(const LayerPass& pass, const std::string& name) {
  const auto found = pass.find(name);
  return found == pass.end() ? 0.0 : found->second;
}

}  // namespace

const std::vector<std::string>& exact_local_counters() {
  static const std::vector<std::string> names = {
      "workload.configs",     "classify.calls",         "classify.steps",
      "compile.calls",        "simulate.node_rounds",   "simulate.global_rounds",
      "simulate.transmissions", "cache.hits",           "cache.misses",
      "cache.duplicate_compiles", "store.loads",        "store.saves",
      "store.skipped",        "store.rejected",         "store.bytes",
      "fault.injected_events",
  };
  return names;
}

const std::vector<std::string>& exact_served_counters() {
  static const std::vector<std::string> names = {
      "workload.configs",       "classify.calls",         "classify.steps",
      "compile.calls",          "simulate.node_rounds",   "simulate.global_rounds",
      "simulate.transmissions", "fault.injected_events",
  };
  return names;
}

double add_replay_layers(LayerPass& pass, const Tracer& tracer, const LayerCounts& counts) {
  std::map<std::string, double> self = tracer.self_ms();
  const auto as_double = [](std::uint64_t count) { return static_cast<double>(count); };
  pass["workload.busy_ms"] = self["workload"];
  pass["workload.configs"] = as_double(counts.configs);
  pass["classify.busy_ms"] = self["classify"];
  pass["classify.calls"] = as_double(counts.classify_calls);
  pass["classify.steps"] = as_double(counts.classify_steps);
  pass["compile.busy_ms"] = self["compile"];
  pass["compile.calls"] = as_double(counts.compile_calls);
  pass["simulate.busy_ms"] = self["simulate"];
  pass["simulate.node_rounds"] = as_double(counts.node_rounds);
  pass["simulate.global_rounds"] = as_double(counts.global_rounds);
  pass["simulate.transmissions"] = as_double(counts.transmissions);
  pass["simulate.ns_per_node_round"] =
      counts.node_rounds == 0 ? 0.0 : self["simulate"] * 1e6 / as_double(counts.node_rounds);
  pass["cache.lookup_ms"] = self["cache"];
  pass["store.load_ms"] = self["store"];
  pass["fault.injected_events"] = as_double(counts.injected_events);
  double layers_ms = 0.0;
  for (const char* layer : {"workload", "cache", "store", "classify", "compile", "simulate"}) {
    layers_ms += self[layer];
  }
  return layers_ms;
}

void report_ledger(Result& result, const std::vector<LayerPass>& passes,
                   const std::vector<std::string>& exact) {
  for (const std::string& name : exact) {
    for (const LayerPass& pass : passes) {
      if (value_of(pass, name) != value_of(passes.front(), name)) {
        std::cerr << "perfbench: exact counter " << name << " differs between traced passes\n";
        result.correct = false;
      }
    }
  }
  for (const auto& [name, unit] : layer_metrics()) {
    std::vector<double> values;
    values.reserve(passes.size());
    for (const LayerPass& pass : passes) {
      values.push_back(value_of(pass, name));
    }
    result.add(name, median(values), unit);
  }
  result.note("trace.passes", static_cast<double>(passes.size()), "count");
  result.exact = exact;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void release_freed_memory() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

std::uint64_t count_mismatches(const arl::engine::BatchReport& got,
                               const arl::engine::BatchReport& reference) {
  std::uint64_t mismatches = 0;
  for (const arl::engine::JobOutcome& job : got.jobs) {
    const bool known = job.id < reference.jobs.size();
    mismatches += known && job == reference.jobs[job.id] ? 0 : 1;
  }
  return mismatches;
}

void corrupt(arl::engine::BatchReport& reference) {
  for (arl::engine::JobOutcome& job : reference.jobs) {
    job.global_rounds += 1;
  }
  arl::engine::aggregate_outcomes(reference);
}

}  // namespace perfbench
