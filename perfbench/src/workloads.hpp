#pragma once

/// \file workloads.hpp
/// The four workloads and the per-layer ledger they report when traced.

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "replay.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Runs one of the local workloads (sparse-sim, dense-classify,
/// store-preloaded); false when `args.workload` names none of them.
bool run_local(const Args& args, Result& result);

/// Runs the served workload.
void run_served(const Args& args, Result& result);

/// One traced pass's per-layer values, keyed by metric name.
using LayerPass = std::map<std::string, double>;

/// Adds every per-layer metric to `result` as its median over `passes`
/// (a name a pass did not set reads 0).  Every name in `exact` must read the
/// same in every pass; a counter that does not repeat marks the run
/// incorrect.
void report_ledger(Result& result, const std::vector<LayerPass>& passes,
                   const std::vector<std::string>& exact);

/// The per-layer counters that are exact on the single-threaded workloads.
const std::vector<std::string>& exact_local_counters();

/// The per-layer counters that are exact on served: those of the replay.
/// The server's cache counters are not, because two pool workers can miss
/// on one configuration at once (the memory tier has no single-flight);
/// nor are busy rejections and wire bytes, which depend on timing.
const std::vector<std::string>& exact_served_counters();

/// Sets the metrics a traced replay measures — the workload, classify,
/// compile and simulate layers, cache and store busy time, injected faults —
/// and returns the summed self time of those layers (ms).
double add_replay_layers(LayerPass& pass, const Tracer& tracer, const LayerCounts& counts);

}  // namespace perfbench
