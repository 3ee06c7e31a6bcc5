#pragma once

/// \file replay.hpp
/// The traced replay of one election job: the pipeline `core::run_protocol`
/// performs for the classifying protocols, re-driven from outside through
/// each layer's public functions so every layer call gets its own span —
///
///   source(id) → cache lookup (→ store load) → Classifier::run →
///   build_schedule → cache store (→ store save) → radio::simulate
///
/// — followed by the engine's verification and outcome condensation.  The
/// result is a JobOutcome the caller compares with the BatchRunner's, so the
/// trace is known to measure the same work the untraced run does.

#include <cstdint>

#include "engine/batch_runner.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/sweep.hpp"
#include "fault/fault.hpp"
#include "radio/simulator.hpp"
#include "store/artifact_store.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Exact work counters of replayed jobs (pure functions of the jobs).
struct LayerCounts {
  std::uint64_t configs = 0;          ///< configurations built by source(id)
  std::uint64_t classify_calls = 0;
  std::uint64_t classify_steps = 0;   ///< the Lemma 3.5 basic-operation counter
  std::uint64_t compile_calls = 0;
  std::uint64_t node_rounds = 0;
  std::uint64_t global_rounds = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t injected_events = 0;  ///< drops + corruptions + crashes + delayed wakeups
  std::uint64_t store_bytes = 0;      ///< entry bytes loaded from or saved to the store
};

/// The cache tiers a replayed job consults, mirroring what the BatchRunner
/// would hand run_protocol: none, a memory LRU, or a memory LRU in front of
/// the on-disk store (the store::TieredScheduleCache arrangement).
struct Tiers {
  arl::engine::ScheduleCache* memory = nullptr;
  arl::store::ArtifactStore* disk = nullptr;  ///< only together with `memory`
};

/// Replays job `id` of `sweep` under batch seed `seed` and fault `fault`.
/// Only the canonical and classify-only protocols are supported (the
/// benchmark's workloads use nothing else); others throw.
[[nodiscard]] arl::engine::JobOutcome replay_job(const arl::engine::CountedSweep& sweep,
                                                 arl::engine::JobId id, std::uint64_t seed,
                                                 const arl::fault::FaultSpec& fault, Tiers tiers,
                                                 arl::radio::SimulatorScratch& scratch,
                                                 Tracer& tracer, LayerCounts& counts);

}  // namespace perfbench
