#pragma once

/// \file tiered_cache.hpp
/// Two-tier schedule cache: the engine's in-memory sharded LRU in front of
/// the on-disk artifact store, both behind `core::ScheduleCacheHandle`.
///
/// Lookups probe memory first; a memory miss falls through to the store,
/// and a verified disk hit is promoted into the memory tier so repeat
/// lookups stay off the filesystem (a promotion is not a schedule build).
/// Both tiers hold only complete entries (classification and schedule), so
/// a disk hit serves any protocol and a miss on a missing, stale-format or
/// corrupt file compiles and overwrites it.  Stores are write-through: the entry
/// lands in the LRU *and* on disk immediately, so a SIGKILL at any point
/// loses at most the artifact currently being compiled — an
/// eviction-triggered spill would instead lose every dirty entry still
/// resident.  Both tiers verify the full (configuration, model, classifier)
/// key on a match, so the tiered handle inherits the contract that a digest
/// collision or a corrupt file degrades to a miss, never to wrong
/// artifacts, and store-on runs stay bit-identical to store-off runs.

#include <memory>
#include <string>

#include "engine/schedule_cache.hpp"
#include "store/artifact_store.hpp"

namespace arl::store {

class TieredScheduleCache final : public core::ScheduleCacheHandle {
 public:
  /// Opens (creating if needed) the store at `directory` with an in-memory
  /// tier of `memory_capacity` entries.
  TieredScheduleCache(std::string directory, std::size_t memory_capacity);

  TieredScheduleCache(const TieredScheduleCache&) = delete;
  TieredScheduleCache& operator=(const TieredScheduleCache&) = delete;

  [[nodiscard]] std::shared_ptr<const core::CompiledConfiguration> lookup(
      const config::Configuration& configuration, radio::ChannelModel model,
      bool fast_classifier) override;

  std::shared_ptr<const core::CompiledConfiguration> store(
      const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier,
      core::CompiledConfiguration compiled) override;

  /// The memory tier (a full `ScheduleCacheHandle` of its own — handing it
  /// out as the shared cache is how a request opts out of the disk tier
  /// without giving up the warm LRU).
  [[nodiscard]] engine::ScheduleCache& memory() { return memory_; }

  /// The disk tier.
  [[nodiscard]] ArtifactStore& artifacts() { return artifacts_; }

 private:
  engine::ScheduleCache memory_;
  ArtifactStore artifacts_;
};

}  // namespace arl::store
