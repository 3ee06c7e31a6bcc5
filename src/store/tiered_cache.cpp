#include "store/tiered_cache.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace arl::store {

TieredScheduleCache::TieredScheduleCache(std::string directory, std::size_t memory_capacity)
    : memory_(memory_capacity), artifacts_(std::move(directory)) {}

std::shared_ptr<const core::CompiledConfiguration> TieredScheduleCache::lookup(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier) {
  if (auto hit = memory_.lookup(configuration, model, fast_classifier)) {
    return hit;
  }
  if (auto loaded = artifacts_.load(configuration, model, fast_classifier)) {
    // Promote the disk hit so repeat lookups stay in memory.  Nothing was
    // compiled, so the promotion counts no schedule build.
    const obs::PhaseTimer span(obs::Phase::CachePromote);
    return memory_.promote(configuration, model, fast_classifier, std::move(loaded));
  }
  return nullptr;
}

std::shared_ptr<const core::CompiledConfiguration> TieredScheduleCache::store(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier,
    core::CompiledConfiguration compiled) {
  // Write-through: memory first, then the same entry to disk.
  auto stored = memory_.store(configuration, model, fast_classifier, std::move(compiled));
  artifacts_.save(configuration, model, fast_classifier, *stored);
  return stored;
}

}  // namespace arl::store
