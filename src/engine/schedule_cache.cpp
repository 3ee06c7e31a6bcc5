#include "engine/schedule_cache.hpp"

#include <algorithm>
#include <utility>

#include "config/fingerprint.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"

namespace arl::engine {

namespace {

/// The full cache key: configuration fingerprint mixed with the compile
/// options (the classification depends on both the channel model and the
/// classifier implementation, so the same configuration under different
/// options must occupy different entries).
std::uint64_t slot_key(const config::Configuration& configuration, radio::ChannelModel model,
                       bool fast_classifier) {
  return support::Hash64(config::fingerprint(configuration))
      .absorb(static_cast<std::uint64_t>(model))
      .absorb(fast_classifier ? 1 : 0)
      .digest();
}

std::size_t round_down_pow2(std::size_t value) {
  std::size_t pow2 = 1;
  while (pow2 * 2 <= value) {
    pow2 <<= 1;
  }
  return pow2;
}

}  // namespace

double ScheduleCacheStats::hit_rate() const {
  const std::uint64_t lookups = hits + misses;
  if (lookups == 0) {
    return 0.0;
  }
  return static_cast<double>(hits) / static_cast<double>(lookups);
}

ScheduleCacheStats ScheduleCacheStats::since(const ScheduleCacheStats& earlier) const {
  ARL_EXPECTS(hits >= earlier.hits && misses >= earlier.misses &&
                  evictions >= earlier.evictions && schedule_builds >= earlier.schedule_builds,
              "ScheduleCacheStats::since needs an earlier snapshot of the same cache");
  ScheduleCacheStats delta;
  delta.hits = hits - earlier.hits;
  delta.misses = misses - earlier.misses;
  delta.evictions = evictions - earlier.evictions;
  delta.schedule_builds = schedule_builds - earlier.schedule_builds;
  delta.entries = entries;
  return delta;
}

ScheduleCache::ScheduleCache(std::size_t capacity, std::size_t shards) {
  ARL_EXPECTS(capacity >= 1, "ScheduleCache capacity must be >= 1");
  if (shards == 0) {
    shards = 8;
  }
  // Rounding the shard count *down* to a power of two and the per-shard
  // slice down as well keeps the total bound at or under the requested
  // capacity (never over it).
  const std::size_t shard_count = round_down_pow2(std::min(shards, capacity));
  shard_capacity_ = capacity / shard_count;
  shards_ = std::vector<Shard>(shard_count);
}

ScheduleCache::Shard& ScheduleCache::shard_for(std::uint64_t key) {
  // The low bits select the index bucket inside a shard; use high bits for
  // the shard so the two selections stay independent.
  return shards_[(key >> 48) & (shards_.size() - 1)];
}

std::shared_ptr<const core::CompiledConfiguration> ScheduleCache::lookup(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier) {
  const std::uint64_t key = slot_key(configuration, model, fast_classifier);
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto found = shard.index.find(key);
  // A digest match must also be an exact match — model, classifier choice
  // and the configuration itself — or it is a collision and reads as a miss.
  if (found == shard.index.end() || found->second->model != model ||
      found->second->fast_classifier != fast_classifier ||
      found->second->configuration != configuration) {
    shard.misses += 1;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
  shard.hits += 1;
  return found->second->compiled;
}

std::shared_ptr<const core::CompiledConfiguration> ScheduleCache::store(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier,
    core::CompiledConfiguration compiled) {
  ARL_EXPECTS(compiled.schedule != nullptr, "ScheduleCache::store needs the compiled schedule");
  return insert(configuration, model, fast_classifier,
                std::make_shared<const core::CompiledConfiguration>(std::move(compiled)),
                /*built=*/true);
}

std::shared_ptr<const core::CompiledConfiguration> ScheduleCache::promote(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier,
    std::shared_ptr<const core::CompiledConfiguration> loaded) {
  ARL_EXPECTS(loaded != nullptr && loaded->schedule != nullptr,
              "ScheduleCache::promote needs a complete entry");
  return insert(configuration, model, fast_classifier, std::move(loaded), /*built=*/false);
}

std::shared_ptr<const core::CompiledConfiguration> ScheduleCache::insert(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier,
    std::shared_ptr<const core::CompiledConfiguration> entry, bool built) {
  const std::uint64_t key = slot_key(configuration, model, fast_classifier);
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (built) {
    shard.schedule_builds += 1;
  }
  const auto found = shard.index.find(key);
  if (found != shard.index.end()) {
    // Replacement: a racing worker's duplicate compile (the same artifacts)
    // or, astronomically rarely, a digest collision.  The verification
    // fields are rewritten with the artifacts, so a later lookup verifies
    // against the configuration they were compiled from.
    Slot& slot = *found->second;
    slot.configuration = configuration;
    slot.model = model;
    slot.fast_classifier = fast_classifier;
    slot.compiled = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
    return slot.compiled;
  }
  shard.lru.push_front(Slot{key, configuration, model, fast_classifier, std::move(entry)});
  shard.index.emplace(key, shard.lru.begin());
  if (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    shard.evictions += 1;
  }
  return shard.lru.front().compiled;
}

ScheduleCacheStats ScheduleCache::stats() const {
  ScheduleCacheStats total;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.evictions += shard.evictions;
    total.schedule_builds += shard.schedule_builds;
    total.entries += shard.lru.size();
  }
  return total;
}

void ScheduleCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.clear();
    shard.lru.clear();
  }
}

std::size_t ScheduleCache::capacity() const { return shard_capacity_ * shards_.size(); }

}  // namespace arl::engine
