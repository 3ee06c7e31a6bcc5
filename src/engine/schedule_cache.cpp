#include "engine/schedule_cache.hpp"

#include <algorithm>
#include <utility>

#include "config/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"

namespace arl::engine {

namespace {

/// There is one classifier, so get() keys every entry with the classifier
/// bit false: existing memory and disk keys keep their bytes.
constexpr bool kOneClassifier = false;

/// Memory shards of a cache large enough to fill them.
constexpr std::size_t kShards = 8;

/// The full cache key: configuration fingerprint mixed with the channel
/// model (the classification depends on it, so the same configuration under
/// different models must occupy different entries) and the classifier bit.
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

ScheduleCache::ScheduleCache(std::size_t capacity, std::string store_directory) {
  ARL_EXPECTS(capacity >= 1, "ScheduleCache capacity must be >= 1");
  // Rounding the shard count *down* to a power of two and the per-shard
  // slice down as well keeps the total bound at or under the requested
  // capacity (never over it).
  const std::size_t shard_count = round_down_pow2(std::min(kShards, capacity));
  shard_capacity_ = capacity / shard_count;
  shards_ = std::vector<Shard>(shard_count);
  if (!store_directory.empty()) {
    artifacts_.emplace(std::move(store_directory));
  }
}

class ScheduleCache::Claim {
 public:
  Claim(Shard& shard, std::uint64_t key) : shard_(shard), key_(key) {}
  Claim(const Claim&) = delete;
  Claim& operator=(const Claim&) = delete;
  ~Claim() {
    {
      const std::lock_guard<std::mutex> lock(shard_.mutex);
      std::erase(shard_.in_flight, key_);
    }
    shard_.settled.notify_all();
  }

 private:
  Shard& shard_;
  std::uint64_t key_;
};

ScheduleCache::Shard& ScheduleCache::shard_for(std::uint64_t key) {
  // The low bits select the index bucket inside a shard; use high bits for
  // the shard so the two selections stay independent.
  return shards_[(key >> 48) & (shards_.size() - 1)];
}

std::shared_ptr<const core::CompiledConfiguration> ScheduleCache::probe(
    Shard& shard, std::uint64_t key, const config::Configuration& configuration,
    radio::ChannelModel model, bool fast_classifier) {
  const auto found = shard.index.find(key);
  // A digest match must also be an exact match — model, classifier bit and
  // the configuration itself — or it is a collision and reads as a miss.
  if (found == shard.index.end() || found->second->model != model ||
      found->second->fast_classifier != fast_classifier ||
      found->second->configuration != configuration) {
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
  return found->second->compiled;
}

std::shared_ptr<const core::CompiledConfiguration> ScheduleCache::get(
    const config::Configuration& configuration, radio::ChannelModel model) {
  const std::uint64_t key = slot_key(configuration, model, kOneClassifier);
  Shard& shard = shard_for(key);
  std::optional<Claim> claim;
  {
    const obs::PhaseTimer span(obs::Phase::CacheLookup);
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      for (;;) {
        if (auto hit = probe(shard, key, configuration, model, kOneClassifier)) {
          shard.hits += 1;
          return hit;
        }
        if (std::find(shard.in_flight.begin(), shard.in_flight.end(), key) ==
            shard.in_flight.end()) {
          break;
        }
        // Another thread is loading or compiling this key: wait for its
        // entry instead of compiling it a second time.
        shard.settled.wait(lock);
      }
      shard.misses += 1;
      shard.in_flight.push_back(key);
      claim.emplace(shard, key);
    }
    if (artifacts_) {
      if (auto loaded = artifacts_->load(configuration, model, kOneClassifier)) {
        // Nothing was compiled, so the promotion counts no schedule build;
        // the loaded artifacts are kept, not copied.
        const obs::PhaseTimer promote_span(obs::Phase::CachePromote);
        return insert(key, configuration, model, kOneClassifier, std::move(loaded),
                      /*built=*/false);
      }
    }
  }
  return store(configuration, model, kOneClassifier, core::compile(configuration, model));
}

std::shared_ptr<const core::CompiledConfiguration> ScheduleCache::lookup(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier) {
  const std::uint64_t key = slot_key(configuration, model, fast_classifier);
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  auto hit = probe(shard, key, configuration, model, fast_classifier);
  (hit ? shard.hits : shard.misses) += 1;
  return hit;
}

std::shared_ptr<const core::CompiledConfiguration> ScheduleCache::store(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier,
    core::CompiledConfiguration compiled) {
  ARL_EXPECTS(compiled.schedule != nullptr, "ScheduleCache::store needs the compiled schedule");
  auto stored = insert(slot_key(configuration, model, fast_classifier), configuration, model,
                       fast_classifier,
                       std::make_shared<const core::CompiledConfiguration>(std::move(compiled)),
                       /*built=*/true);
  if (artifacts_) {
    artifacts_->save(configuration, model, fast_classifier, *stored);
  }
  return stored;
}

std::shared_ptr<const core::CompiledConfiguration> ScheduleCache::insert(
    std::uint64_t key, const config::Configuration& configuration, radio::ChannelModel model,
    bool fast_classifier, std::shared_ptr<const core::CompiledConfiguration> entry, bool built) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (built) {
    shard.schedule_builds += 1;
  }
  const auto found = shard.index.find(key);
  if (found != shard.index.end()) {
    // Replacement: a store() racing get() or another store() on the same
    // key (the same artifacts) or, astronomically rarely, a digest
    // collision.  The verification fields are rewritten with the artifacts,
    // so a later lookup verifies against the configuration they were
    // compiled from.
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
