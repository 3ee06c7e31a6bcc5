#pragma once

/// \file schedule_cache.hpp
/// The engine's schedule/classification cache: a sharded, thread-safe,
/// bounded LRU map from configuration fingerprints to compiled artifacts
/// (`core::CompiledConfiguration` — the Classifier run plus the canonical
/// schedule built from it), optionally backed by the on-disk artifact store.
///
/// Why it exists: the canonical DRIP compiles per-configuration knowledge
/// before any simulation, and mutation sweeps / `cross_protocols` batches
/// deliberately run consecutive jobs on the *same* configuration — so
/// without a cache every one of those jobs re-classifies (O(n³Δ)) and
/// re-compiles from scratch.  One `ScheduleCache` shared by all of a
/// `BatchRunner`'s workers classifies once per distinct configuration
/// instead of once per job.  Entries are keyed by `config::fingerprint`, the
/// stable digest that survives a process boundary, which is what lets the
/// disk tier persist them.
///
/// `get()` is the one call the pipeline makes: probe memory; on a miss load
/// the entry from the disk tier (when the cache has one) and insert it
/// without counting a build; if the disk misses too, compile, insert and
/// write the entry through to disk, so a SIGKILL loses at most the entry
/// being compiled.  Calls are single-flight per key: a thread that finds
/// the key being loaded or compiled by another waits for that entry and
/// counts a hit, so a key is compiled once however many workers ask.
///
/// Correctness: keys are digests, so two distinct configurations could in
/// principle collide.  Every slot therefore stores its configuration and a
/// match verifies it (plus the channel model and classifier bit), and the
/// disk tier verifies its entries the same way, so a collision or a corrupt
/// file degrades to a miss/replacement — never to wrong artifacts — and
/// cache-on, store-on and store-preloaded runs stay bit-identical to
/// uncached runs on any thread count (tests/test_schedule_cache.cpp,
/// tests/test_store.cpp).

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/election.hpp"
#include "store/artifact_store.hpp"

namespace arl::engine {

/// Counters of one cache's lifetime (monotonic except `entries`).
/// Outcomes never depend on these — they describe work saved.  Through
/// get(), every call counts exactly one hit or one miss and a key misses
/// once until it is evicted, so the counters are thread-count-invariant
/// unless the capacity bound evicts (eviction order follows scheduling).
struct ScheduleCacheStats {
  std::uint64_t hits = 0;             ///< lookups answered from memory (including a wait
                                      ///< for another thread's compile or load of the key)
  std::uint64_t misses = 0;           ///< lookups that found nothing in memory (each one
                                      ///< compiles, unless the disk tier has the entry)
  std::uint64_t evictions = 0;        ///< entries dropped by the capacity bound
  std::uint64_t schedule_builds = 0;  ///< compiles stored through the cache (one per store();
                                      ///< entries loaded from disk are not builds)
  std::uint64_t entries = 0;          ///< entries resident right now

  /// Hits per lookup, in [0, 1] (0 when nothing was looked up).
  [[nodiscard]] double hit_rate() const;

  /// The counter growth between an `earlier` snapshot of the same cache and
  /// this one: monotonic counters subtract, `entries` (a gauge) keeps this
  /// snapshot's value.  This is how the sweep service attributes hits and
  /// misses to one request on its process-wide cache — snapshot before,
  /// snapshot after, report the difference.
  [[nodiscard]] ScheduleCacheStats since(const ScheduleCacheStats& earlier) const;

  friend bool operator==(const ScheduleCacheStats& a, const ScheduleCacheStats& b) = default;
};

/// Sharded bounded LRU implementation of `core::ScheduleCacheHandle`.
/// Shards are selected by key digest, each with its own mutex, LRU list and
/// capacity slice, so workers hitting different configurations rarely
/// contend.  Shared immutable entries (`shared_ptr<const ...>`) stay alive in
/// the reports that hold them even after eviction.
class ScheduleCache final : public core::ScheduleCacheHandle {
 public:
  /// Default capacity: comfortably covers a mutation neighbourhood or a
  /// cross-protocol sweep's working set without hoarding schedules.
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// A cache holding at most `capacity` entries (>= 1) in memory, in front
  /// of the artifact store at `store_directory` (created if missing) when
  /// that is non-empty.  Memory is split into up to 8 shards (a power of
  /// two); the bound is enforced per shard — capacity() reports the
  /// effective total, which never exceeds the request but may round down to
  /// the sharding granularity, and a shard whose keys are skewed evicts
  /// before the total is reached.
  explicit ScheduleCache(std::size_t capacity = kDefaultCapacity,
                         std::string store_directory = {});

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// The key's complete entry: from memory, else from the disk tier, else
  /// compiled (core::compile), stored and written through.  Single-flight
  /// per key (see the file comment).
  [[nodiscard]] std::shared_ptr<const core::CompiledConfiguration> get(
      const config::Configuration& configuration, radio::ChannelModel model) override;

  /// The memory tier's entry for the key, or null (counted as a hit or a
  /// miss; never touches the disk tier).
  [[nodiscard]] std::shared_ptr<const core::CompiledConfiguration> lookup(
      const config::Configuration& configuration, radio::ChannelModel model,
      bool fast_classifier);

  /// Stores a fresh compile (the schedule must be present), counts it as a
  /// schedule build and writes it through to the disk tier, if any.
  std::shared_ptr<const core::CompiledConfiguration> store(
      const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier,
      core::CompiledConfiguration compiled);

  /// Snapshot of the counters, summed across shards.
  [[nodiscard]] ScheduleCacheStats stats() const;

  /// Drops every entry (counters other than `entries` keep accumulating).
  void clear();

  /// Effective total entry bound across all shards (<= the requested one).
  [[nodiscard]] std::size_t capacity() const;

  /// The disk tier, or null for a memory-only cache.
  [[nodiscard]] const store::ArtifactStore* artifacts() const {
    return artifacts_ ? &*artifacts_ : nullptr;
  }

 private:
  /// One cached compile with everything needed to verify a digest match.
  struct Slot {
    std::uint64_t key = 0;
    config::Configuration configuration;
    radio::ChannelModel model = radio::ChannelModel::CollisionDetection;
    bool fast_classifier = false;
    std::shared_ptr<const core::CompiledConfiguration> compiled;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable settled;    ///< signalled when an in-flight key settles
    std::vector<std::uint64_t> in_flight;  ///< keys some get() is loading or compiling
    std::list<Slot> lru;  ///< most recently used first
    std::unordered_map<std::uint64_t, std::list<Slot>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t schedule_builds = 0;
  };

  /// Releases a get()'s in-flight claim on scope exit, thrown or not, and
  /// wakes the shard's waiters to re-probe.
  class Claim;

  [[nodiscard]] Shard& shard_for(std::uint64_t key);

  /// The verified memory entry for the key (shard lock held), marked most
  /// recently used; null on a miss or a digest collision.  Counts nothing.
  [[nodiscard]] static std::shared_ptr<const core::CompiledConfiguration> probe(
      Shard& shard, std::uint64_t key, const config::Configuration& configuration,
      radio::ChannelModel model, bool fast_classifier);

  /// Inserts (or replaces) the entry under `key` (the slot_key of the
  /// rest), counting a schedule build when `built`.
  std::shared_ptr<const core::CompiledConfiguration> insert(
      std::uint64_t key, const config::Configuration& configuration, radio::ChannelModel model,
      bool fast_classifier, std::shared_ptr<const core::CompiledConfiguration> entry, bool built);

  std::size_t shard_capacity_ = 0;
  std::vector<Shard> shards_;
  std::optional<store::ArtifactStore> artifacts_;
};

}  // namespace arl::engine
