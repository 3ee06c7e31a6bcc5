/// \file test_schedule_cache.cpp
/// The schedule/classification cache's contract: cache-on and cache-off
/// batches are bit-identical — every JobOutcome (leader, rounds,
/// disposition) — for a seeded RandomSweep crossed with every registered
/// protocol, across 1, 2 and 8 threads; plus the unit behaviour of the
/// sharded LRU itself (hits, compile-once reuse, evictions, key separation) and of
/// the per-batch statistics the engine reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "config/families.hpp"
#include "config/fingerprint.hpp"
#include "core/protocol.hpp"
#include "engine/batch_runner.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/sweep.hpp"
#include "support/assert.hpp"

namespace {

using namespace arl;

/// The issue's parity workload: a seeded random sweep crossed with every
/// protocol in the registry, so consecutive jobs share a configuration and
/// the cache sees hits from the classifying kinds next to pass-through
/// baseline jobs.
engine::RandomSweep registry_sweep() {
  engine::RandomSweep sweep;
  sweep.nodes = 10;
  sweep.span = 2;
  sweep.seed = 4242;
  sweep.protocols = core::registered_protocols();
  return sweep;
}

constexpr engine::JobId kParityConfigurations = 12;

/// A complete cache entry (classification and schedule), as every compile
/// stores one.
core::CompiledConfiguration compile(const config::Configuration& c, radio::ChannelModel model) {
  core::CompiledConfiguration compiled;
  compiled.classification = core::Classifier(model).run(c);
  compiled.schedule = std::make_shared<const core::CanonicalSchedule>(
      core::build_schedule(c, compiled.classification));
  return compiled;
}

TEST(ScheduleCache, CacheOnAndCacheOffBatchesAreBitIdentical) {
  const engine::RandomSweep sweep = registry_sweep();
  const engine::JobSource source = engine::random_jobs(sweep);
  const auto count = kParityConfigurations * static_cast<engine::JobId>(sweep.protocols.size());

  std::vector<engine::BatchReport> reports;
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{256}}) {
      engine::BatchRunner runner(
          {.threads = threads, .seed = 99, .cache_capacity = capacity});
      reports.push_back(runner.run(count, source));
      EXPECT_EQ(reports.back().cache.has_value(), capacity > 0);
    }
  }
  // Every (thread count, cache setting) combination agrees job for job —
  // leader, rounds, disposition and all — and row for row.
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].jobs, reports[0].jobs) << "combination " << i;
    EXPECT_EQ(reports[i].by_protocol, reports[0].by_protocol) << "combination " << i;
  }
  // The workload has signal: elections happened and the cache actually hit
  // (P - 1 classifying/simulating repeats per configuration would be wasted
  // compiles without it).
  EXPECT_GT(reports[0].valid_count, 0u);
  ASSERT_TRUE(reports[1].cache.has_value());
  EXPECT_GT(reports[1].cache->hits, 0u);
}

TEST(ScheduleCache, CachedFullReportsMatchUncachedOnes) {
  // Beyond the condensed outcomes: the full ElectionReports — classification
  // records, schedule contents, verification — are equal too.
  const engine::RandomSweep sweep = registry_sweep();
  const engine::JobSource source = engine::random_jobs(sweep);
  const auto count = 4 * static_cast<engine::JobId>(sweep.protocols.size());

  engine::BatchRunner uncached({.threads = 2, .seed = 7, .keep_reports = true});
  engine::BatchRunner cached(
      {.threads = 2, .seed = 7, .keep_reports = true, .cache_capacity = 64});
  const engine::BatchReport a = uncached.run(count, source);
  const engine::BatchReport b = cached.run(count, source);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].classification->records, b.reports[i].classification->records) << i;
    EXPECT_EQ(a.reports[i].classification->steps, b.reports[i].classification->steps) << i;
    ASSERT_EQ(a.reports[i].schedule != nullptr, b.reports[i].schedule != nullptr) << i;
    if (a.reports[i].schedule != nullptr) {
      EXPECT_EQ(a.reports[i].schedule->total_rounds(), b.reports[i].schedule->total_rounds())
          << i;
    }
    EXPECT_EQ(a.reports[i].leader, b.reports[i].leader) << i;
    EXPECT_EQ(a.reports[i].valid, b.reports[i].valid) << i;
  }
}

TEST(ScheduleCache, LookupMissesThenHitsTheStoredEntry) {
  engine::ScheduleCache cache(16);
  const config::Configuration c = config::family_h(2);
  const auto model = radio::ChannelModel::CollisionDetection;
  EXPECT_EQ(cache.lookup(c, model, false), nullptr);

  const auto stored = cache.store(c, model, false, compile(c, model));
  ASSERT_NE(stored, nullptr);
  // The hit returns the very same entry (shared, immutable), and marks it
  // most recently used.
  EXPECT_EQ(cache.lookup(c, model, false), stored);

  const engine::ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ScheduleCache, KeysSeparateModelAndClassifierChoice) {
  // The same configuration under a different channel model compiles to
  // different artifacts, so each model owns a distinct entry; the retired
  // classifier bit (always false in production) still separates keys.
  engine::ScheduleCache cache(16);
  const config::Configuration c = config::family_h(2);
  (void)cache.store(c, radio::ChannelModel::CollisionDetection, false,
                    compile(c, radio::ChannelModel::CollisionDetection));

  EXPECT_NE(cache.lookup(c, radio::ChannelModel::CollisionDetection, false), nullptr);
  EXPECT_EQ(cache.lookup(c, radio::ChannelModel::NoCollisionDetection, false), nullptr);
  EXPECT_EQ(cache.lookup(c, radio::ChannelModel::CollisionDetection, true), nullptr);
}

TEST(ScheduleCache, ClassifyThenCanonicalCompilesOnce) {
  // A compile stores the classification and the schedule together,
  // whichever protocol asked: a classify-only job misses and builds the
  // schedule (its report still drops it), and a later canonical job on the
  // same configuration hits and runs on the very schedule object stored.
  engine::ScheduleCache cache(16);
  core::ElectionScratch scratch;
  scratch.schedule_cache = &cache;
  const auto model = radio::ChannelModel::CollisionDetection;
  const config::Configuration c = config::family_h(2);

  const core::ElectionReport classify =
      core::run_protocol(c, core::ProtocolSpec::classify_only(), {}, scratch);
  EXPECT_TRUE(classify.feasible);
  EXPECT_EQ(classify.schedule, nullptr);

  const core::ElectionReport canonical =
      core::run_protocol(c, core::ProtocolSpec::canonical(), {}, scratch);
  EXPECT_TRUE(canonical.valid);
  const engine::ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.schedule_builds, 1u);
  EXPECT_EQ(stats.entries, 1u);

  const auto entry = cache.lookup(c, model, false);
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->schedule, nullptr);
  EXPECT_EQ(canonical.schedule, entry->schedule);
}

TEST(ScheduleCache, StoreRejectsAnEntryWithoutASchedule) {
  engine::ScheduleCache cache(16);
  const auto model = radio::ChannelModel::CollisionDetection;
  const config::Configuration c = config::family_h(2);
  core::CompiledConfiguration partial;
  partial.classification = core::Classifier(model).run(c);
  EXPECT_THROW((void)cache.store(c, model, false, std::move(partial)),
               support::ContractViolation);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().schedule_builds, 0u);
}

TEST(ScheduleCache, EffectiveCapacityNeverExceedsTheRequest) {
  for (const std::size_t requested : {std::size_t{1}, std::size_t{3}, std::size_t{10},
                                      std::size_t{1024}}) {
    engine::ScheduleCache cache(requested);
    EXPECT_LE(cache.capacity(), requested) << requested;
    EXPECT_GE(cache.capacity(), 1u) << requested;
  }
}

TEST(ScheduleCache, CapacityBoundEvictsLeastRecentlyUsed) {
  engine::ScheduleCache cache(1);  // one shard, one slot
  EXPECT_GE(cache.capacity(), 1u);
  const auto model = radio::ChannelModel::CollisionDetection;
  const config::Configuration a = config::family_h(2);
  const config::Configuration b = config::family_s(2);

  (void)cache.store(a, model, false, compile(a, model));
  (void)cache.store(b, model, false, compile(b, model));

  EXPECT_EQ(cache.lookup(a, model, false), nullptr);  // evicted by b
  EXPECT_NE(cache.lookup(b, model, false), nullptr);
  const engine::ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.lookup(b, model, false), nullptr);
}

TEST(ScheduleCache, SingleThreadedCrossProtocolCountersAreExact) {
  // One thread makes the counters deterministic: a {canonical, classify}
  // cross product classifies each configuration exactly once (the canonical
  // job misses and compiles, the classify job hits) and builds exactly one
  // schedule per configuration.
  constexpr engine::JobId kConfigurations = 6;
  const engine::CountedSweep crossed = engine::cross_protocols(
      engine::exhaustive_sweep(3, 1),
      {core::ProtocolSpec::canonical(), core::ProtocolSpec::classify_only()});
  const auto count = std::min<engine::JobId>(crossed.count, 2 * kConfigurations);

  engine::BatchRunner runner({.threads = 1, .cache_capacity = 64});
  const engine::BatchReport report = runner.run(count, crossed.source);
  ASSERT_TRUE(report.cache.has_value());
  EXPECT_EQ(report.cache->misses, count / 2);
  EXPECT_EQ(report.cache->hits, count / 2);
  EXPECT_EQ(report.cache->schedule_builds, count / 2);
  EXPECT_EQ(report.cache->evictions, 0u);
  EXPECT_DOUBLE_EQ(report.cache->hit_rate(), 0.5);
}

TEST(ScheduleCache, RepeatedConfigurationsShareOneScheduleObject) {
  // The memoization is visible in the artifacts: two canonical jobs on the
  // same configuration carry pointer-identical schedules when cached, and
  // distinct ones when not.
  std::vector<engine::BatchJob> jobs;
  jobs.push_back({config::family_h(3), core::ProtocolSpec::canonical(), {}});
  jobs.push_back({config::family_h(3), core::ProtocolSpec::canonical(), {}});

  const engine::BatchReport cached =
      engine::run_batch(jobs, {.threads = 1, .keep_reports = true, .cache_capacity = 8});
  ASSERT_EQ(cached.reports.size(), 2u);
  EXPECT_EQ(cached.reports[0].schedule, cached.reports[1].schedule);

  const engine::BatchReport uncached =
      engine::run_batch(jobs, {.threads = 1, .keep_reports = true});
  ASSERT_EQ(uncached.reports.size(), 2u);
  EXPECT_NE(uncached.reports[0].schedule, uncached.reports[1].schedule);
  EXPECT_FALSE(uncached.cache.has_value());
}

TEST(ScheduleCache, UncachedRunProtocolIsUnaffected) {
  // A null cache handle (the default scratch) is exactly the old pipeline.
  const config::Configuration c = config::family_h(2);
  core::ElectionScratch scratch;
  const core::ElectionReport a = core::run_protocol(c, core::ProtocolSpec::canonical(), {});
  const core::ElectionReport b =
      core::run_protocol(c, core::ProtocolSpec::canonical(), {}, scratch);
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.local_rounds, b.local_rounds);
  EXPECT_TRUE(a.valid);
  EXPECT_TRUE(b.valid);
}

}  // namespace
