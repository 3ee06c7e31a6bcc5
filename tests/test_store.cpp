/// \file test_store.cpp
/// The persistent artifact store's contract: entries round-trip through the
/// on-disk text format bit-exactly (classification and schedule alike);
/// every corruption — truncation, flipped bytes, swapped files, partial tmp
/// residue — reads as a *miss*, never as a wrong artifact; crash-safe
/// writes leave no partial entry visible; and store-on, store-off and
/// store-warm batch runs are bit-identical job for job.  Plus the schedule
/// cache's disk tier (promotion of disk hits, write-through saves) and the
/// classification text format itself.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <latch>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/families.hpp"
#include "config/fingerprint.hpp"
#include "config/io.hpp"
#include "core/classifier.hpp"
#include "core/protocol.hpp"
#include "core/schedule.hpp"
#include "core/schedule_io.hpp"
#include "engine/batch_runner.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/sweep.hpp"
#include "engine/workload.hpp"
#include "store/artifact_store.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

namespace {

using namespace arl;

// ---------------------------------------------------- classification format

TEST(ClassificationIo, FeasibleRunRoundTrips) {
  const config::Configuration c = config::family_g(2);
  const core::ClassifierResult result = core::Classifier().run(c);
  ASSERT_TRUE(result.feasible());

  const std::string text = core::classification_to_text_string(result);
  const core::ClassifierResult back = core::classification_from_text_string(text);
  EXPECT_EQ(back, result);
  EXPECT_EQ(core::classification_fingerprint(back), core::classification_fingerprint(result));
  // Idempotent: re-serializing the parse reproduces the bytes.
  EXPECT_EQ(core::classification_to_text_string(back), text);
}

TEST(ClassificationIo, InfeasibleRunRoundTrips) {
  const config::Configuration c = config::family_s(2);
  const core::ClassifierResult result = core::Classifier().run(c);
  ASSERT_FALSE(result.feasible());

  const core::ClassifierResult back =
      core::classification_from_text_string(core::classification_to_text_string(result));
  EXPECT_EQ(back, result);
}

TEST(ClassificationIo, NoCollisionDetectionModelRoundTrips) {
  const config::Configuration c = config::family_h(2);
  const core::ClassifierResult result =
      core::Classifier(radio::ChannelModel::NoCollisionDetection).run(c);
  const core::ClassifierResult back =
      core::classification_from_text_string(core::classification_to_text_string(result));
  EXPECT_EQ(back, result);
  EXPECT_EQ(back.model, radio::ChannelModel::NoCollisionDetection);
}

TEST(ClassificationIo, MalformedTextIsRejected) {
  const config::Configuration c = config::family_h(1);
  const std::string good = core::classification_to_text_string(core::Classifier().run(c));

  const std::vector<std::string> bad = {
      "",
      "arl-classification v2\n",
      good.substr(0, good.size() / 2),                 // truncated mid-record
      "arl-classification v1\nmodel maybe\n",          // unknown model
  };
  for (const std::string& text : bad) {
    EXPECT_THROW((void)core::classification_from_text_string(text), support::ContractViolation)
        << "accepted: " << text.substr(0, 40);
  }
}

TEST(ClassificationIo, FingerprintSeparatesVerdictAndModel) {
  const config::Configuration feasible = config::family_h(2);
  const config::Configuration infeasible = config::family_s(2);
  const auto cd = core::Classifier().run(feasible);
  const auto nocd = core::Classifier(radio::ChannelModel::NoCollisionDetection).run(feasible);
  const auto inf = core::Classifier().run(infeasible);
  EXPECT_NE(core::classification_fingerprint(cd), core::classification_fingerprint(nocd));
  EXPECT_NE(core::classification_fingerprint(cd), core::classification_fingerprint(inf));
}

// ------------------------------------------------------------- store fixture

/// A private temp directory for one test's store, removed on teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char pattern[] = "/tmp/arl-store-test-XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    dir_ = pattern;
  }

  void TearDown() override {
    remove_entries();
    ::rmdir(dir_.c_str());
  }

  /// Empties the store directory.
  void remove_entries() const {
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          (void)::unlink((dir_ + "/" + name).c_str());
        }
      }
      ::closedir(d);
    }
  }

  /// Entries currently visible to a load (final names, not tmp files).
  [[nodiscard]] std::vector<std::string> entry_files() const {
    std::vector<std::string> entries;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.size() > 4 && name.substr(name.size() - 4) == ".arl") {
          entries.push_back(name);
        }
      }
      ::closedir(d);
    }
    return entries;
  }

  /// Any tmp residue (there must never be any after a completed save).
  [[nodiscard]] std::vector<std::string> tmp_files() const {
    std::vector<std::string> leftovers;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.find(".tmp") != std::string::npos) {
          leftovers.push_back(name);
        }
      }
      ::closedir(d);
    }
    return leftovers;
  }

  std::string dir_;
};

/// A complete entry (classification and schedule), as every compile makes.
using core::compile;

TEST_F(StoreTest, ScheduleBearingEntryRoundTrips) {
  const config::Configuration c = config::family_g(2);
  const core::CompiledConfiguration compiled =
      compile(c, radio::ChannelModel::CollisionDetection);
  ASSERT_NE(compiled.schedule, nullptr);

  store::ArtifactStore writer(dir_);
  writer.save(c, radio::ChannelModel::CollisionDetection, false, compiled);
  EXPECT_EQ(writer.stats().saves, 1u);
  EXPECT_TRUE(tmp_files().empty());

  // A *fresh* handle (fresh process, as far as the store can tell) loads it.
  store::ArtifactStore reader(dir_);
  const auto loaded = reader.load(c, radio::ChannelModel::CollisionDetection, false);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->classification, compiled.classification);
  ASSERT_NE(loaded->schedule, nullptr);
  EXPECT_EQ(core::schedule_fingerprint(*loaded->schedule),
            core::schedule_fingerprint(*compiled.schedule));
  EXPECT_EQ(core::schedule_to_text_string(*loaded->schedule),
            core::schedule_to_text_string(*compiled.schedule));
  EXPECT_EQ(reader.stats().hits, 1u);
}

TEST_F(StoreTest, KeySeparatesModelAndClassifierFlavor) {
  const config::Configuration c = config::family_h(2);
  store::ArtifactStore store(dir_);
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection));

  // Same configuration under the other model or the retired classifier bit
  // (still part of the key, always false in production): misses.
  EXPECT_EQ(store.load(c, radio::ChannelModel::NoCollisionDetection, false), nullptr);
  EXPECT_EQ(store.load(c, radio::ChannelModel::CollisionDetection, true), nullptr);
  EXPECT_EQ(store.stats().misses, 2u);
  EXPECT_EQ(store.stats().rejected, 0u);
}

TEST_F(StoreTest, AbsentEntryIsAMiss) {
  store::ArtifactStore store(dir_);
  EXPECT_EQ(store.load(config::family_h(1), radio::ChannelModel::CollisionDetection, false),
            nullptr);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().errors, 0u);
}

TEST_F(StoreTest, EveryTruncationReadsAsAMiss) {
  const config::Configuration c = config::family_g(2);
  store::ArtifactStore store(dir_);
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection));
  const std::string path = store.entry_path(c, radio::ChannelModel::CollisionDetection, false);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_FALSE(bytes.empty());

  // Truncate at a spread of byte counts, including 0 (empty file) and a cut
  // right before the end line; every one must reject, never crash, never
  // return an artifact.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, bytes.size() / 4, bytes.size() / 2,
        bytes.size() - 20, bytes.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    store::ArtifactStore reader(dir_);
    EXPECT_EQ(reader.load(c, radio::ChannelModel::CollisionDetection, false), nullptr)
        << "accepted a file truncated to " << keep << " bytes";
    EXPECT_EQ(reader.stats().rejected, 1u) << keep;
  }
}

TEST_F(StoreTest, EveryFlippedByteReadsAsAMiss) {
  const config::Configuration c = config::family_h(3);
  store::ArtifactStore store(dir_);
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection));
  const std::string path = store.entry_path(c, radio::ChannelModel::CollisionDetection, false);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_FALSE(bytes.empty());

  // Flip one bit at a stride of positions across the whole file — header,
  // config section, classification, schedule, end digest alike.
  for (std::size_t position = 0; position < bytes.size(); position += 7) {
    std::string corrupt = bytes;
    corrupt[position] = static_cast<char>(corrupt[position] ^ 0x20);
    if (corrupt == bytes) {
      continue;
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    store::ArtifactStore reader(dir_);
    EXPECT_EQ(reader.load(c, radio::ChannelModel::CollisionDetection, false), nullptr)
        << "accepted a byte flip at position " << position;
  }
}

TEST_F(StoreTest, SwappedEntryFilesReadAsMisses) {
  // Two valid entries renamed over each other: the embedded key/config
  // checks reject both (a digest-level collision degrades to a miss).
  const config::Configuration c1 = config::family_g(2);
  const config::Configuration c2 = config::family_h(2);
  store::ArtifactStore store(dir_);
  store.save(c1, radio::ChannelModel::CollisionDetection, false,
             compile(c1, radio::ChannelModel::CollisionDetection));
  store.save(c2, radio::ChannelModel::CollisionDetection, false,
             compile(c2, radio::ChannelModel::CollisionDetection));
  const std::string p1 = store.entry_path(c1, radio::ChannelModel::CollisionDetection, false);
  const std::string p2 = store.entry_path(c2, radio::ChannelModel::CollisionDetection, false);
  const std::string held = p1 + ".held";
  ASSERT_EQ(std::rename(p1.c_str(), held.c_str()), 0);
  ASSERT_EQ(std::rename(p2.c_str(), p1.c_str()), 0);
  ASSERT_EQ(std::rename(held.c_str(), p2.c_str()), 0);

  store::ArtifactStore reader(dir_);
  EXPECT_EQ(reader.load(c1, radio::ChannelModel::CollisionDetection, false), nullptr);
  EXPECT_EQ(reader.load(c2, radio::ChannelModel::CollisionDetection, false), nullptr);
  EXPECT_EQ(reader.stats().rejected, 2u);
}

TEST_F(StoreTest, TmpResidueIsInvisibleAndOverwritable) {
  // A crashed writer's half-written tmp file must not satisfy loads, and
  // must not block a later writer from landing the real entry.
  const config::Configuration c = config::family_h(2);
  store::ArtifactStore store(dir_);
  const std::string path = store.entry_path(c, radio::ChannelModel::CollisionDetection, false);
  {
    std::ofstream fake(path + ".tmp.999.0");
    fake << "arl-artifact 1\ngarbage";
  }
  EXPECT_EQ(store.load(c, radio::ChannelModel::CollisionDetection, false), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);

  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection));
  EXPECT_NE(store.load(c, radio::ChannelModel::CollisionDetection, false), nullptr);
}

TEST_F(StoreTest, SaveRejectsAnEntryWithoutASchedule) {
  const config::Configuration c = config::family_g(2);
  const radio::ChannelModel model = radio::ChannelModel::CollisionDetection;
  core::CompiledConfiguration partial;
  partial.classification = core::Classifier(model).run(c);
  store::ArtifactStore store(dir_);
  EXPECT_THROW(store.save(c, model, false, partial), support::ContractViolation);
  EXPECT_TRUE(entry_files().empty());
  EXPECT_TRUE(tmp_files().empty());
}

TEST_F(StoreTest, SameKeySavesAndLoadsRaceSafely) {
  // Saves and loads of one key race from several threads, starting from an
  // empty directory each round.  Every save publishes the same complete
  // bytes by rename, so a load sees either no entry yet or a verified
  // complete one — never a torn, rejected or schedule-less file — and no
  // tmp file outlives a save.
  constexpr int kRounds = 64;
  constexpr int kThreads = 4;
  const config::Configuration c = config::family_g(2);
  const radio::ChannelModel model = radio::ChannelModel::CollisionDetection;
  const core::CompiledConfiguration full = compile(c, model);
  const std::string schedule_text = core::schedule_to_text_string(*full.schedule);

  store::ArtifactStore store(dir_);
  const std::string path = store.entry_path(c, model, false);
  std::atomic<int> loads{0};
  std::atomic<int> wrong_loads{0};
  for (int round = 0; round < kRounds; ++round) {
    std::remove(path.c_str());
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t]() {
        const auto load = [&]() {
          loads.fetch_add(1);
          const auto loaded = store.load(c, model, false);
          if (loaded != nullptr &&
              (loaded->classification != full.classification || loaded->schedule == nullptr ||
               core::schedule_to_text_string(*loaded->schedule) != schedule_text)) {
            wrong_loads.fetch_add(1);
          }
        };
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
          std::this_thread::yield();
        }
        // Half the threads load before they save, so loads meet an empty
        // directory, a publish in flight and a finished entry alike.
        if (t % 2 == 0) {
          load();
        }
        store.save(c, model, false, full);
        load();
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    ASSERT_TRUE(tmp_files().empty()) << "round " << round;
  }
  EXPECT_EQ(wrong_loads.load(), 0);
  const store::ArtifactStoreStats stats = store.stats();
  EXPECT_EQ(stats.saves + stats.errors, std::uint64_t{kRounds} * kThreads);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.rejected, 0u) << "a load saw a partial entry";
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(loads.load()));
  EXPECT_GE(stats.hits, std::uint64_t{kRounds} * kThreads);  // every load after a save hits
}

TEST_F(StoreTest, VersionOneEntryIsRejectedThenRewrittenAsVersionTwo) {
  // A well-formed entry of the previous format (v1, which allowed
  // classification-only entries: `schedule-fingerprint -`, no schedule
  // section) reads as a rejected miss; the compile that follows the miss
  // overwrites it with a complete v2 entry.
  const config::Configuration c = config::family_g(2);
  const radio::ChannelModel model = radio::ChannelModel::CollisionDetection;
  std::string v2;
  {
    store::ArtifactStore writer(dir_);
    writer.save(c, model, false, compile(c, model));
    std::ifstream in(writer.entry_path(c, model, false), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    v2 = buffer.str();
  }
  ASSERT_EQ(v2.rfind("arl-artifact 2\n", 0), 0u);

  // Rebuild the v1 form: version 1 header, no schedule fingerprint or
  // section, and the `end` digest (the format's seed) over the new body.
  const core::ClassifierResult classification = core::Classifier(model).run(c);
  std::ostringstream body;
  body << "arl-artifact 1\n"
       << v2.substr(v2.find('\n') + 1, v2.find("schedule-fingerprint ") - v2.find('\n') - 1)
       << "schedule-fingerprint -\n";
  config::to_text(c, body);
  core::classification_to_text(classification, body);
  constexpr std::uint64_t kBodyDigestSeed = 0x5704EB0D7ULL;
  body << "end " << std::hex << std::setw(16) << std::setfill('0')
       << support::hash_text_bulk(body.str(), kBodyDigestSeed) << '\n';
  const std::string v1 = body.str();

  engine::ScheduleCache cache(64, dir_);
  const std::string path = cache.artifacts()->entry_path(c, model, false);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << v1;
  }
  core::ElectionScratch scratch;
  scratch.schedule_cache = &cache;
  const core::ElectionReport report =
      core::run_protocol(c, core::ProtocolSpec::classify_only(), {}, scratch);
  EXPECT_EQ(*report.classification, classification);
  const store::ArtifactStoreStats stats = cache.artifacts()->stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.saves, 1u);

  std::ifstream in(path, std::ios::binary);
  std::ostringstream rewritten;
  rewritten << in.rdbuf();
  EXPECT_EQ(rewritten.str(), v2);
  store::ArtifactStore reader(dir_);
  const auto loaded = reader.load(c, model, false);
  ASSERT_NE(loaded, nullptr);
  EXPECT_NE(loaded->schedule, nullptr);
}

TEST_F(StoreTest, StatsSinceSubtractsCounters) {
  const config::Configuration c = config::family_h(1);
  store::ArtifactStore store(dir_);
  (void)store.load(c, radio::ChannelModel::CollisionDetection, false);
  const store::ArtifactStoreStats before = store.stats();
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection));
  (void)store.load(c, radio::ChannelModel::CollisionDetection, false);
  const store::ArtifactStoreStats delta = store.stats().since(before);
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_EQ(delta.saves, 1u);
  EXPECT_EQ(delta.hits, 1u);
}

// ------------------------------------------------------ the cache's disk tier

TEST_F(StoreTest, TieredLookupPromotesDiskHitsIntoMemory) {
  const config::Configuration c = config::family_g(2);
  {
    store::ArtifactStore seed(dir_);
    seed.save(c, radio::ChannelModel::CollisionDetection, false,
              compile(c, radio::ChannelModel::CollisionDetection));
  }

  engine::ScheduleCache cache(64, dir_);
  const auto first = cache.get(c, radio::ChannelModel::CollisionDetection);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.artifacts()->stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u) << "disk hit was not promoted";
  EXPECT_EQ(cache.stats().schedule_builds, 0u) << "a disk hit counted as a build";

  // The second get is served from memory: disk counters do not move.
  const auto second = cache.get(c, radio::ChannelModel::CollisionDetection);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(cache.artifacts()->stats().hits, 1u);
  EXPECT_EQ(second->classification, first->classification);
}

TEST_F(StoreTest, TieredStoreIsWriteThrough) {
  const config::Configuration c = config::family_h(2);
  engine::ScheduleCache cache(64, dir_);
  (void)cache.store(c, radio::ChannelModel::CollisionDetection, false,
                    compile(c, radio::ChannelModel::CollisionDetection));
  EXPECT_EQ(cache.artifacts()->stats().saves, 1u);

  // A brand-new cache over the same directory (fresh process) finds the
  // entry on disk without any prior store() in its lifetime.
  engine::ScheduleCache fresh(64, dir_);
  EXPECT_NE(fresh.get(c, radio::ChannelModel::CollisionDetection), nullptr);
  EXPECT_EQ(fresh.stats().schedule_builds, 0u);
}

TEST_F(StoreTest, SingleFlightCompilesEachKeyOnceUnderThreads) {
  // Threads released together get() the same keys in the same order, so
  // most keys are asked for by several threads at once.  With or without
  // the disk tier, each key misses and compiles exactly once; every other
  // call waits for that compile, counts a hit and shares its entry.
  constexpr int kRounds = 20;
  constexpr std::size_t kThreads = 4;
  const radio::ChannelModel model = radio::ChannelModel::CollisionDetection;
  const engine::CountedSweep sweep = engine::parse_workload("random:n=12,p=0.3,sigma=3")
                                         .instantiate(7, {core::ProtocolSpec::canonical()},
                                                      {.count = 24});
  std::vector<config::Configuration> keys;
  std::set<config::Fingerprint> distinct;
  for (engine::JobId id = 0; id < sweep.count; ++id) {
    keys.push_back(sweep.source(id).configuration);
    distinct.insert(config::fingerprint(keys.back()));
  }
  using Entries = std::vector<std::shared_ptr<const core::CompiledConfiguration>>;
  for (const bool with_store : {false, true}) {
    for (int round = 0; round < kRounds; ++round) {
      remove_entries();
      engine::ScheduleCache cache(engine::ScheduleCache::kDefaultCapacity,
                                  with_store ? dir_ : std::string());
      std::latch start(kThreads);
      std::vector<Entries> entries(kThreads);
      std::vector<std::thread> workers;
      for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t]() {
          start.arrive_and_wait();
          for (const config::Configuration& c : keys) {
            entries[t].push_back(cache.get(c, model));
          }
        });
      }
      for (std::thread& worker : workers) {
        worker.join();
      }
      const engine::ScheduleCacheStats stats = cache.stats();
      const std::string where =
          (with_store ? "with store, round " : "memory only, round ") + std::to_string(round);
      ASSERT_EQ(stats.misses, distinct.size()) << where;
      ASSERT_EQ(stats.schedule_builds, distinct.size()) << where;
      ASSERT_EQ(stats.hits, kThreads * keys.size() - distinct.size()) << where;
      for (std::size_t t = 1; t < kThreads; ++t) {
        ASSERT_EQ(entries[t], entries[0]) << where << ", thread " << t;
      }
      if (with_store) {
        ASSERT_EQ(cache.artifacts()->stats().saves, distinct.size()) << where;
      }
    }
  }
}

// ------------------------------------------------------------- batch parity

/// The parity workload: a seeded random sweep crossed with every registered
/// protocol (mirrors tests/test_schedule_cache.cpp).
engine::RandomSweep parity_sweep() {
  engine::RandomSweep sweep;
  sweep.nodes = 10;
  sweep.span = 2;
  sweep.seed = 4242;
  sweep.protocols = core::registered_protocols();
  return sweep;
}

TEST_F(StoreTest, StoreOnColdWarmAndOffBatchesAreBitIdentical) {
  const engine::RandomSweep sweep = parity_sweep();
  const engine::JobSource source = engine::random_jobs(sweep);
  const auto count = 8 * static_cast<engine::JobId>(sweep.protocols.size());

  engine::BatchOptions no_store;
  no_store.threads = 2;
  no_store.seed = 99;
  no_store.cache_capacity = 64;
  engine::BatchRunner plain(no_store);
  const engine::BatchReport off = plain.run(count, source);
  EXPECT_FALSE(off.artifact_store.has_value());

  engine::BatchOptions with_store;
  with_store.threads = 2;
  with_store.seed = 99;
  with_store.cache_capacity = 64;
  with_store.store_directory = dir_;

  engine::BatchRunner cold_runner(with_store);
  const engine::BatchReport cold = cold_runner.run(count, source);
  ASSERT_TRUE(cold.artifact_store.has_value());
  EXPECT_GT(cold.artifact_store->saves, 0u);

  engine::BatchRunner warm_runner(with_store);
  const engine::BatchReport warm = warm_runner.run(count, source);
  ASSERT_TRUE(warm.artifact_store.has_value());
  EXPECT_GT(warm.artifact_store->hits, 0u);
  EXPECT_EQ(warm.artifact_store->saves, 0u) << "a warm run recompiled something";
  ASSERT_TRUE(warm.cache.has_value());
  EXPECT_EQ(warm.cache->schedule_builds, 0u) << "disk promotions counted as builds";

  EXPECT_EQ(cold.jobs, off.jobs);
  EXPECT_EQ(warm.jobs, off.jobs);
  EXPECT_EQ(cold.by_protocol, off.by_protocol);
  EXPECT_EQ(warm.by_protocol, off.by_protocol);
  EXPECT_GT(off.valid_count, 0u);
}

TEST_F(StoreTest, CorruptedStoreStillYieldsBitIdenticalResults) {
  const engine::RandomSweep sweep = parity_sweep();
  const engine::JobSource source = engine::random_jobs(sweep);
  const auto count = 4 * static_cast<engine::JobId>(sweep.protocols.size());

  engine::BatchOptions with_store;
  with_store.threads = 1;
  with_store.seed = 5;
  with_store.cache_capacity = 64;
  with_store.store_directory = dir_;

  engine::BatchRunner seed_runner(with_store);
  const engine::BatchReport reference = seed_runner.run(count, source);

  // Vandalize every entry file: truncate half of them, bit-flip the rest.
  const std::vector<std::string> entries = entry_files();
  ASSERT_FALSE(entries.empty());
  bool truncate = true;
  for (const std::string& name : entries) {
    const std::string path = dir_ + "/" + name;
    if (truncate) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << "arl-art";
    } else {
      std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
      out.seekp(10);
      out.put('~');
    }
    truncate = !truncate;
  }

  engine::BatchRunner rerun(with_store);
  const engine::BatchReport recovered = rerun.run(count, source);
  ASSERT_TRUE(recovered.artifact_store.has_value());
  EXPECT_GT(recovered.artifact_store->rejected, 0u);
  EXPECT_EQ(recovered.artifact_store->hits, 0u);
  EXPECT_EQ(recovered.jobs, reference.jobs);
  EXPECT_EQ(recovered.by_protocol, reference.by_protocol);

  // The recovery run re-saved clean entries; a final run is all hits again.
  engine::BatchRunner final_runner(with_store);
  const engine::BatchReport healed = final_runner.run(count, source);
  ASSERT_TRUE(healed.artifact_store.has_value());
  EXPECT_EQ(healed.artifact_store->rejected, 0u);
  EXPECT_GT(healed.artifact_store->hits, 0u);
  EXPECT_EQ(healed.jobs, reference.jobs);
}

}  // namespace
