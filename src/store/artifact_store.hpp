#pragma once

/// \file artifact_store.hpp
/// Content-addressed on-disk store of compiled configuration artifacts.
///
/// The classification/compilation a job front-loads is O(n³·Δ) (Lemma 3.5)
/// and a pure function of (configuration, channel model, classifier choice)
/// — work already paid for should never be paid twice, not even across
/// process boundaries.  The store persists `core::CompiledConfiguration`
/// entries as one text file per key under a flat directory:
///
///     <dir>/<key16hex>.arl
///
/// where the key digests the same triple the in-memory `ScheduleCache`
/// keys on, under a store-private seed.  Each entry file is line-oriented
/// and self-verifying:
///
///     arl-artifact 2
///     key <hex16>
///     model <cd|nocd>
///     fast <0|1>
///     config-fingerprint <hex16>
///     classification-fingerprint <hex16>
///     schedule-fingerprint <hex16>
///     <embedded config::to_text>
///     <embedded classification_to_text>
///     <embedded schedule_to_text>
///     end <hex16>
///
/// Every entry is complete — classification and schedule — so every entry
/// of a key holds the same bytes.  (Version 1 allowed classification-only
/// entries; a v1 file is rejected like any foreign format and overwritten
/// by the save that follows the miss.)  The `fast` line and the key's
/// classifier bit always read 0 now that there is one classifier; they stay
/// so existing entries keep their keys and bytes.
///
/// The trailing `end` digest covers every preceding byte; a load verifies
/// it, re-parses the sections, checks the stored configuration equals the
/// queried one (digest collisions degrade to a miss, per the
/// `ScheduleCacheHandle` contract) and re-derives both artifact
/// fingerprints.  Any mismatch, truncation or parse error rejects the file
/// and reads as a miss — never as a wrong artifact.
///
/// Writes have one publish path and are crash-safe: the entry is composed in
/// memory, written to a private `*.tmp*` sibling, fsync'd, renamed over the
/// final name, and the directory fsync'd — a process killed mid-write leaves
/// at most a `.tmp` file that no load will ever open.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/election.hpp"

namespace arl::store {

/// Counters of one store handle's lifetime.  Like the cache counters these
/// never influence outcomes; they describe disk traffic.
struct ArtifactStoreStats {
  std::uint64_t hits = 0;      ///< loads that produced a verified artifact
  std::uint64_t misses = 0;    ///< loads that found no entry file
  std::uint64_t rejected = 0;  ///< loads that found a corrupt/mismatched file (counts as a miss)
  std::uint64_t saves = 0;     ///< entries written (tmp file published)
  std::uint64_t skipped = 0;   ///< always 0: every save publishes (kept for the stats wire)
  std::uint64_t errors = 0;    ///< I/O failures (the store keeps working; results are unaffected)

  /// Counter growth between an `earlier` snapshot and this one.
  [[nodiscard]] ArtifactStoreStats since(const ArtifactStoreStats& earlier) const;

  friend bool operator==(const ArtifactStoreStats& a, const ArtifactStoreStats& b) = default;
};

/// The on-disk tier.  Thread-safe: loads and saves take no lock beyond the
/// stats mutex (distinct keys touch distinct files; same-key racers each
/// publish the same bytes atomically, so the last rename wins harmlessly).  All
/// I/O failures are absorbed into the stats — the store degrades to "always
/// miss" rather than failing a sweep.
class ArtifactStore {
 public:
  /// Opens (and creates, including parents) the store directory; throws
  /// std::runtime_error when the path exists but is not a directory or
  /// cannot be created.
  explicit ArtifactStore(std::string directory);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// The verified artifact for the key, or null (miss / corrupt entry).
  [[nodiscard]] std::shared_ptr<const core::CompiledConfiguration> load(
      const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier);

  /// Persists the complete entry (`compiled.schedule` must be set): tmp
  /// file, fsync, rename over whatever is there, fsync the directory.
  void save(const config::Configuration& configuration, radio::ChannelModel model,
            bool fast_classifier, const core::CompiledConfiguration& compiled);

  /// Snapshot of the counters.
  [[nodiscard]] ArtifactStoreStats stats() const;

  /// The store directory as given.
  [[nodiscard]] const std::string& directory() const { return directory_; }

  /// The entry file path for a key (exposed for tests that corrupt it).
  [[nodiscard]] std::string entry_path(const config::Configuration& configuration,
                                       radio::ChannelModel model, bool fast_classifier) const;

 private:
  std::string directory_;
  mutable std::mutex mutex_;  ///< guards stats_ and tmp_counter_
  ArtifactStoreStats stats_;
  std::uint64_t tmp_counter_ = 0;
};

}  // namespace arl::store
