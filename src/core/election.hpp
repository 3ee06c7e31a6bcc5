#pragma once

/// \file election.hpp
/// End-to-end leader election: classify → compile schedule → execute the
/// canonical DRIP on the radio simulator → verify the outcome.
///
/// This is the library's main entry point (Theorem 3.15/3.17): for a feasible
/// configuration the report carries the elected leader, the election time in
/// rounds (O(n²σ) by Lemma 3.10) and the verification that exactly the
/// Classifier-predicted node elected itself; for an infeasible one it
/// documents that the canonical protocol — provably the best symmetry
/// breaker — leaves every node with a non-unique history and no leader.

#include <memory>
#include <optional>
#include <string>

#include "config/configuration.hpp"
#include "core/canonical_drip.hpp"
#include "core/classifier.hpp"
#include "core/schedule.hpp"
#include "radio/simulator.hpp"

namespace arl::core {

/// How an election run ended.  Every protocol — canonical, classify-only,
/// labeled, randomized — reports one of these, so a no-leader outcome (an
/// infeasible configuration, or a randomized run that exhausted its slot
/// guard) is a representable result rather than an unspoken invariant.
enum class Disposition : std::uint8_t {
  NotSimulated,  ///< classify-only: feasibility decided, no election attempted

  Elected,       ///< exactly one leader, verification passed

  /// Terminated everywhere with no leader.  For the canonical protocol this
  /// is the correct outcome on an infeasible configuration (valid stays
  /// true); for a baseline it is a cleanly detected election failure — slot
  /// guard exhausted, duplicate labels — and valid is false.
  NoLeader,

  /// Verification failed: multiple leaders, non-termination (horizon guard
  /// fired), or the run could not be set up (label universe too small).
  Failed,

  /// Verification failed under an active fault plan that actually injected
  /// events (drops, corruptions, crashes, staggered wakeups): the failure is
  /// attributed to the adversary, not the protocol.  A faulted run that
  /// still verifies reports Elected/NoLeader as usual; a wrong leader is
  /// never silent — the same verification that produces this disposition
  /// reports it as valid = false.
  DetectedFault,
};

/// Display name of a disposition ("elected", "no leader", ...).
[[nodiscard]] const char* to_string(Disposition disposition);

/// Knobs for elect().
struct ElectionOptions {
  /// Read by nothing: there is one Classifier.  Kept only while the frozen
  /// sweep benchmark (perfbench/) still compiles against it.
  bool use_fast_classifier = false;

  /// Channel feedback strength, applied consistently to the classification
  /// AND the simulation (the paper's model is CollisionDetection; the no-CD
  /// variant is the weaker-feedback extension).
  radio::ChannelModel channel_model = radio::ChannelModel::CollisionDetection;

  /// Run the canonical DRIP on the simulator (otherwise only classify).
  bool simulate = true;

  /// Simulator settings; max_rounds is raised automatically to cover the
  /// schedule, so the default horizon never truncates a canonical run.
  radio::SimulatorOptions simulator = {};
};

/// The empty classification of a run that never classified: a shared
/// pointer to one static, default-constructed result (no ownership, so
/// copying it touches no reference count).
[[nodiscard]] std::shared_ptr<const ClassifierResult> unclassified();

/// Everything elect() / run_protocol() learned about a configuration.
struct ElectionReport {
  /// Registry name of the protocol that produced this report ("canonical",
  /// "classify", "binary-search", ... — see core/protocol.hpp).
  std::string protocol;

  /// How the run ended (see Disposition).
  Disposition disposition = Disposition::NotSimulated;

  /// The Classifier run (verdict, iterations, partitions, step counts),
  /// shared, not copied: a cached run aliases the cache entry's result, an
  /// uncached one owns its own.  Never null; the baseline protocols, which
  /// never classify, read an empty result (0 iterations).
  std::shared_ptr<const ClassifierResult> classification = unclassified();

  /// The compiled canonical schedule; null when simulation was skipped
  /// (classify-only runs never pay for schedule compilation).
  std::shared_ptr<const CanonicalSchedule> schedule;

  /// Classifier verdict (== classification.feasible()).
  bool feasible = false;

  /// True when the canonical DRIP was executed on the simulator.
  bool simulated = false;

  /// The node that elected itself (feasible + simulated runs only).
  std::optional<graph::NodeId> leader;

  /// Verification flag: feasible runs elected exactly the predicted leader;
  /// infeasible runs elected nobody; all nodes terminated in the same local
  /// round equal to the schedule length.
  bool valid = false;

  /// Global rounds until the last node terminated.
  config::Round global_rounds = 0;

  /// Local rounds from wakeup to termination (identical for every node).
  std::uint64_t local_rounds = 0;

  /// Channel statistics of the run.
  radio::RunStats stats;
};

/// The compiled per-configuration knowledge a schedule cache stores: the
/// Classifier run and the canonical schedule built from it, always together
/// — whichever protocol caused the compile.  Both are pure functions of
/// (configuration, channel model, classifier choice), which is what makes
/// memoizing them safe: a cache hit yields bit-identical artifacts to a
/// fresh compile.
struct CompiledConfiguration {
  ClassifierResult classification;

  /// Never null in a cached or stored entry (infeasible configurations
  /// compile to a schedule too: the one every node runs without electing).
  std::shared_ptr<const CanonicalSchedule> schedule;
};

/// Cache of compiled configuration knowledge, consulted by run_protocol()
/// for the classifying kinds.  The interface lives in core so the election
/// pipeline can use a cache without depending on any concrete store; the
/// engine's sharded LRU (engine/schedule_cache.hpp) is the implementation.
///
/// Contract: lookup() may only return an entry previously store()d for an
/// equal (configuration, model, fast_classifier) key — implementations keyed
/// by a digest must verify the configuration on a match, so a hash collision
/// degrades to a miss, never to wrong artifacts.  store() takes only complete
/// entries (schedule included), so every entry of a key holds the same
/// artifacts and a racing store may simply replace another.  Both calls must
/// be safe from concurrent worker threads.
///
/// There is one classifier: the pipeline always passes fast_classifier =
/// false.  The bit stays in the key, so existing keys keep their bytes, until
/// the frozen sweep benchmark (perfbench/), which passes it too, is
/// re-frozen.
class ScheduleCacheHandle {
 public:
  virtual ~ScheduleCacheHandle() = default;

  /// The cached artifacts for the key, or null on a miss.
  [[nodiscard]] virtual std::shared_ptr<const CompiledConfiguration> lookup(
      const config::Configuration& configuration, radio::ChannelModel model,
      bool fast_classifier) = 0;

  /// Stores (or replaces) the key's complete artifacts; returns the stored
  /// entry.  Called once per compile.
  virtual std::shared_ptr<const CompiledConfiguration> store(
      const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier,
      CompiledConfiguration compiled) = 0;
};

/// Reusable working memory for elect().  A worker running many elections
/// back to back passes the same scratch to every call and amortizes the
/// simulator's per-run allocations; results are unaffected (asserted by the
/// engine parity tests).
struct ElectionScratch {
  radio::SimulatorScratch simulator;

  /// Optional schedule/classification cache consulted by the classifying
  /// protocol kinds; null (the default) compiles from scratch every run.
  /// Not owned; outcomes are unaffected by hits vs misses (asserted by
  /// tests/test_schedule_cache.cpp).
  ScheduleCacheHandle* schedule_cache = nullptr;
};

/// Classifies `configuration` and (by default) runs the canonical DRIP on it.
/// A thin wrapper over run_protocol() with the canonical spec (or the
/// classify-only spec when `options.simulate` is false) — see
/// core/protocol.hpp for the full protocol axis.
[[nodiscard]] ElectionReport elect(const config::Configuration& configuration,
                                   const ElectionOptions& options = {});

/// Same as elect(), reusing `scratch`'s buffers instead of allocating.
[[nodiscard]] ElectionReport elect(const config::Configuration& configuration,
                                   const ElectionOptions& options, ElectionScratch& scratch);

}  // namespace arl::core
