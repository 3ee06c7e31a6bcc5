#pragma once

/// \file workload.hpp
/// The workload axis as a first-class API, mirroring the protocol axis
/// (core/protocol.hpp): a value-typed `WorkloadSpec` naming which stream of
/// configurations a sweep runs, a string-keyed registry (`parse_workload` /
/// `registered_workloads`) and one instantiation — `instantiate` — that
/// turns any spec into the engine's `CountedSweep`.
///
/// Why this exists: sweep identity used to live as ad-hoc flag-formatting
/// code inside the CLI, so only its four hard-coded families could be
/// sharded, merged or cached by identity, and the graph generators' grids,
/// tori, hypercubes and random trees were unreachable from any sweep.  With
/// the workload behind one spec, every scenario — the paper's §4 families,
/// random G(n,p), exhaustive censuses, every generator topology, mutation
/// neighbourhoods — automatically gains sharding, merging, caching and
/// head-to-head protocol cross products, and "add a scenario" is a registry
/// entry, not new CLI plumbing.
///
/// Identity contract: `parse_workload(w.name()) == w` for every spec, and
/// `w.digest()` is a canonical 64-bit digest of the spec (equal to
/// `dist::sweep_digest(w.name())`, so it feeds `dist::SweepKey` directly).
/// Two sweeps whose workloads differ in *any* identity-bearing field — a
/// topology parameter, the tag span, the channel model — have different
/// names and digests, and therefore never merge.
///
/// Determinism contract: `instantiate(seed, ...)` produces a job stream that
/// is a pure function of (spec, seed, protocols): configuration i is derived
/// from `sweep_configuration_seed(seed)` split at i (independent of the
/// per-job coin streams), so any shard of the sweep reproduces exactly the
/// jobs an unsharded run executes for those ids (tests/test_dist.cpp).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocol.hpp"
#include "engine/sweep.hpp"
#include "radio/message.hpp"

namespace arl::engine {

/// Run-sizing knobs of WorkloadSpec::instantiate(): everything that scales
/// a run without changing workload identity (identity lives in the spec;
/// the count is carried by dist::SweepKey::total_jobs).
struct InstantiateOptions {
  std::size_t count = 100;  ///< configurations for the unbounded kinds
};

/// Which configuration stream a spec names.
enum class WorkloadKind : std::uint8_t {
  Random,      ///< seeded connected G(n,p) with random span-σ tags
  Exhaustive,  ///< every connected n-node configuration, tags in [0, τ]
  FamilyG,     ///< the paper's §4 family G_m, m = 2, 3, ...
  FamilyH,     ///< the paper's §4 family H_m, m = 1, 2, ...
  FamilyS,     ///< the paper's §4 infeasible family S_m, m = 1, 2, ...
  Staggered,   ///< staggered paths n = 2, 3, ... (maximal wakeup asymmetry)
  Grid,        ///< rows×cols mesh with random span-σ tags
  Torus,       ///< rows×cols wrap-around mesh with random span-σ tags
  Hypercube,   ///< d-dimensional hypercube with random span-σ tags
  Tree,        ///< uniformly random n-node tree with random span-σ tags
  SingleHop,   ///< complete graph (single-hop network) with random span-σ tags
  Mutations,   ///< every single-tag mutation of each base configuration
};

/// A workload plus its parameters — a value type, cheap to copy, compared
/// member-wise (the Mutations base is compared by value, not by pointer).
/// Construct via the factories or `parse_workload`; the defaults make
/// `WorkloadSpec{}` the 16-node random workload.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::Random;

  // Topology / tag parameters.  Only the fields the kind's grammar names
  // are meaningful; the factories and parse_workload leave the others at
  // these member defaults, which keeps member-wise equality consistent.
  std::uint32_t nodes = 16;       ///< n (random, exhaustive, tree, single-hop)
  std::uint32_t rows = 8;         ///< grid/torus rows
  std::uint32_t cols = 8;         ///< grid/torus cols
  std::uint32_t dimension = 6;    ///< hypercube d
  std::uint32_t span = 3;         ///< tag span σ of the random-tag kinds
  std::uint32_t max_tag = 2;      ///< τ (exhaustive tag ceiling)
  double edge_probability = 0.3;  ///< p (random)
  bool exact = true;              ///< span exactly σ (else tags uniform in [0, σ])

  // Execution identity shared by every kind: two sweeps that classify under
  // different channel feedback are different workloads and must not share a
  // sweep digest.
  radio::ChannelModel model = radio::ChannelModel::CollisionDetection;

  /// Mutations base workload; non-null exactly when kind == Mutations (the
  /// wrapper mirrors the base's model so election options agree).
  std::shared_ptr<const WorkloadSpec> base;

  [[nodiscard]] static WorkloadSpec random(std::uint32_t n = 16, double p = 0.3,
                                           std::uint32_t sigma = 3);
  [[nodiscard]] static WorkloadSpec exhaustive(std::uint32_t n = 4, std::uint32_t tau = 2);
  [[nodiscard]] static WorkloadSpec family_g();
  [[nodiscard]] static WorkloadSpec family_h();
  [[nodiscard]] static WorkloadSpec family_s();
  [[nodiscard]] static WorkloadSpec staggered();
  [[nodiscard]] static WorkloadSpec grid(std::uint32_t rows = 8, std::uint32_t cols = 8,
                                         std::uint32_t sigma = 3);
  [[nodiscard]] static WorkloadSpec torus(std::uint32_t rows = 8, std::uint32_t cols = 8,
                                          std::uint32_t sigma = 3);
  [[nodiscard]] static WorkloadSpec hypercube(std::uint32_t d = 6, std::uint32_t sigma = 3);
  [[nodiscard]] static WorkloadSpec tree(std::uint32_t n = 64, std::uint32_t sigma = 3);
  [[nodiscard]] static WorkloadSpec single_hop(std::uint32_t n = 32, std::uint32_t sigma = 3);
  [[nodiscard]] static WorkloadSpec mutations(WorkloadSpec base);

  /// Registry key, round-trippable through parse_workload: the kind token
  /// followed by its parameters in canonical order ("random:n=16,p=0.3,
  /// sigma=3", "grid:rows=8,cols=8,sigma=3", "exhaustive:n=4,tau=2", bare
  /// "family-g"/"staggered", "mutations:" + base name), with ",model=nocd"
  /// and ",exact=0" appended only when they differ from the defaults.  Names never contain spaces, so they travel verbatim on the
  /// shard-report wire (dist/report_io.hpp).
  [[nodiscard]] std::string name() const;

  /// One-line human description (what the configuration stream contains).
  [[nodiscard]] std::string describe() const;

  /// Canonical 64-bit digest of the spec — a pure function of name(), equal
  /// to dist::sweep_digest(name()), so it feeds dist::SweepKey directly and
  /// shard reports can verify workload identity by re-parsing the name.
  [[nodiscard]] std::uint64_t digest() const;

  /// True when the workload implies its own configuration count (exhaustive
  /// enumerations, mutation neighbourhoods of self-counting bases);
  /// instantiate ignores InstantiateOptions::count for these kinds.
  [[nodiscard]] bool bounded() const;

  /// The election options the workload's jobs run under (the channel model;
  /// Mutations delegates to its base).
  [[nodiscard]] core::ElectionOptions election_options() const;

  /// Turns the spec into the engine's job stream: `count` configurations
  /// (or the implied count for bounded kinds) crossed with `protocols` —
  /// job i runs configuration i / P under protocols[i % P], so the P jobs
  /// of one configuration are consecutive (head-to-head comparison order,
  /// same as cross_protocols).  `seed` is the batch master seed; the
  /// configuration stream derives from it via sweep_configuration_seed, so
  /// one --seed reproduces configurations and coins alike.  Throws
  /// support::ContractViolation on out-of-range parameters.
  [[nodiscard]] CountedSweep instantiate(std::uint64_t seed,
                                         std::vector<core::ProtocolSpec> protocols,
                                         const InstantiateOptions& options = {}) const;

  friend bool operator==(const WorkloadSpec& a, const WorkloadSpec& b);
};

/// The registered workloads, one spec per kind with default parameters, in
/// registry order.  `parse_workload(w.name()) == w` for every entry
/// (asserted by tests/test_workload.cpp).
[[nodiscard]] const std::vector<WorkloadSpec>& registered_workloads();

/// Comma-separated registry keys with parameter placeholders — the list CLI
/// error messages and `arl workloads` show.
[[nodiscard]] std::string workload_names();

/// Parses a registry key with optional ",key=value" parameters (any order,
/// no duplicates; omitted keys take the kind's defaults).  Throws
/// support::ContractViolation naming the registered workloads on an unknown
/// kind, and a one-line reason on a malformed or out-of-range parameter.
[[nodiscard]] WorkloadSpec parse_workload(std::string_view text);

}  // namespace arl::engine
