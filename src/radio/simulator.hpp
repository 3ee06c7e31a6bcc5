#pragma once

/// \file simulator.hpp
/// Discrete synchronous-round simulator for anonymous radio networks with
/// collision detection (the model of paper §1.1/§2).
///
/// Semantics implemented, per global round r:
///  1. Every sleeping node whose wakeup tag equals r wakes spontaneously.
///  2. Every node that woke in an earlier round and has not terminated runs
///     its program: local round i = r - wake_round, action = D(H[0..i-1]).
///     (A node never acts in its wake round — local round 0 — matching the
///     model: "the local clock has value 0 in the wakeup round and the node
///     starts executing in local round 1".)
///  3. Channel resolution at each node: 0 transmitting neighbours → silence,
///     exactly 1 → that message, >= 2 → noise (∗).  Transmitters hear (∅).
///  4. Sleeping nodes (round < tag): a clean message forces a wakeup with
///     H[0] = (M); noise does NOT wake them (a forced wakeup requires
///     *receiving a message*, §2.1).  Nodes that woke spontaneously in this
///     round record H[0] from the channel per the wake policy below.
///
/// Wake-round hearing policy: the paper specifies H[0] = (M) for forced
/// wakeups and (∅) for spontaneous ones, but leaves open what a node waking
/// at its tag hears if the channel is non-silent in exactly that round.
/// `WakePolicy::HearAll` (default) records the channel state (∅/M/∗);
/// `WakePolicy::SilentWake` records (∅) unless a clean message arrived.
/// Patient protocols — everything the paper's positive results execute —
/// never transmit while any node sleeps, so the policy is unobservable for
/// them (asserted by tests).

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "config/configuration.hpp"
#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "radio/bitset.hpp"
#include "radio/history.hpp"
#include "radio/program.hpp"
#include "radio/trace.hpp"

namespace arl::radio {

/// What a node waking at its tag records when the channel is non-silent.
enum class WakePolicy : std::uint8_t {
  HearAll,     ///< record the channel state: (∅), (M) or (∗)
  SilentWake,  ///< record (∅) unless a clean message arrived
};

/// Which inner loop run() executes.  Both produce bit-identical results
/// (same RunResult including RunStats, injected-event counters and
/// histories) and, under a trace sink, the same callback sequence.  The
/// bitset loop is the event-driven production path every run takes,
/// faulted and traced runs included: it stores histories sparsely, keeps a
/// round calendar of per-node visits taken from NodeProgram::listen_streak,
/// and never visits a round in which no node acts, so its cost follows
/// transmissions and receptions rather than rounds.  The scalar loop is the
/// paper-faithful dense reference the differential tests compare it
/// against.
enum class SimulatorEngine : std::uint8_t {
  Scalar,  ///< the reference per-node loop (tests and E5 only)
  Bitset,  ///< event-driven, word-parallel production loop
};

/// Run-control knobs.
struct SimulatorOptions {
  /// Horizon guard: the run aborts (all_terminated = false) after this many
  /// global rounds, protecting against non-terminating protocols.
  config::Round max_rounds = 1'000'000;

  /// History retention override.  Unset: the protocol's
  /// Drip::history_window() decides.  Set to 0: retain everything (useful
  /// when a test wants full histories from a windowed protocol).  Set to W:
  /// retain a suffix of >= W entries.
  std::optional<std::size_t> history_window = {};

  /// Master seed from which per-node private-coin seeds derive.
  std::uint64_t coin_seed = 0;

  /// Per-node labels for non-anonymous baseline protocols; empty (the
  /// default) leaves NodeEnv::label unset.  When non-empty, size must equal
  /// the node count.
  std::vector<std::uint64_t> labels = {};

  /// Wake-round hearing policy (see file comment).
  WakePolicy wake_policy = WakePolicy::HearAll;

  /// Channel feedback strength; the paper's model has collision detection.
  /// Under NoCollisionDetection every (∗) becomes (∅) at the listeners.
  ChannelModel channel_model = ChannelModel::CollisionDetection;

  /// Inner-loop selection (see SimulatorEngine).
  SimulatorEngine engine = SimulatorEngine::Bitset;

  /// Fault plan (spec + per-job seed; see fault/fault.hpp).  The default
  /// `none` plan is inactive and leaves every code path exactly as without
  /// the field.  Both loops inject an active plan's events identically; the
  /// bitset loop rolls drop/corrupt dice only where a message arrives (as
  /// the scalar loop effectively does: silence rolls none) and keeps crash
  /// rounds on its calendar.
  fault::FaultPlan fault = {};

  /// When false, RunResult omits the per-node history vectors (lengths are
  /// still tracked, so NodeOutcome::history_length() and everything else
  /// stays identical).  The bitset loop rebuilds each dense history from
  /// its events at copy-out, costing one entry per round, so callers that
  /// only consume outcomes (the batch engine, core::run_protocol) set this
  /// to skip that copy-out.
  bool keep_histories = true;

  /// Optional execution observer (not owned).  A traced run steps every
  /// round and every awake node decides in each, as in the scalar loop.
  TraceSink* trace = nullptr;
};

/// Per-node results of a run.
struct NodeOutcome {
  config::Round wake_round = 0;      ///< global round the node woke in
  bool forced_wake = false;          ///< woken by a message (vs. spontaneously)
  bool terminated = false;           ///< program reached terminate
  config::Round done_round = 0;      ///< paper's done_v: local round of termination
  bool elected = false;              ///< decision function output
  bool crashed = false;              ///< halted by an injected crash fault
  History history;                   ///< retained entries (suffix if windowed)
  std::size_t history_dropped = 0;   ///< entries evicted by the window

  // Per-node energy/communication accounting (Kowalski–Mosteiro style):
  // local rounds executed (decide() calls — the wake round is not counted)
  // and rounds spent transmitting.  Summed over all nodes these equal
  // RunStats::node_rounds and RunStats::transmissions.
  std::uint64_t awake_rounds = 0;    ///< decide() calls this node executed
  std::uint64_t transmissions = 0;   ///< rounds this node spent transmitting

  /// Total entries ever recorded (dropped + retained).
  [[nodiscard]] std::size_t history_length() const { return history_dropped + history.size(); }
};

/// Aggregate channel statistics.
struct RunStats {
  std::uint64_t transmissions = 0;      ///< node-rounds spent transmitting
  std::uint64_t clean_receptions = 0;   ///< messages heard by awake listeners
  std::uint64_t collisions_heard = 0;   ///< noise heard by awake listeners
  std::uint64_t forced_wakeups = 0;     ///< sleepers woken by a message
  std::uint64_t node_rounds = 0;        ///< total awake node-rounds simulated

  // Per-node energy maxima (the busiest node's budget — node_rounds and
  // transmissions above are the totals).
  std::uint64_t max_node_transmissions = 0;  ///< max NodeOutcome::transmissions
  std::uint64_t max_node_awake_rounds = 0;   ///< max NodeOutcome::awake_rounds

  // Injected-fault event counts (all zero for an inactive FaultPlan).
  std::uint64_t injected_drops = 0;        ///< messages erased to silence
  std::uint64_t injected_corruptions = 0;  ///< messages garbled to noise
  std::uint64_t injected_crashes = 0;      ///< nodes crash-stopped
  std::uint64_t delayed_wakeups = 0;       ///< spontaneous wakeups staggered

  friend bool operator==(const RunStats& a, const RunStats& b) = default;
};

/// Result of one simulation.
struct RunResult {
  std::vector<NodeOutcome> nodes;
  config::Round rounds_executed = 0;  ///< number of global rounds simulated
  bool all_terminated = false;        ///< false iff the horizon guard fired
  RunStats stats;

  /// Nodes whose decision function returned true.
  [[nodiscard]] std::vector<graph::NodeId> leaders() const;
};

/// Reusable per-run working memory.  A sweep that executes many simulations
/// on one thread (e.g. an engine worker) hands the same scratch to every
/// run() and amortizes the per-run allocations; contents are overwritten
/// each run and never leak information between runs (asserted by the
/// differential tests).  Besides the scalar path's channel buffers, the
/// scratch owns the fast path's program/history arena (SoA node state and
/// event-list buffers reused across jobs), its round calendar, and the
/// adjacency bitmap's row storage.
class SimulatorScratch {
 public:
  SimulatorScratch() = default;

 private:
  friend class Simulator;
  // Scalar path: epoch-stamped channel-resolution buffers.
  std::vector<config::Round> stamp_;
  std::vector<std::uint32_t> transmitter_count_;
  std::vector<Message> pending_message_;
  std::vector<graph::NodeId> transmitters_;
  // Fast path: program/history arena — SoA node state replacing the scalar
  // loop's vector-of-NodeState, with sparse histories (non-silent events
  // plus a length) whose capacities survive across runs.
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<EventHistory> events_;
  std::vector<std::size_t> length_;
  std::vector<config::Round> wake_round_;
  std::vector<Message> outgoing_;
  std::vector<std::uint8_t> forced_;
  std::vector<std::uint8_t> woke_now_;
  // Fast path: round bitsets and worklists.
  AdjacencyBitmap adjacency_;
  std::vector<std::uint64_t> awake_bits_;
  std::vector<std::uint64_t> terminated_bits_;
  std::vector<std::uint64_t> transmit_bits_;
  std::vector<std::uint64_t> heard_bits_;
  std::vector<graph::NodeId> woke_list_;
  std::vector<std::pair<config::Round, graph::NodeId>> wake_events_;
  // Fast path: the round calendar — each node's pending visit round and
  // the round of its newest heap entry, this round's visits, a ring of
  // buckets for the next kNearRounds rounds and a min-heap beyond them.
  static constexpr std::size_t kNearRounds = 64;
  std::vector<std::uint64_t> due_;
  std::vector<std::uint64_t> heaped_;
  std::vector<graph::NodeId> now_;
  std::array<std::vector<graph::NodeId>, kNearRounds> near_;
  std::vector<std::uint64_t> later_;
  // Both loops: per-run fault state and effective (staggered) wakeup tags.
  fault::FaultContext fault_;
  std::vector<config::Round> effective_tag_;
};

/// Executes one protocol on one configuration.
class Simulator {
 public:
  /// Captures references; `configuration` and `drip` must outlive run().
  Simulator(const config::Configuration& configuration, const Drip& drip,
            SimulatorOptions options = {});

  // Temporaries would dangle before run(); use the simulate() free function
  // for one-shot calls with temporaries.
  Simulator(config::Configuration&&, const Drip&, SimulatorOptions = {}) = delete;
  Simulator(const config::Configuration&, Drip&&, SimulatorOptions = {}) = delete;
  Simulator(config::Configuration&&, Drip&&, SimulatorOptions = {}) = delete;

  /// Runs to global termination (all programs terminated) or the horizon.
  [[nodiscard]] RunResult run() const;

  /// Same as run(), reusing `scratch`'s buffers instead of allocating.
  [[nodiscard]] RunResult run(SimulatorScratch& scratch) const;

 private:
  [[nodiscard]] RunResult run_scalar(SimulatorScratch& scratch) const;
  [[nodiscard]] RunResult run_bitset(SimulatorScratch& scratch) const;

  const config::Configuration& configuration_;
  const Drip& drip_;
  SimulatorOptions options_;
};

/// Convenience wrapper: construct and run.
[[nodiscard]] RunResult simulate(const config::Configuration& configuration, const Drip& drip,
                                 SimulatorOptions options = {});

/// Convenience wrapper with buffer reuse (see SimulatorScratch).
[[nodiscard]] RunResult simulate(const config::Configuration& configuration, const Drip& drip,
                                 SimulatorOptions options, SimulatorScratch& scratch);

}  // namespace arl::radio
