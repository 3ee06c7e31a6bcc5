#pragma once

/// \file program.hpp
/// The protocol interface: DRIPs and per-node programs (paper §2.2–2.3).
///
/// A DRIP is formally one function D shared by all (anonymous) nodes that
/// maps a history prefix to an action.  Here a `Drip` is a factory producing
/// one `NodeProgram` per node; programs may keep incremental state, which is
/// observationally equivalent as long as the state is a function of the
/// history — `decide` is invoked exactly once per local round, in order, with
/// the history prefix the formal model prescribes.  Anonymity is structural:
/// a program never sees a node id.  Labels (for the non-anonymous baseline
/// protocols from the related-work landscape) and private coin seeds (for
/// randomized baselines) arrive through `NodeEnv`; faithful paper protocols
/// ignore both.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "config/configuration.hpp"
#include "radio/history.hpp"

namespace arl::radio {

/// What a node does in one local round.
struct Action {
  /// The three permitted behaviours.
  enum class Kind : std::uint8_t { Listen, Transmit, Terminate };

  Kind kind = Kind::Listen;
  Message message = 0;  ///< payload when kind == Transmit

  [[nodiscard]] static Action listen() { return {Kind::Listen, 0}; }
  [[nodiscard]] static Action transmit(Message payload) { return {Kind::Transmit, payload}; }
  [[nodiscard]] static Action terminate() { return {Kind::Terminate, 0}; }

  [[nodiscard]] bool is_listen() const { return kind == Kind::Listen; }
  [[nodiscard]] bool is_transmit() const { return kind == Kind::Transmit; }
  [[nodiscard]] bool is_terminate() const { return kind == Kind::Terminate; }

  friend bool operator==(const Action& a, const Action& b) = default;
};

/// Per-node execution environment.  Anonymous deterministic protocols must
/// ignore it entirely; it exists for the labeled / randomized baselines.
struct NodeEnv {
  std::uint64_t coin_seed = 0;                ///< seed for private coins
  std::optional<std::uint64_t> label = {};    ///< distinct id, if the model grants one
};

/// The state machine run by one node.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Action for local round `local_round` (>= 1), given the history
  /// H[0..local_round-1].  Called at most once per round, in increasing round
  /// order; rounds covered by a positive listen_streak() may be skipped
  /// (the program is then treated as having listened through them).
  virtual Action decide(config::Round local_round, const HistoryView& history) = 0;

  /// Scheduling hint for the simulator's per-node round calendar: a lower
  /// bound k on how many consecutive local rounds, starting at
  /// `local_round`, this program is guaranteed to Listen provided it hears
  /// silence in them.  The bitset loop then skips decide() for those rounds
  /// and visits the node next at local_round + k — unless the node hears a
  /// message or noise first, in which case it is visited in the round right
  /// after that reception and asked again, with the non-silent entry in its
  /// history.  Each node is scheduled on its own; other nodes' streaks,
  /// wakeups and transmissions do not shorten it.  Returning k > 0 promises
  /// that (a) decide(local_round + j) would return Listen for every j < k
  /// whenever H[local_round .. local_round+j-1] are all silent, and (b) the
  /// program answers every later decide() and listen_streak() call the same
  /// whether or not such skipped calls happened.  listen_streak() itself
  /// must not change what later calls return.  The default (0) opts out and
  /// keeps the call-every-round contract of decide().  Traced runs step
  /// every round and never ask.
  [[nodiscard]] virtual config::Round listen_streak(config::Round local_round,
                                                    const HistoryView& history) {
    (void)local_round;
    (void)history;
    return 0;
  }

  /// Decision function f applied to the node's own history after
  /// termination: true iff this node declares itself leader.
  [[nodiscard]] virtual bool elected() const { return false; }
};

/// A distributed radio interaction protocol: the shared algorithm installed
/// at every node.
class Drip {
 public:
  virtual ~Drip() = default;

  /// Creates the program for one node.
  [[nodiscard]] virtual std::unique_ptr<NodeProgram> instantiate(const NodeEnv& env) const = 0;

  /// Human-readable protocol name (for traces and reports).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of most recent history entries the programs inspect, or nullopt
  /// when they need the full history.  The simulator uses this to bound
  /// memory on long runs.
  [[nodiscard]] virtual std::optional<std::size_t> history_window() const { return std::nullopt; }
};

}  // namespace arl::radio
