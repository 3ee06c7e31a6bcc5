#include "radio/simulator.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace arl::radio {

namespace {

/// Runtime state of one node.
struct NodeState {
  enum class Phase : std::uint8_t { Asleep, Awake, Terminated };

  Phase phase = Phase::Asleep;
  config::Round wake_round = 0;
  bool forced = false;
  bool woke_this_round = false;
  bool transmitting = false;
  Message outgoing = 0;
  std::unique_ptr<NodeProgram> program;
  History history;
  std::size_t dropped = 0;
};

/// Appends an entry, evicting the oldest entries in chunks when a window is
/// set (amortized O(1) per append).
void push_entry(NodeState& node, HistoryEntry entry, std::optional<std::size_t> window) {
  node.history.push_back(entry);
  if (window && node.history.size() > 2 * *window) {
    const std::size_t evict = node.history.size() - *window;
    node.history.erase(node.history.begin(),
                       node.history.begin() + static_cast<std::ptrdiff_t>(evict));
    node.dropped += evict;
  }
}

/// Index of the oldest entry push_entry's retention keeps after `length`
/// appends: the history grows to 2W entries and, when an append would make
/// it 2W+1, is cut back to the newest W.  Without a window, 0.  The bitset
/// loop derives its sparse histories' retained suffix from this, so its
/// out-of-window trap fires exactly where the scalar loop's does.
std::size_t window_first_kept(std::size_t length, std::optional<std::size_t> window) {
  if (!window || length <= 2 * *window) {
    return 0;
  }
  const std::size_t w = *window;
  return length - (w + (length - (2 * w + 1)) % (w + 1));
}

/// "No visit pending" in the bitset loop's round calendar.
constexpr std::uint64_t kNotDue = std::numeric_limits<std::uint64_t>::max();

/// The node of the lowest set bit of word `word` of a node bitset.
graph::NodeId lowest_node(std::size_t word, std::uint64_t bits) {
  return static_cast<graph::NodeId>(word * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
}

/// Folds the per-node energy counters into the aggregate maxima.
void finish_energy_stats(RunResult& result) {
  for (const NodeOutcome& node : result.nodes) {
    result.stats.max_node_transmissions =
        std::max(result.stats.max_node_transmissions, node.transmissions);
    result.stats.max_node_awake_rounds =
        std::max(result.stats.max_node_awake_rounds, node.awake_rounds);
  }
}

/// What a listener perceives as noise: (∗) with collision detection;
/// without it, noise is indistinguishable from silence.
HistoryEntry noise(ChannelModel model) {
  return model == ChannelModel::CollisionDetection ? HistoryEntry::collision()
                                                   : HistoryEntry::silence();
}

/// Binds `fault` to one run.  An active plan's crash schedule and staggered
/// wakeup tags are precomputed here (the obs fault-inject phase); the
/// per-round channel dice are pure functions of (seed, round, node) rolled
/// inline.  Returns whether wakeups are staggered, in which case
/// `effective_tag` holds every node's delayed tag.
bool bind_fault(const fault::FaultPlan& plan, const config::Configuration& configuration,
                fault::FaultContext& fault, std::vector<config::Round>& effective_tag) {
  const graph::NodeId n = configuration.graph().node_count();
  if (!plan.active()) {
    fault.reset(plan, n);
    return false;
  }
  const obs::PhaseTimer span(obs::Phase::FaultInject);
  fault.reset(plan, n);
  effective_tag.clear();
  if (fault.max_wake_delay() == 0) {
    return false;
  }
  effective_tag.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const std::uint64_t staggered =
        static_cast<std::uint64_t>(configuration.tag(v)) + fault.wake_delay(v);
    effective_tag[v] = static_cast<config::Round>(
        std::min<std::uint64_t>(staggered, std::numeric_limits<config::Round>::max()));
  }
  return true;
}

/// Channel faults apply per listener on top of the resolved channel: a
/// clean message may be erased to silence (drop) or garbled to noise
/// (corrupt) by this listener's die.  Both loops call this at most once per
/// node per round, so the injected-event counters are exact; silence rolls
/// no dice, so the bitset loop rolls them only where a message arrives.
HistoryEntry perceive(HistoryEntry entry, const fault::FaultContext& fault, config::Round round,
                      graph::NodeId v, ChannelModel model, RunStats& stats) {
  if (!fault.active() || !entry.is_message()) {
    return entry;
  }
  if (fault.drop_message(round, v)) {
    ++stats.injected_drops;
    return HistoryEntry::silence();
  }
  if (fault.corrupt_message(round, v)) {
    ++stats.injected_corruptions;
    return noise(model);  // a garbled message sounds like a collision
  }
  return entry;
}

}  // namespace

std::vector<graph::NodeId> RunResult::leaders() const {
  std::vector<graph::NodeId> out;
  for (std::size_t v = 0; v < nodes.size(); ++v) {
    if (nodes[v].elected) {
      out.push_back(static_cast<graph::NodeId>(v));
    }
  }
  return out;
}

Simulator::Simulator(const config::Configuration& configuration, const Drip& drip,
                     SimulatorOptions options)
    : configuration_(configuration), drip_(drip), options_(options) {
  ARL_EXPECTS(options_.max_rounds > 0, "horizon must be positive");
}

RunResult Simulator::run() const {
  SimulatorScratch scratch;
  return run(scratch);
}

RunResult Simulator::run(SimulatorScratch& scratch) const {
  return options_.engine == SimulatorEngine::Scalar ? run_scalar(scratch) : run_bitset(scratch);
}

RunResult Simulator::run_scalar(SimulatorScratch& scratch) const {
  const graph::Graph& graph = configuration_.graph();
  const graph::NodeId n = graph.node_count();
  std::optional<std::size_t> window =
      options_.history_window ? options_.history_window : drip_.history_window();
  if (window && *window == 0) {
    window = std::nullopt;  // 0 = explicit "retain everything" override
  }
  TraceSink* trace = options_.trace;

  ARL_EXPECTS(options_.labels.empty() || options_.labels.size() == n,
              "labels must be absent or cover every node");
  support::Rng seeder(options_.coin_seed);
  std::vector<NodeState> nodes(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    NodeEnv env;
    env.coin_seed = seeder.split(v).next();
    if (!options_.labels.empty()) {
      env.label = options_.labels[v];
    }
    nodes[v].program = drip_.instantiate(env);
    ARL_ENSURES(nodes[v].program != nullptr, "drip must produce a program");
  }

  fault::FaultContext& fault = scratch.fault_;
  const bool staggered_wake =
      bind_fault(options_.fault, configuration_, fault, scratch.effective_tag_);
  const bool fault_on = fault.active();
  auto wake_tag = [&](graph::NodeId v) -> config::Round {
    return staggered_wake ? scratch.effective_tag_[v] : configuration_.tag(v);
  };

  RunResult result;
  result.nodes.resize(n);

  // Per-round channel resolution uses epoch-stamped counters so no clearing
  // pass is needed between rounds.
  std::vector<config::Round>& stamp = scratch.stamp_;
  std::vector<std::uint32_t>& transmitter_count = scratch.transmitter_count_;
  std::vector<Message>& pending_message = scratch.pending_message_;
  std::vector<graph::NodeId>& transmitters = scratch.transmitters_;
  stamp.assign(n, static_cast<config::Round>(-1));
  transmitter_count.assign(n, 0);
  pending_message.assign(n, 0);
  transmitters.clear();

  std::uint32_t live = n;  // nodes not yet terminated

  config::Round round = 0;
  for (; round < options_.max_rounds && live > 0; ++round) {
    if (trace != nullptr) {
      trace->on_round_begin(round);
    }

    // 0. Injected crash-stops: a crashed node halts before acting this
    //    round and never terminates properly (NodeOutcome::terminated stays
    //    false, so a crashed run can only verify as a detected fault).
    if (fault_on) {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (nodes[v].phase != NodeState::Phase::Terminated && fault.crash_round(v) == round) {
          nodes[v].phase = NodeState::Phase::Terminated;
          result.nodes[v].crashed = true;
          ++result.stats.injected_crashes;
          --live;
        }
      }
    }

    // 1. Spontaneous wakeups: (possibly staggered) tag == round.
    for (graph::NodeId v = 0; v < n; ++v) {
      NodeState& node = nodes[v];
      node.woke_this_round = false;
      node.transmitting = false;
      if (node.phase == NodeState::Phase::Asleep && wake_tag(v) == round) {
        node.phase = NodeState::Phase::Awake;
        node.wake_round = round;
        node.forced = false;
        node.woke_this_round = true;
        if (staggered_wake && scratch.effective_tag_[v] != configuration_.tag(v)) {
          ++result.stats.delayed_wakeups;
        }
      }
    }

    // 2. Actions of nodes awake since an earlier round.
    transmitters.clear();
    for (graph::NodeId v = 0; v < n; ++v) {
      NodeState& node = nodes[v];
      if (node.phase != NodeState::Phase::Awake || node.woke_this_round) {
        continue;
      }
      const config::Round local = round - node.wake_round;
      const HistoryView view(node.history, node.dropped);
      ARL_ASSERT(view.length() == local, "history length must equal the local round");
      const Action action = node.program->decide(local, view);
      ++result.stats.node_rounds;
      ++result.nodes[v].awake_rounds;
      if (trace != nullptr) {
        trace->on_action(v, round, local, action);
      }
      switch (action.kind) {
        case Action::Kind::Listen:
          break;
        case Action::Kind::Transmit:
          node.transmitting = true;
          node.outgoing = action.message;
          transmitters.push_back(v);
          ++result.stats.transmissions;
          ++result.nodes[v].transmissions;
          break;
        case Action::Kind::Terminate:
          node.phase = NodeState::Phase::Terminated;
          // H[done_v] is recorded as (∅): a terminating node no longer
          // interacts with the channel (same convention as a transmitter),
          // and the paper's decision function consumes H[0..done_v].
          push_entry(node, HistoryEntry::silence(), window);
          result.nodes[v].terminated = true;
          result.nodes[v].done_round = local;
          --live;
          break;
      }
    }

    // 3. Channel resolution: stamp the neighbourhoods of all transmitters.
    for (const graph::NodeId t : transmitters) {
      for (const graph::NodeId w : graph.neighbors(t)) {
        if (stamp[w] != round) {
          stamp[w] = round;
          transmitter_count[w] = 0;
        }
        ++transmitter_count[w];
        pending_message[w] = nodes[t].outgoing;
      }
    }
    auto channel_at = [&](graph::NodeId v) -> HistoryEntry {
      if (stamp[v] != round || transmitter_count[v] == 0) {
        return HistoryEntry::silence();
      }
      if (transmitter_count[v] == 1) {
        return HistoryEntry::message(pending_message[v]);
      }
      return noise(options_.channel_model);
    };
    auto perceived_at = [&](graph::NodeId v) -> HistoryEntry {
      return perceive(channel_at(v), fault, round, v, options_.channel_model, result.stats);
    };

    // 4. Record histories and process wakeups.
    for (graph::NodeId v = 0; v < n; ++v) {
      NodeState& node = nodes[v];
      switch (node.phase) {
        case NodeState::Phase::Terminated:
          break;
        case NodeState::Phase::Awake: {
          HistoryEntry entry = HistoryEntry::silence();
          if (node.woke_this_round) {
            // H[0] of a spontaneous wakeup, subject to the wake policy.
            const HistoryEntry channel = perceived_at(v);
            if (channel.is_message()) {
              // Tag round coincides with a clean reception: the paper counts
              // r <= t_v receptions as forced wakeups.
              node.forced = true;
              entry = channel;
              ++result.stats.forced_wakeups;
            } else if (options_.wake_policy == WakePolicy::HearAll) {
              entry = channel;
            }
            result.nodes[v].wake_round = node.wake_round;
            result.nodes[v].forced_wake = node.forced;
            if (trace != nullptr) {
              trace->on_wake(v, round, node.forced, entry);
            }
          } else if (node.transmitting) {
            entry = HistoryEntry::silence();  // a transmitter hears nothing
          } else {
            entry = perceived_at(v);
            if (entry.is_message()) {
              ++result.stats.clean_receptions;
            } else if (entry.is_collision()) {
              ++result.stats.collisions_heard;
            }
          }
          push_entry(node, entry, window);
          if (trace != nullptr && !node.woke_this_round) {
            trace->on_reception(v, round, entry);
          }
          break;
        }
        case NodeState::Phase::Asleep: {
          const HistoryEntry channel = perceived_at(v);
          if (channel.is_message()) {
            // Forced wakeup: a clean message wakes a sleeper; noise does not.
            node.phase = NodeState::Phase::Awake;
            node.wake_round = round;
            node.forced = true;
            node.woke_this_round = true;
            push_entry(node, channel, window);
            result.nodes[v].wake_round = round;
            result.nodes[v].forced_wake = true;
            ++result.stats.forced_wakeups;
            if (trace != nullptr) {
              trace->on_wake(v, round, true, channel);
            }
          }
          break;
        }
      }
    }

    if (trace != nullptr) {
      trace->on_round_end(round);
    }
  }

  result.rounds_executed = round;
  result.all_terminated = (live == 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    NodeState& node = nodes[v];
    if (options_.keep_histories) {
      result.nodes[v].history = std::move(node.history);
      result.nodes[v].history_dropped = node.dropped;
    } else {
      result.nodes[v].history_dropped = node.dropped + node.history.size();
    }
    result.nodes[v].elected = node.program->elected();
    if (node.phase == NodeState::Phase::Awake || node.phase == NodeState::Phase::Terminated) {
      result.nodes[v].wake_round = node.wake_round;
      result.nodes[v].forced_wake = node.forced;
    }
  }
  finish_energy_stats(result);
  return result;
}

RunResult Simulator::run_bitset(SimulatorScratch& s) const {
  const graph::Graph& graph = configuration_.graph();
  const graph::NodeId n = graph.node_count();
  std::optional<std::size_t> window =
      options_.history_window ? options_.history_window : drip_.history_window();
  if (window && *window == 0) {
    window = std::nullopt;  // 0 = explicit "retain everything" override
  }

  ARL_EXPECTS(options_.labels.empty() || options_.labels.size() == n,
              "labels must be absent or cover every node");

  s.adjacency_.build(graph);
  const std::size_t words = s.adjacency_.words_per_row();

  // Program/history arena: the slot vectors and event-list capacities
  // persist across runs; programs themselves are stateful and re-instantiated.
  const support::Rng seeder(options_.coin_seed);
  s.programs_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    NodeEnv env;
    env.coin_seed = seeder.split(v).next();
    if (!options_.labels.empty()) {
      env.label = options_.labels[v];
    }
    s.programs_[v] = drip_.instantiate(env);
    ARL_ENSURES(s.programs_[v] != nullptr, "drip must produce a program");
  }
  if (s.events_.size() < n) {
    s.events_.resize(n);
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    s.events_[v].clear();
  }
  s.length_.assign(n, 0);
  s.wake_round_.assign(n, 0);
  s.outgoing_.assign(n, 0);
  s.forced_.assign(n, 0);
  s.woke_now_.assign(n, 0);
  s.due_.assign(n, kNotDue);
  s.heaped_.assign(n, kNotDue);
  s.awake_bits_.assign(words, 0);
  s.terminated_bits_.assign(words, 0);
  s.transmit_bits_.assign(words, 0);
  s.heard_bits_.assign(words, 0);
  s.woke_list_.clear();
  s.transmitters_.clear();
  for (std::vector<graph::NodeId>& bucket : s.near_) {
    bucket.clear();
  }
  s.later_.clear();

  fault::FaultContext& fault = s.fault_;
  const bool staggered_wake = bind_fault(options_.fault, configuration_, fault, s.effective_tag_);
  s.wake_events_.clear();
  s.wake_events_.reserve(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    s.wake_events_.emplace_back(staggered_wake ? s.effective_tag_[v] : configuration_.tag(v), v);
  }
  std::sort(s.wake_events_.begin(), s.wake_events_.end());

  // Crash-stops as a cursor over the precomputed schedule: the first crash
  // round >= `from`, or kNeverCrashes.  Rescanned once per crash round (at
  // most k of them), so the loop itself pays one comparison per round.
  auto next_crash_from = [&](std::uint64_t from) {
    std::uint64_t next = fault::FaultContext::kNeverCrashes;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (fault.crash_round(v) >= from) {
        next = std::min(next, fault.crash_round(v));
      }
    }
    return next;
  };
  std::uint64_t next_crash = next_crash_from(0);

  // A trace sink observes every round in the reference loop's order, so a
  // traced run steps each round and every awake node decides in each.
  TraceSink* trace = options_.trace;

  RunResult result;
  result.nodes.resize(n);

  // Records the non-silent entry H_v[index].  A windowed history sheds the
  // events its window has evicted once they outnumber it, so memory stays
  // bounded by the window as well as by what the node heard.
  auto record = [&](graph::NodeId v, std::size_t index, HistoryEntry entry) {
    EventHistory& events = s.events_[v];
    events.push_back({index, entry});
    if (window && events.size() > 4 * *window) {
      const std::size_t keep_from = window_first_kept(index + 1, window);
      events.erase(events.begin(),
                   std::partition_point(events.begin(), events.end(), [&](const HistoryEvent& e) {
                     return e.index < keep_from;
                   }));
    }
  };

  // What node v hears this round: popcount of its row against the
  // transmitter bitset, early-exiting at two (two transmitters sound the
  // same as twenty).
  auto channel_at = [&](graph::NodeId v) -> HistoryEntry {
    const std::uint64_t* row = s.adjacency_.row(v);
    std::uint32_t count = 0;
    graph::NodeId single = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t hit = row[w] & s.transmit_bits_[w];
      if (hit == 0) {
        continue;
      }
      count += static_cast<std::uint32_t>(std::popcount(hit));
      if (count > 1) {
        return noise(options_.channel_model);
      }
      single = lowest_node(w, hit);
    }
    if (count == 0) {
      return HistoryEntry::silence();
    }
    return HistoryEntry::message(s.outgoing_[single]);
  };

  std::uint32_t live = n;
  std::size_t next_wake = 0;
  const std::uint64_t horizon = options_.max_rounds;
  std::uint64_t round = 0;
  auto perceived_at = [&](graph::NodeId v) -> HistoryEntry {
    return perceive(channel_at(v), fault, static_cast<config::Round>(round), v,
                    options_.channel_model, result.stats);
  };

  // The round calendar.  Each awake node has one pending visit, due_[v].
  // Visits fewer than kNear rounds ahead wait in the ring near_[round %
  // kNear] (near_mask marks the non-empty buckets); later ones in the
  // min-heap later_ of (round << 32 | node).  An entry that no longer
  // matches due_[v] is stale and skipped.  heaped_[v] is the round of v's
  // newest heap entry while it is still queued, so a node called back by a
  // reception and handed the same streak end again reuses that entry.
  // Traced runs keep no calendar: every awake node is visited every round.
  constexpr std::uint64_t kNear = SimulatorScratch::kNearRounds;
  std::uint64_t near_mask = 0;
  auto schedule = [&](graph::NodeId v, std::uint64_t at) {
    if (trace != nullptr || s.due_[v] == at) {
      return;
    }
    s.due_[v] = at;
    if (at >= horizon) {
      return;
    }
    if (at - round < kNear) {
      s.near_[at % kNear].push_back(v);
      near_mask |= std::uint64_t{1} << (at % kNear);
    } else if (s.heaped_[v] != at) {
      s.heaped_[v] = at;
      s.later_.push_back(at << 32 | v);
      std::push_heap(s.later_.begin(), s.later_.end(), std::greater<>());
    }
  };
  // Pops the earliest heap entry and returns its node.
  auto pop_later = [&]() {
    const std::uint64_t top = s.later_.front();
    std::pop_heap(s.later_.begin(), s.later_.end(), std::greater<>());
    s.later_.pop_back();
    const auto v = static_cast<graph::NodeId>(top & 0xffffffffu);
    if (s.heaped_[v] == top >> 32) {
      s.heaped_[v] = kNotDue;
    }
    return v;
  };
  // The first round >= `from` in which anything happens: a visit, a wakeup
  // tag or a crash.  Rounds in between are silent for every node and
  // change nothing but history lengths, which are implied by the round.
  // (Ring entries all lie in [from, from + kNear): none is ever passed.)
  auto next_event_round = [&](std::uint64_t from) {
    std::uint64_t next = std::min(horizon, next_crash);
    if (next_wake < s.wake_events_.size()) {
      next = std::min<std::uint64_t>(next, s.wake_events_[next_wake].first);
    }
    if (near_mask != 0) {
      const auto shift = static_cast<int>(from % kNear);
      next = std::min<std::uint64_t>(next, from + std::countr_zero(std::rotr(near_mask, shift)));
    }
    while (!s.later_.empty()) {
      const std::uint64_t at = s.later_.front() >> 32;
      if (s.due_[s.later_.front() & 0xffffffffu] == at) {
        next = std::min(next, at);
        break;
      }
      (void)pop_later();
    }
    return next;
  };

  while (live > 0) {
    if (trace == nullptr) {
      round = next_event_round(round);
    }
    if (round >= horizon) {
      round = horizon;
      break;
    }
    if (trace != nullptr) {
      trace->on_round_begin(static_cast<config::Round>(round));
    }

    // 0. Injected crash-stops, before any action this round (as in the
    //    scalar loop): the node halts for good without terminating, its
    //    history ending with the previous round.
    if (round == next_crash) {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (fault.crash_round(v) != round || bitset_test(s.terminated_bits_, v)) {
          continue;
        }
        if (bitset_test(s.awake_bits_, v)) {
          bitset_clear(s.awake_bits_, v);
          s.length_[v] = round - s.wake_round_[v];
        }
        bitset_set(s.terminated_bits_, v);
        result.nodes[v].crashed = true;
        ++result.stats.injected_crashes;
        --live;
      }
      next_crash = next_crash_from(round + 1);
    }

    // 1. Spontaneous wakeups: (possibly staggered) tag == round.  (A node
    //    force-woken — or even terminated — before its tag keeps its
    //    earlier state.)
    s.woke_list_.clear();
    while (next_wake < s.wake_events_.size() && s.wake_events_[next_wake].first == round) {
      const graph::NodeId v = s.wake_events_[next_wake].second;
      ++next_wake;
      if (!bitset_test(s.awake_bits_, v) && !bitset_test(s.terminated_bits_, v)) {
        bitset_set(s.awake_bits_, v);
        s.wake_round_[v] = static_cast<config::Round>(round);
        s.forced_[v] = 0;
        s.woke_now_[v] = 1;
        s.woke_list_.push_back(v);
        if (staggered_wake && s.effective_tag_[v] != configuration_.tag(v)) {
          ++result.stats.delayed_wakeups;
        }
      }
    }

    // 2. Visits due this round.  A visit first asks listen_streak(): a
    //    positive streak moves the node's next visit that many rounds out
    //    (it listens meanwhile, hearing silence unless a reception below
    //    calls it back); otherwise the node decides.
    s.now_.clear();
    if (trace == nullptr) {
      const std::uint64_t bucket = round % kNear;
      if ((near_mask >> bucket & 1) != 0) {
        std::swap(s.now_, s.near_[bucket]);
        near_mask &= ~(std::uint64_t{1} << bucket);
      }
      while (!s.later_.empty() && (s.later_.front() >> 32) <= round) {
        s.now_.push_back(pop_later());
      }
    } else {
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = s.awake_bits_[w]; bits != 0; bits &= bits - 1) {
          const graph::NodeId v = lowest_node(w, bits);
          if (s.woke_now_[v] == 0) {
            s.now_.push_back(v);
          }
        }
      }
    }
    for (const graph::NodeId v : s.now_) {
      if (trace == nullptr) {
        if (s.due_[v] != round || !bitset_test(s.awake_bits_, v)) {
          continue;  // stale calendar entry
        }
        s.due_[v] = kNotDue;
      }
      const auto local = static_cast<config::Round>(round - s.wake_round_[v]);
      const HistoryView view(s.events_[v], local, window_first_kept(local, window));
      if (trace == nullptr) {
        const config::Round streak = s.programs_[v]->listen_streak(local, view);
        if (streak > 0) {
          schedule(v, round + streak);
          continue;
        }
      }
      const Action action = s.programs_[v]->decide(local, view);
      if (trace != nullptr) {
        trace->on_action(v, static_cast<config::Round>(round), local, action);
      }
      switch (action.kind) {
        case Action::Kind::Listen:
          schedule(v, round + 1);
          break;
        case Action::Kind::Transmit:
          bitset_set(s.transmit_bits_, v);
          s.outgoing_[v] = action.message;
          s.transmitters_.push_back(v);
          ++result.stats.transmissions;
          ++result.nodes[v].transmissions;
          schedule(v, round + 1);
          break;
        case Action::Kind::Terminate:
          // H[done_v] is recorded as (∅), as in the scalar loop.
          bitset_clear(s.awake_bits_, v);
          bitset_set(s.terminated_bits_, v);
          s.length_[v] = std::size_t{local} + 1;
          result.nodes[v].terminated = true;
          result.nodes[v].done_round = local;
          --live;
          break;
      }
    }

    // 3. Channel resolution, only where a transmitter is in range: every
    //    other node hears silence, which changes nothing but its length.
    //    Receivers of a message or noise are visited next round, where
    //    listen_streak() sees what they heard.
    if (!s.transmitters_.empty()) {
      std::fill(s.heard_bits_.begin(), s.heard_bits_.end(), 0);
      for (const graph::NodeId t : s.transmitters_) {
        const std::uint64_t* row = s.adjacency_.row(t);
        for (std::size_t w = 0; w < words; ++w) {
          s.heard_bits_[w] |= row[w];
        }
      }
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = s.heard_bits_[w] & ~s.terminated_bits_[w]; bits != 0;
             bits &= bits - 1) {
          const graph::NodeId v = lowest_node(w, bits);
          if (!bitset_test(s.awake_bits_, v)) {
            // Forced wakeup: a clean message wakes a sleeper; noise does
            // not (§2.1).
            const HistoryEntry channel = perceived_at(v);
            if (!channel.is_message()) {
              continue;
            }
            bitset_set(s.awake_bits_, v);
            s.wake_round_[v] = static_cast<config::Round>(round);
            s.forced_[v] = 1;
            s.woke_now_[v] = 1;
            s.woke_list_.push_back(v);
            record(v, 0, channel);
            ++result.stats.forced_wakeups;
          } else if (s.woke_now_[v] != 0) {
            // H[0] of a spontaneous wakeup, subject to the wake policy.
            const HistoryEntry channel = perceived_at(v);
            if (channel.is_message()) {
              s.forced_[v] = 1;
              ++result.stats.forced_wakeups;
              record(v, 0, channel);
            } else if (options_.wake_policy == WakePolicy::HearAll && !channel.is_silence()) {
              record(v, 0, channel);
            }
          } else if (!bitset_test(s.transmit_bits_, v)) {  // a transmitter hears nothing
            const HistoryEntry entry = perceived_at(v);
            if (entry.is_silence()) {
              continue;
            }
            if (entry.is_message()) {
              ++result.stats.clean_receptions;
            } else {
              ++result.stats.collisions_heard;
            }
            record(v, round - s.wake_round_[v], entry);
            schedule(v, round + 1);
          }
        }
      }
    }
    for (const graph::NodeId v : s.woke_list_) {
      schedule(v, round + 1);
    }

    // Trace callbacks for this round's wakes and receptions, by node id as
    // the scalar loop emits them; each event carries the entry just
    // recorded.
    if (trace != nullptr) {
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = s.awake_bits_[w]; bits != 0; bits &= bits - 1) {
          const graph::NodeId v = lowest_node(w, bits);
          const std::size_t index = round - s.wake_round_[v];
          const HistoryEntry entry = HistoryView(s.events_[v], index + 1, index).last();
          if (s.woke_now_[v] != 0) {
            trace->on_wake(v, static_cast<config::Round>(round), s.forced_[v] != 0, entry);
          } else {
            trace->on_reception(v, static_cast<config::Round>(round), entry);
          }
        }
      }
      trace->on_round_end(static_cast<config::Round>(round));
    }

    // 4. End of round: clear the woke flags and the transmitter set.
    for (const graph::NodeId v : s.woke_list_) {
      s.woke_now_[v] = 0;
    }
    for (const graph::NodeId t : s.transmitters_) {
      bitset_clear(s.transmit_bits_, t);
    }
    s.transmitters_.clear();
    ++round;
  }

  // Copy-out.  A node's history length fixes everything the sparse form
  // leaves implicit: one decide() per entry after H[0], and a dense suffix
  // rebuilt from the events (only when the caller keeps histories).
  result.rounds_executed = static_cast<config::Round>(round);
  result.all_terminated = (live == 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    NodeOutcome& node = result.nodes[v];
    if (bitset_test(s.awake_bits_, v)) {
      s.length_[v] = round - s.wake_round_[v];
    }
    const std::size_t length = s.length_[v];
    node.awake_rounds = length > 0 ? length - 1 : 0;
    result.stats.node_rounds += node.awake_rounds;
    if (options_.keep_histories) {
      const std::size_t first = window_first_kept(length, window);
      node.history.assign(length - first, HistoryEntry::silence());
      for (const HistoryEvent& event : s.events_[v]) {
        if (event.index >= first) {
          node.history[event.index - first] = event.entry;
        }
      }
      node.history_dropped = first;
    } else {
      node.history_dropped = length;
    }
    node.elected = s.programs_[v]->elected();
    if (bitset_test(s.awake_bits_, v) || bitset_test(s.terminated_bits_, v)) {
      node.wake_round = s.wake_round_[v];
      node.forced_wake = s.forced_[v] != 0;
    }
  }
  finish_energy_stats(result);
  return result;
}

RunResult simulate(const config::Configuration& configuration, const Drip& drip,
                   SimulatorOptions options) {
  Simulator simulator(configuration, drip, std::move(options));
  return simulator.run();
}

RunResult simulate(const config::Configuration& configuration, const Drip& drip,
                   SimulatorOptions options, SimulatorScratch& scratch) {
  Simulator simulator(configuration, drip, std::move(options));
  return simulator.run(scratch);
}

}  // namespace arl::radio
