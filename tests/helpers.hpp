#pragma once

/// \file helpers.hpp
/// Shared test utilities: minimal hand-written protocols that exercise
/// specific simulator behaviours, and history/partition inspection helpers
/// used by the property suites.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "config/configuration.hpp"
#include "core/classifier.hpp"
#include "engine/job.hpp"
#include "graph/graph.hpp"
#include "radio/program.hpp"
#include "radio/simulator.hpp"

namespace arl::testkit {

/// Listens for `lifetime` rounds, then terminates.  Never transmits.
class SilentDrip final : public radio::Drip {
 public:
  explicit SilentDrip(config::Round lifetime) : lifetime_(lifetime) {}

  std::unique_ptr<radio::NodeProgram> instantiate(const radio::NodeEnv&) const override {
    class Program final : public radio::NodeProgram {
     public:
      explicit Program(config::Round lifetime) : lifetime_(lifetime) {}
      radio::Action decide(config::Round i, const radio::HistoryView&) override {
        return i > lifetime_ ? radio::Action::terminate() : radio::Action::listen();
      }

     private:
      config::Round lifetime_;
    };
    return std::make_unique<Program>(lifetime_);
  }
  std::string name() const override { return "silent"; }

 private:
  config::Round lifetime_;
};

/// Transmits `payload` in local round `fire`, listens otherwise, terminates
/// at local round `lifetime` (> fire).
class BeaconDrip final : public radio::Drip {
 public:
  BeaconDrip(config::Round fire, radio::Message payload, config::Round lifetime)
      : fire_(fire), payload_(payload), lifetime_(lifetime) {}

  std::unique_ptr<radio::NodeProgram> instantiate(const radio::NodeEnv&) const override {
    class Program final : public radio::NodeProgram {
     public:
      Program(config::Round fire, radio::Message payload, config::Round lifetime)
          : fire_(fire), payload_(payload), lifetime_(lifetime) {}
      radio::Action decide(config::Round i, const radio::HistoryView&) override {
        if (i >= lifetime_) {
          return radio::Action::terminate();
        }
        if (i == fire_) {
          return radio::Action::transmit(payload_);
        }
        return radio::Action::listen();
      }

     private:
      config::Round fire_;
      radio::Message payload_;
      config::Round lifetime_;
    };
    return std::make_unique<Program>(fire_, payload_, lifetime_);
  }
  std::string name() const override { return "beacon"; }

 private:
  config::Round fire_;
  radio::Message payload_;
  config::Round lifetime_;
};

/// Never terminates (exercises the horizon guard).
class ImmortalDrip final : public radio::Drip {
 public:
  std::unique_ptr<radio::NodeProgram> instantiate(const radio::NodeEnv&) const override {
    class Program final : public radio::NodeProgram {
     public:
      radio::Action decide(config::Round, const radio::HistoryView&) override {
        return radio::Action::listen();
      }
    };
    return std::make_unique<Program>();
  }
  std::string name() const override { return "immortal"; }
};

/// Trace sink that records, per global round, who transmitted.
class TransmissionLog final : public radio::TraceSink {
 public:
  void on_action(graph::NodeId v, config::Round global_round, config::Round,
                 const radio::Action& action) override {
    if (action.is_transmit()) {
      transmissions_.emplace_back(global_round, v);
    }
  }

  /// (global round, node) pairs in execution order.
  [[nodiscard]] const std::vector<std::pair<config::Round, graph::NodeId>>& entries() const {
    return transmissions_;
  }

  /// Nodes transmitting in a given global round.
  [[nodiscard]] std::vector<graph::NodeId> transmitters_in(config::Round round) const {
    std::vector<graph::NodeId> out;
    for (const auto& [r, v] : transmissions_) {
      if (r == round) {
        out.push_back(v);
      }
    }
    return out;
  }

  /// First global round with any transmission, or none.
  [[nodiscard]] std::optional<config::Round> first_round() const {
    if (transmissions_.empty()) {
      return std::nullopt;
    }
    config::Round best = transmissions_.front().first;
    for (const auto& [r, v] : transmissions_) {
      best = std::min(best, r);
    }
    return best;
  }

 private:
  std::vector<std::pair<config::Round, graph::NodeId>> transmissions_;
};

/// Groups nodes by their history prefix H[0..upto] (inclusive); returns a
/// partition id per node, numbered by first appearance in node order.
/// Requires full (unwindowed) histories of at least upto+1 entries.
inline std::vector<core::ClassId> history_partition(const radio::RunResult& run,
                                                    std::size_t upto) {
  std::map<std::vector<radio::HistoryEntry>, core::ClassId> buckets;
  std::vector<core::ClassId> partition(run.nodes.size(), 0);
  for (std::size_t v = 0; v < run.nodes.size(); ++v) {
    const auto& history = run.nodes[v].history;
    const auto prefix_length =
        static_cast<std::ptrdiff_t>(std::min(history.size(), upto + 1));
    std::vector<radio::HistoryEntry> prefix(history.begin(), history.begin() + prefix_length);
    const auto [it, inserted] =
        buckets.emplace(std::move(prefix), static_cast<core::ClassId>(buckets.size() + 1));
    partition[v] = it->second;
  }
  return partition;
}

/// True when two partitions induce the same equivalence relation (ignoring
/// the numbering of the classes).
inline bool same_partition(const std::vector<core::ClassId>& a,
                           const std::vector<core::ClassId>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  std::map<core::ClassId, core::ClassId> a_to_b;
  std::map<core::ClassId, core::ClassId> b_to_a;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto [it_ab, fresh_ab] = a_to_b.emplace(a[v], b[v]);
    if (!fresh_ab && it_ab->second != b[v]) {
      return false;
    }
    const auto [it_ba, fresh_ba] = b_to_a.emplace(b[v], a[v]);
    if (!fresh_ba && it_ba->second != a[v]) {
      return false;
    }
  }
  return true;
}

/// `source` with every job's simulator loop set to `simulator` — how the
/// batch-level parity tests run one sweep through the scalar reference loop
/// and the bitset fast path.
inline engine::JobSource with_simulator_engine(engine::JobSource source,
                                               radio::SimulatorEngine simulator) {
  return [source = std::move(source), simulator](engine::JobId id) {
    engine::BatchJob job = source(id);
    job.options.simulator.engine = simulator;
    return job;
  };
}

}  // namespace arl::testkit
