#include "core/protocol.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "baselines/binary_search.hpp"
#include "baselines/randomized.hpp"
#include "baselines/tree_split.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/parse.hpp"

namespace arl::core {

const char* to_string(Disposition disposition) {
  switch (disposition) {
    case Disposition::NotSimulated:
      return "not simulated";
    case Disposition::Elected:
      return "elected";
    case Disposition::NoLeader:
      return "no leader";
    case Disposition::Failed:
      return "failed";
    case Disposition::DetectedFault:
      return "detected fault";
  }
  return "?";
}

CompiledConfiguration compile(const config::Configuration& configuration,
                              radio::ChannelModel model) {
  CompiledConfiguration compiled;
  {
    const obs::PhaseTimer span(obs::Phase::Classify);
    compiled.classification = Classifier(model).run(configuration);
  }
  const obs::PhaseTimer span(obs::Phase::ScheduleCompile);
  compiled.schedule = std::make_shared<const CanonicalSchedule>(
      build_schedule(configuration, compiled.classification));
  return compiled;
}

namespace {

/// Fault events actually injected into a run — the evidence that lets a
/// verification failure be attributed to the adversary (DetectedFault)
/// rather than the protocol (Failed).
std::uint64_t injected_events(const radio::RunStats& stats) {
  return stats.injected_drops + stats.injected_corruptions + stats.injected_crashes +
         stats.delayed_wakeups;
}

}  // namespace

namespace {

/// Bare registry key of a kind (without parameter suffix).
const char* kind_key(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::Canonical:
      return "canonical";
    case ProtocolKind::ClassifyOnly:
      return "classify";
    case ProtocolKind::BinarySearch:
      return "binary-search";
    case ProtocolKind::TreeSplit:
      return "tree-split";
    case ProtocolKind::Randomized:
      return "randomized";
  }
  return "?";
}

/// Smallest label width whose universe [0, 2^bits) holds labels 0..n-1.
unsigned auto_label_bits(graph::NodeId n) {
  unsigned bits = 1;
  while ((std::uint64_t{1} << bits) < n) {
    ++bits;
  }
  return bits;
}

/// Labels from wakeup order: rank in the stable (tag, node id) order, so the
/// earliest-waking node gets label 0 (and wins the min-label protocols) —
/// the wakeup asymmetry the canonical protocol exploits becomes the label
/// asymmetry the baselines assume.
std::vector<std::uint64_t> wakeup_order_labels(const config::Configuration& configuration) {
  const graph::NodeId n = configuration.size();
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), graph::NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](graph::NodeId a, graph::NodeId b) {
    return configuration.tags()[a] < configuration.tags()[b];
  });
  std::vector<std::uint64_t> labels(n);
  for (graph::NodeId rank = 0; rank < n; ++rank) {
    labels[order[rank]] = rank;
  }
  return labels;
}

/// The canonical pipeline (previously the body of elect()): classify,
/// compile the schedule, execute the canonical DRIP, verify.
ElectionReport run_canonical(const config::Configuration& configuration,
                             const ElectionOptions& options, bool simulate,
                             ElectionScratch& scratch) {
  ElectionReport report;
  if (scratch.schedule_cache != nullptr) {
    // Cached: the report shares the entry's classification (aliasing the
    // entry's ownership), so a hit copies no records.
    std::shared_ptr<const CompiledConfiguration> compiled =
        scratch.schedule_cache->get(configuration, options.channel_model);
    const ClassifierResult* classification = &compiled->classification;
    report.schedule = compiled->schedule;
    report.classification =
        std::shared_ptr<const ClassifierResult>(std::move(compiled), classification);
  } else {
    // Uncached: the report owns the fresh artifacts outright.
    CompiledConfiguration compiled = compile(configuration, options.channel_model);
    report.classification =
        std::make_shared<const ClassifierResult>(std::move(compiled.classification));
    report.schedule = std::move(compiled.schedule);
  }
  report.feasible = report.classification->feasible();

  if (!simulate) {
    report.schedule = nullptr;  // classify-only reports never carry one
    report.valid = true;        // nothing further to verify (and no schedule needed)
    report.disposition = Disposition::NotSimulated;
    return report;
  }

  // Under an active fault plan the schedule's lemmas no longer bind: the
  // drip runs in robust mode (terminate un-elected on an inexplicable
  // observation instead of a contract violation), and the horizon gains the
  // adversary's maximum wakeup stagger so delayed runs are not truncated.
  const bool faulted = options.simulator.fault.active();
  const CanonicalDrip drip(report.schedule,
                           faulted ? MismatchPolicy::Robust : MismatchPolicy::Strict);
  radio::SimulatorOptions simulator_options = options.simulator;
  simulator_options.channel_model = report.schedule->model;
  simulator_options.keep_histories = false;  // the report keeps only the stats
  const config::Tag max_tag =
      *std::max_element(configuration.tags().begin(), configuration.tags().end());
  const std::uint64_t needed_horizon = max_tag + report.schedule->total_rounds() + 2 +
                                       options.simulator.fault.spec.stagger;
  simulator_options.max_rounds = static_cast<config::Round>(
      std::max<std::uint64_t>(simulator_options.max_rounds, needed_horizon));

  const radio::RunResult run = [&] {
    const obs::PhaseTimer span(obs::Phase::Simulate);
    return radio::simulate(configuration, drip, simulator_options, scratch.simulator);
  }();
  report.simulated = true;
  report.global_rounds = run.rounds_executed;
  report.local_rounds = report.schedule->total_rounds();
  report.stats = run.stats;

  // Verification: termination discipline + decision correctness.
  bool valid = run.all_terminated;
  for (const auto& node : run.nodes) {
    valid = valid && node.terminated && node.done_round == report.schedule->total_rounds() &&
            !node.forced_wake;  // Lemma 3.6: patient ⇒ all wakeups spontaneous
  }
  const auto leaders = run.leaders();
  if (report.feasible) {
    valid = valid && leaders.size() == 1 && leaders.front() == report.classification->leader;
    if (leaders.size() == 1) {
      report.leader = leaders.front();
    }
  } else {
    valid = valid && leaders.empty();
  }
  report.valid = valid;
  if (!valid) {
    // A failure with injected fault events on record is the adversary's
    // doing; without any, the fault plan was a bystander and the failure is
    // the protocol's (exactly as in a faultless run).
    report.disposition = faulted && injected_events(run.stats) > 0 ? Disposition::DetectedFault
                                                                  : Disposition::Failed;
  } else {
    report.disposition = report.feasible ? Disposition::Elected : Disposition::NoLeader;
  }
  return report;
}

/// Horizon guard for a baseline run: generous enough that a conforming run
/// never truncates, tight enough that a diverging one (a labeled protocol on
/// a topology that violates its single-hop assumption, say) fails in bounded
/// time instead of burning the simulator's default million-round horizon.
std::uint64_t baseline_horizon(const ProtocolSpec& spec, graph::NodeId n, config::Tag max_tag,
                               unsigned label_bits) {
  switch (spec.kind) {
    case ProtocolKind::BinarySearch:
      return max_tag + label_bits + 2u;  // exactly L+1 local rounds
    case ProtocolKind::TreeSplit:
      // The DFS visits O(n·L) prefix groups at three rounds per slot; the
      // (2n+2)(L+1) slot bound covers duplicate-label failures too.
      return max_tag + 3ull * (2ull * n + 2) * (label_bits + 1) + 4;
    case ProtocolKind::Randomized:
      return max_tag + 2ull * (spec.max_slots + 1) + 4;  // two rounds per slot
    default:
      ARL_EXPECTS(false, "baseline_horizon called with a non-baseline spec");
      return 0;
  }
}

/// The shared labeled/randomized harness: labels from wakeup order, one
/// Drip, one simulation, uniform verification (termination + exactly one
/// leader).
ElectionReport run_baseline(const config::Configuration& configuration, const ProtocolSpec& spec,
                            const ElectionOptions& options, ElectionScratch& scratch) {
  ElectionReport report;
  const graph::NodeId n = configuration.size();
  const unsigned label_bits =
      spec.label_bits != 0 ? spec.label_bits : auto_label_bits(std::max<graph::NodeId>(n, 2));

  // An explicit label width too narrow for the wakeup-order labels 0..n-1 is
  // a per-job failure, not a batch-killing exception: report it as Failed so
  // the other jobs of a mixed-protocol sweep survive.  (Caller-supplied
  // labels are still contract-checked by the Drip and throw.)
  if (spec.uses_labels() && options.simulator.labels.empty() &&
      label_bits < auto_label_bits(std::max<graph::NodeId>(n, 2))) {
    report.disposition = Disposition::Failed;
    return report;
  }

  radio::SimulatorOptions simulator_options = options.simulator;
  simulator_options.channel_model = options.channel_model;
  simulator_options.keep_histories = false;  // the report keeps only the stats
  if (spec.uses_labels() && simulator_options.labels.empty()) {
    simulator_options.labels = wakeup_order_labels(configuration);
  }
  const config::Tag max_tag =
      *std::max_element(configuration.tags().begin(), configuration.tags().end());
  // The protocol-derived horizon replaces the simulator's generic default
  // (so huge conforming runs are never truncated and diverging out-of-model
  // runs fail in bounded time); any other caller-set max_rounds is honoured
  // as an explicit cap, with the horizon still bounding it from above.
  // (Setting max_rounds to exactly the SimulatorOptions default is
  // indistinguishable from leaving it unset and is treated as unset.)
  const std::uint64_t horizon = baseline_horizon(spec, n, max_tag, label_bits) +
                                options.simulator.fault.spec.stagger;
  const bool caller_set_cap =
      simulator_options.max_rounds != radio::SimulatorOptions{}.max_rounds;
  const std::uint64_t caller_cap = caller_set_cap ? simulator_options.max_rounds : horizon;
  simulator_options.max_rounds = static_cast<config::Round>(
      std::min({horizon, caller_cap,
                static_cast<std::uint64_t>(std::numeric_limits<config::Round>::max())}));

  std::unique_ptr<radio::Drip> drip;
  switch (spec.kind) {
    case ProtocolKind::BinarySearch:
      drip = std::make_unique<baselines::BinarySearchElection>(label_bits);
      break;
    case ProtocolKind::TreeSplit:
      drip = std::make_unique<baselines::TreeSplitElection>(label_bits);
      break;
    case ProtocolKind::Randomized:
      drip = std::make_unique<baselines::RandomizedElection>(spec.max_slots);
      break;
    default:
      ARL_EXPECTS(false, "run_baseline called with a non-baseline spec");
  }

  const radio::RunResult run = [&] {
    const obs::PhaseTimer span(obs::Phase::Simulate);
    return radio::simulate(configuration, *drip, simulator_options, scratch.simulator);
  }();
  report.simulated = true;
  report.global_rounds = run.rounds_executed;
  report.stats = run.stats;

  bool terminated = run.all_terminated;
  std::uint64_t slowest = 0;
  for (const auto& node : run.nodes) {
    terminated = terminated && node.terminated;
    slowest = std::max<std::uint64_t>(slowest, node.done_round);
  }
  report.local_rounds = slowest;

  const auto leaders = run.leaders();
  if (terminated && leaders.size() == 1) {
    report.leader = leaders.front();  // a leader from a truncated run is junk
  }
  report.valid = terminated && leaders.size() == 1;
  if (report.valid) {
    report.disposition = Disposition::Elected;
  } else if (options.simulator.fault.active() && injected_events(run.stats) > 0) {
    // The failure has injected fault events on record: attributed to the
    // adversary, not the protocol.
    report.disposition = Disposition::DetectedFault;
  } else if (terminated && leaders.empty()) {
    // Clean termination with no winner — a detected election failure (slot
    // guard exhausted, duplicate labels), distinct from a diverging run
    // truncated by the horizon.
    report.disposition = Disposition::NoLeader;
  } else {
    report.disposition = Disposition::Failed;
  }
  return report;
}

}  // namespace

std::string ProtocolSpec::name() const {
  std::string key = kind_key(kind);
  if (uses_labels() && label_bits != 0) {
    key += ':' + std::to_string(label_bits);
  } else if (kind == ProtocolKind::Randomized && max_slots != kDefaultMaxSlots) {
    key += ':' + std::to_string(max_slots);
  }
  return key;
}

std::string ProtocolSpec::describe() const {
  switch (kind) {
    case ProtocolKind::Canonical:
      return "canonical — anonymous deterministic DRIP: classify, compile the "
             "schedule, simulate, verify (the paper's Theorem 3.15)";
    case ProtocolKind::ClassifyOnly:
      return "classify — feasibility verdict only, no simulation";
    case ProtocolKind::BinarySearch:
      return "binary-search — labeled deterministic bit-filter election, L+1 rounds "
             "(single-hop, simultaneous wakeup; labels " +
             std::string(label_bits == 0 ? "auto-sized" : "in [0, 2^" +
                                                              std::to_string(label_bits) + ")") +
             ")";
    case ProtocolKind::TreeSplit:
      return "tree-split — labeled deterministic DFS tree-splitting election "
             "(single-hop, simultaneous wakeup; labels " +
             std::string(label_bits == 0 ? "auto-sized" : "in [0, 2^" +
                                                              std::to_string(label_bits) + ")") +
             ")";
    case ProtocolKind::Randomized:
      return "randomized — anonymous randomized decay election, private coins, "
             "slot guard " +
             std::to_string(max_slots);
  }
  return "?";
}

const std::vector<ProtocolSpec>& registered_protocols() {
  static const std::vector<ProtocolSpec> registry = {
      ProtocolSpec::canonical(), ProtocolSpec::classify_only(), ProtocolSpec::binary_search(),
      ProtocolSpec::tree_split(), ProtocolSpec::randomized()};
  return registry;
}

std::string protocol_names() {
  std::string names;
  for (const ProtocolSpec& spec : registered_protocols()) {
    if (!names.empty()) {
      names += ", ";
    }
    names += spec.name();
    if (spec.uses_labels()) {
      names += "[:BITS]";
    } else if (spec.kind == ProtocolKind::Randomized) {
      names += "[:SLOTS]";
    }
  }
  return names;
}

ProtocolSpec parse_protocol(std::string_view text) {
  const std::size_t colon = text.find(':');
  const std::string_view key = text.substr(0, colon);
  const std::string_view param =
      colon == std::string_view::npos ? std::string_view{} : text.substr(colon + 1);

  // Plain ContractViolations (not ARL_EXPECTS): these messages are shown
  // verbatim by the CLI, so they must read as usage errors, not assertions.
  ProtocolSpec spec;
  bool found = false;
  for (const ProtocolSpec& candidate : registered_protocols()) {
    if (key == kind_key(candidate.kind)) {
      spec = candidate;
      found = true;
      break;
    }
  }
  if (!found) {
    throw support::ContractViolation("unknown protocol '" + std::string(text) +
                                     "'; registered protocols are: " + protocol_names());
  }

  if (colon == std::string_view::npos) {
    return spec;
  }
  // Digits only: no sign, whitespace or other strtoull leniency.
  const std::optional<std::uint64_t> parsed = support::parse_decimal_u64(param);
  if (!parsed) {
    throw support::ContractViolation("malformed parameter in protocol '" + std::string(text) +
                                     "'");
  }
  const std::uint64_t value = *parsed;
  switch (spec.kind) {
    case ProtocolKind::BinarySearch:
    case ProtocolKind::TreeSplit:
      if (value > 63) {
        throw support::ContractViolation("label width of '" + std::string(text) +
                                         "' must be in [0, 63]");
      }
      spec.label_bits = static_cast<unsigned>(value);
      break;
    case ProtocolKind::Randomized:
      if (value < 1 || value > (1u << 30)) {
        throw support::ContractViolation("slot guard of '" + std::string(text) +
                                         "' must be in [1, 2^30]");
      }
      spec.max_slots = static_cast<std::uint32_t>(value);
      break;
    default:
      throw support::ContractViolation("protocol '" + std::string(key) + "' takes no parameter");
  }
  return spec;
}

ElectionReport run_protocol(const config::Configuration& configuration, const ProtocolSpec& spec,
                            const ElectionOptions& options) {
  ElectionScratch scratch;
  return run_protocol(configuration, spec, options, scratch);
}

ElectionReport run_protocol(const config::Configuration& configuration, const ProtocolSpec& spec,
                            const ElectionOptions& options, ElectionScratch& scratch) {
  ElectionReport report;
  switch (spec.kind) {
    case ProtocolKind::Canonical:
      report = run_canonical(configuration, options, /*simulate=*/true, scratch);
      break;
    case ProtocolKind::ClassifyOnly:
      report = run_canonical(configuration, options, /*simulate=*/false, scratch);
      break;
    case ProtocolKind::BinarySearch:
    case ProtocolKind::TreeSplit:
    case ProtocolKind::Randomized:
      report = run_baseline(configuration, spec, options, scratch);
      break;
  }
  report.protocol = spec.name();
  return report;
}

}  // namespace arl::core
