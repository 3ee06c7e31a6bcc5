#include "fault/fault.hpp"

#include <numeric>
#include <optional>
#include <utility>

#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"

namespace arl::fault {

namespace {

using support::check;
using support::ContractViolation;
using support::parse_number;
using support::parse_probability;
using support::shortest_double;

/// Domain seed of the fault digest family — distinct from the workload/wire
/// digest domain (0xD157) and the shard-report body domain (0xB0D7), so a
/// fault name and a workload name can never collide into one digest.
constexpr std::uint64_t kFaultDigestSeed = 0xFA17;

/// The batch's reserved fault stream id (see fault_stream_seed), disjoint
/// from engine::sweep_configuration_seed's 0x5EEDF00D configuration stream.
constexpr std::uint64_t kFaultStream = 0xFA175EED;

// Per-event dice streams inside one plan seed: the stream id is absorbed
// next to (round, node), so the drop and corrupt dice of one round are
// independent draws.
constexpr std::uint64_t kDropStream = 1;
constexpr std::uint64_t kCorruptStream = 2;
constexpr std::uint64_t kCrashStream = 3;
constexpr std::uint64_t kWakeStream = 4;

/// Registry-order kind tokens (the part of a name before ':').
constexpr support::KindTokens<FaultKind, 5> kKinds = {{
    {FaultKind::None, "none"},
    {FaultKind::Drop, "drop"},
    {FaultKind::Corrupt, "corrupt"},
    {FaultKind::Crash, "crash"},
    {FaultKind::AdversarialWake, "adversarial-wake"},
}};

/// Parameter bounds, enforced by parse_fault AND the factories (a spec built
/// by hand gets the same validation the grammar applies).
void validate(const FaultSpec& spec) {
  const std::string at = std::string("fault '") + support::kind_token(kKinds, spec.kind) + "': ";
  switch (spec.kind) {
    case FaultKind::Drop:
    case FaultKind::Corrupt:
      check(spec.probability >= 0.0 && spec.probability <= 1.0,
            at + "probability must be in [0, 1]");
      break;
    case FaultKind::Crash:
      check(spec.crashes <= 1'000'000, at + "k must be in [0, 1000000]");
      check(spec.window >= 1 && spec.window <= 1'000'000,
            at + "window must be in [1, 1000000]");
      break;
    case FaultKind::AdversarialWake:
      check(spec.stagger <= 1'000'000, at + "W must be in [0, 1000000]");
      break;
    case FaultKind::None:
      break;
  }
}

}  // namespace

FaultSpec FaultSpec::none() { return FaultSpec{}; }

FaultSpec FaultSpec::drop(double p, std::uint32_t split) {
  FaultSpec spec;
  spec.kind = FaultKind::Drop;
  spec.probability = p;
  spec.seed_split = split;
  validate(spec);
  return spec;
}

FaultSpec FaultSpec::corrupt(double p) {
  FaultSpec spec;
  spec.kind = FaultKind::Corrupt;
  spec.probability = p;
  validate(spec);
  return spec;
}

FaultSpec FaultSpec::crash(std::uint32_t k, std::uint32_t window) {
  FaultSpec spec;
  spec.kind = FaultKind::Crash;
  spec.crashes = k;
  spec.window = window;
  validate(spec);
  return spec;
}

FaultSpec FaultSpec::adversarial_wake(std::uint32_t stagger) {
  FaultSpec spec;
  spec.kind = FaultKind::AdversarialWake;
  spec.stagger = stagger;
  validate(spec);
  return spec;
}

bool FaultSpec::active() const {
  switch (kind) {
    case FaultKind::None:
      return false;
    case FaultKind::Drop:
    case FaultKind::Corrupt:
      return probability > 0.0;
    case FaultKind::Crash:
      return crashes > 0;
    case FaultKind::AdversarialWake:
      return stagger > 0;
  }
  return false;
}

std::string FaultSpec::name() const {
  // Each separator and value is appended on its own: `out += ":" + value`
  // trips GCC 12's -Wrestrict false positive inside char_traits.
  std::string out = support::kind_token(kKinds, kind);
  switch (kind) {
    case FaultKind::None:
      break;
    case FaultKind::Drop:
      out += ':';
      out += shortest_double(probability);
      if (seed_split != 0) {
        out += ',';
        out += std::to_string(seed_split);
      }
      break;
    case FaultKind::Corrupt:
      out += ':';
      out += shortest_double(probability);
      break;
    case FaultKind::Crash:
      out += ':';
      out += std::to_string(crashes);
      if (window != kDefaultCrashWindow) {
        out += ',';
        out += std::to_string(window);
      }
      break;
    case FaultKind::AdversarialWake:
      out += ':';
      out += std::to_string(stagger);
      break;
  }
  return out;
}

std::string FaultSpec::describe() const {
  switch (kind) {
    case FaultKind::None:
      return "the paper's reliable channel: nothing is injected";
    case FaultKind::Drop:
      return "lossy channel: each reception is erased to silence with probability p";
    case FaultKind::Corrupt:
      return "garbling channel: each heard message flips to noise with probability p";
    case FaultKind::Crash:
      return "crash-stop: k nodes halt forever at deterministic rounds in [0, window)";
    case FaultKind::AdversarialWake:
      return "wakeup staggering: each node's wakeup is delayed by a deterministic "
             "amount in [0, W]";
  }
  return "?";
}

std::uint64_t FaultSpec::digest() const {
  return support::hash_text(name(), kFaultDigestSeed);
}

void FaultContext::reset(const FaultPlan& plan, std::size_t nodes) {
  plan_ = plan;
  active_ = plan.active();
  crash_round_.clear();
  if (!active_) {
    return;
  }
  dice_seed_ = plan.seed;
  if (plan.spec.kind == FaultKind::Drop && plan.spec.seed_split != 0) {
    dice_seed_ = support::Rng(plan.seed).split(plan.spec.seed_split).next();
  }
  if (plan.spec.kind == FaultKind::Crash) {
    crash_round_.assign(nodes, kNeverCrashes);
    std::vector<std::uint32_t> victims(nodes);
    std::iota(victims.begin(), victims.end(), 0u);
    support::Rng rng(support::Hash64(dice_seed_).absorb(kCrashStream).digest());
    rng.shuffle(victims);
    const std::size_t count = std::min<std::size_t>(plan.spec.crashes, nodes);
    for (std::size_t i = 0; i < count; ++i) {
      crash_round_[victims[i]] = rng.below(plan.spec.window);
    }
  }
}

bool FaultContext::channel_roll(std::uint64_t stream, std::uint64_t round,
                                std::uint32_t node, double probability) const {
  // A pure function of (seed, stream, round, node): the die is rolled by
  // hashing the coordinates, not by consuming a stream, so the simulator may
  // evaluate receptions in any order and replay stays exact.
  const std::uint64_t raw = support::Hash64(dice_seed_)
                                .absorb(stream)
                                .absorb(round)
                                .absorb(node)
                                .digest();
  return support::Rng(raw).bernoulli(probability);
}

bool FaultContext::drop_message(std::uint64_t round, std::uint32_t node) const {
  if (!active_ || plan_.spec.kind != FaultKind::Drop) {
    return false;
  }
  return channel_roll(kDropStream, round, node, plan_.spec.probability);
}

bool FaultContext::corrupt_message(std::uint64_t round, std::uint32_t node) const {
  if (!active_ || plan_.spec.kind != FaultKind::Corrupt) {
    return false;
  }
  return channel_roll(kCorruptStream, round, node, plan_.spec.probability);
}

std::uint64_t FaultContext::wake_delay(std::uint32_t node) const {
  if (!active_ || plan_.spec.kind != FaultKind::AdversarialWake) {
    return 0;
  }
  const std::uint64_t raw =
      support::Hash64(dice_seed_).absorb(kWakeStream).absorb(node).digest();
  return support::Rng(raw).below(static_cast<std::uint64_t>(plan_.spec.stagger) + 1);
}

const std::vector<FaultSpec>& registered_faults() {
  static const std::vector<FaultSpec> registry = {
      FaultSpec::none(),
      FaultSpec::drop(0.1),
      FaultSpec::corrupt(0.05),
      FaultSpec::crash(1),
      FaultSpec::adversarial_wake(8),
  };
  return registry;
}

std::string fault_names() {
  return "none, drop:P[,SPLIT], corrupt:P, crash:K[,WINDOW], adversarial-wake:W";
}

FaultSpec parse_fault(std::string_view text) {
  const std::size_t colon = text.find(':');
  const std::string token(text.substr(0, colon));
  const std::optional<FaultKind> found = support::find_kind(kKinds, token);
  if (!found) {
    throw ContractViolation("unknown fault '" + std::string(text) +
                            "' (registered: " + fault_names() + ")");
  }
  const FaultKind kind = *found;

  std::vector<std::string> params;
  if (colon != std::string_view::npos) {
    std::string_view rest = text.substr(colon + 1);
    while (true) {
      const std::size_t comma = rest.find(',');
      params.emplace_back(rest.substr(0, comma));
      if (comma == std::string_view::npos) {
        break;
      }
      rest = rest.substr(comma + 1);
    }
  }
  const std::string at = "fault '" + token + "': ";
  const auto arity = [&](std::size_t min_params, std::size_t max_params,
                         const std::string& grammar) {
    check(params.size() >= min_params && params.size() <= max_params,
          at + "takes " + grammar + " (got '" + std::string(text) + "')");
  };

  FaultSpec spec;
  spec.kind = kind;
  switch (kind) {
    case FaultKind::None:
      arity(0, 0, "no parameters");
      break;
    case FaultKind::Drop:
      arity(1, 2, "drop:P[,SPLIT]");
      spec.probability = parse_probability(params[0], at + "P");
      if (params.size() == 2) {
        spec.seed_split = parse_number(params[1], at + "SPLIT");
      }
      break;
    case FaultKind::Corrupt:
      arity(1, 1, "corrupt:P");
      spec.probability = parse_probability(params[0], at + "P");
      break;
    case FaultKind::Crash:
      arity(1, 2, "crash:K[,WINDOW]");
      spec.crashes = parse_number(params[0], at + "K");
      if (params.size() == 2) {
        spec.window = parse_number(params[1], at + "WINDOW");
      }
      break;
    case FaultKind::AdversarialWake:
      arity(1, 1, "adversarial-wake:W");
      spec.stagger = parse_number(params[0], at + "W");
      break;
  }
  validate(spec);
  return spec;
}

std::uint64_t fault_stream_seed(std::uint64_t batch_seed) {
  return support::Rng(batch_seed).split(kFaultStream).next();
}

std::uint64_t job_fault_seed(std::uint64_t batch_seed, std::uint64_t job) {
  return support::Rng(fault_stream_seed(batch_seed)).split(job).next();
}

}  // namespace arl::fault
