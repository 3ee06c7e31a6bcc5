#include "core/canonical_drip.hpp"

#include "support/assert.hpp"

namespace arl::core {

namespace {
/// The canonical protocol's only message payload.
constexpr radio::Message kCanonicalPayload = 1;
}  // namespace

CanonicalDrip::CanonicalDrip(std::shared_ptr<const CanonicalSchedule> schedule,
                             MismatchPolicy policy)
    : schedule_(std::move(schedule)), policy_(policy) {
  ARL_EXPECTS(schedule_ != nullptr, "schedule required");
  ARL_EXPECTS(!schedule_->phases.empty(), "a compiled schedule has at least phase P_1");
}

std::unique_ptr<radio::NodeProgram> CanonicalDrip::instantiate(const radio::NodeEnv&) const {
  // Anonymous and deterministic: the environment (labels, coins) is ignored.
  return std::make_unique<CanonicalProgram>(schedule_, policy_);
}

std::string CanonicalDrip::name() const {
  return schedule_->feasible ? "canonical-drip(feasible)" : "canonical-drip(infeasible)";
}

std::optional<std::size_t> CanonicalDrip::history_window() const {
  return schedule_->suggested_window();
}

CanonicalProgram::CanonicalProgram(std::shared_ptr<const CanonicalSchedule> schedule,
                                   MismatchPolicy policy)
    : schedule_(std::move(schedule)), policy_(policy) {}

void CanonicalProgram::fail(const char* reason) {
  if (policy_ == MismatchPolicy::Strict) {
    ARL_ASSERT(false, std::string("canonical DRIP schedule violation: ") + reason);
  }
  failed_ = true;
}

Label CanonicalProgram::build_observed_label(std::size_t phase_index,
                                             const radio::HistoryView& history) {
  const CanonicalSchedule& s = *schedule_;
  const PhaseSpec& phase = s.phases[phase_index];
  const std::uint64_t block_len = s.block_length();
  const std::uint64_t blocks_span = phase.num_classes * block_len;

  // Only what the node heard matters: walk the phase's non-silent entries.
  const std::uint64_t phase_len = s.phase_length(phase_index);
  const auto heard_from = [&](std::uint64_t offset) {
    return history.next_event(static_cast<std::size_t>(base_ + offset)) - base_;
  };
  Label observed;
  for (std::uint64_t offset = heard_from(1); offset <= blocks_span;
       offset = heard_from(offset + 1)) {
    const radio::HistoryEntry entry = history.entry(static_cast<std::size_t>(base_ + offset));
    const auto block = static_cast<ClassId>((offset - 1) / block_len + 1);
    const auto round = static_cast<std::uint32_t>((offset - 1) % block_len + 1);
    if (entry.is_message()) {
      if (entry.payload() != kCanonicalPayload) {
        fail("received a non-canonical payload");
        return observed;
      }
      observed.push_back(LabelTriple{block, round, false});
    } else {
      observed.push_back(LabelTriple{block, round, true});
    }
  }
  // Generated in increasing (block, round) order, hence already ≺hist-sorted.

  // Lemma 3.7: the σ trailing rounds of a phase are silent in a
  // schedule-conformant execution.
  if (heard_from(blocks_span + 1) <= phase_len) {
    fail("noise in the trailing sigma rounds of a phase");
  }
  return observed;
}

radio::Action CanonicalProgram::decide(config::Round local_round,
                                       const radio::HistoryView& history) {
  if (done_) {
    // Termination is permanent (§2.2); the simulator does not call again,
    // but the formal object keeps answering terminate.
    return radio::Action::terminate();
  }
  const CanonicalSchedule& s = *schedule_;
  const std::uint64_t i = local_round;

  if (i == 1) {
    // Wake-round sanity: the canonical DRIP is patient (Lemma 3.6), so every
    // node wakes spontaneously hearing silence.
    if (!history.entry(0).is_silence()) {
      fail("non-silent wake round under a patient protocol");
      done_ = true;
      return radio::Action::terminate();
    }
  }

  // Phase boundary: the previous phase filled rounds base_+1 .. base_+len.
  if (i > base_ + s.phase_length(phase_)) {
    Label observed = build_observed_label(phase_, history);
    if (failed_) {
      done_ = true;
      return radio::Action::terminate();
    }
    base_ += s.phase_length(phase_);
    ++phase_;

    if (phase_ == s.phases.size()) {
      // L_{T+1} = "terminate": all nodes stop in the same local round.
      // Decision function f: leader iff the last-phase signature matches
      // the singleton class Classifier found.
      if (s.feasible) {
        elected_ = (tblock_ == s.leader_old_class && observed == s.leader_label);
      }
      done_ = true;
      return radio::Action::terminate();
    }

    // Match (old tBlock, observed label) against the next list L_{j+1}.
    const PhaseSpec& next = s.phases[phase_];
    ClassId matched = 0;
    for (ClassId k = 1; k <= next.num_classes; ++k) {
      const PhaseEntry& entry = next.entries[k - 1];
      if (entry.old_class == tblock_ && entry.label == observed) {
        if (policy_ == MismatchPolicy::Strict) {
          ARL_ASSERT(matched == 0, "list entry match must be unique (Lemma 3.8)");
        }
        matched = k;
        if (policy_ == MismatchPolicy::Robust) {
          break;
        }
      }
    }
    if (matched == 0) {
      fail("no matching list entry for the observed phase history");
      done_ = true;
      return radio::Action::terminate();
    }
    tblock_ = matched;
  }

  // Action within the current phase.
  const PhaseSpec& phase = s.phases[phase_];
  const std::uint64_t offset = i - base_;  // 1-based round within the phase
  const std::uint64_t block_len = s.block_length();
  const std::uint64_t blocks_span = phase.num_classes * block_len;
  ARL_ASSERT(offset >= 1 && offset <= s.phase_length(phase_), "offset outside phase");
  if (offset <= blocks_span) {
    const auto block = static_cast<ClassId>((offset - 1) / block_len + 1);
    const auto round = static_cast<std::uint32_t>((offset - 1) % block_len + 1);
    if (block == tblock_ && round == s.sigma + 1) {
      return radio::Action::transmit(kCanonicalPayload);
    }
  }
  return radio::Action::listen();
}

config::Round CanonicalProgram::listen_streak(config::Round local_round,
                                              const radio::HistoryView& history) {
  if (done_ || failed_) {
    return 0;  // next decide() terminates
  }
  const CanonicalSchedule& s = *schedule_;
  const std::uint64_t i = local_round;
  if (i == 1 && !(history.length() >= 1 && history.entry(0).is_silence())) {
    return 0;  // decide(1) inspects H[0] and may terminate on a forced wake
  }
  const std::uint64_t phase_end = base_ + s.phase_length(phase_);
  if (i < 1 || i > phase_end) {
    return 0;  // next decide() does phase-boundary work (state update)
  }
  // The phase's single transmission round for this node.
  const std::uint64_t transmit_round =
      base_ + (static_cast<std::uint64_t>(tblock_) - 1) * s.block_length() + s.sigma + 1;
  // First local round >= i where decide() may not simply listen: the
  // transmission round if still ahead, else the boundary call after the
  // phase's trailing sigma silent rounds.
  const std::uint64_t stop = i <= transmit_round ? transmit_round : phase_end + 1;
  return static_cast<config::Round>(stop - i);
}

}  // namespace arl::core
