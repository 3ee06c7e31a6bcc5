#include "core/schedule_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/line_io.hpp"
#include "support/parse.hpp"

namespace arl::core {

namespace {

void write_label(const Label& label, std::ostream& out) {
  out << ' ' << label.size();
  for (const auto& triple : label) {
    out << ' ' << triple.cls << ' ' << triple.round << ' ' << (triple.star ? '*' : '1');
  }
}

using support::TokenCursor;

/// Reads a label (` <count> <cls round star>*`) from the cursor's position.
/// The per-node label lines dominate artifact parsing — scanning them with
/// std::from_chars instead of one istringstream extraction per token is
/// what keeps a store preload cheaper than re-classifying.
Label read_label(TokenCursor& in) {
  std::size_t count = 0;
  ARL_EXPECTS(in.next_number(count), "malformed label length");
  Label label;
  label.reserve(count);
  std::string_view star;
  for (std::size_t i = 0; i < count; ++i) {
    LabelTriple triple;
    ARL_EXPECTS(in.next_number(triple.cls) && in.next_number(triple.round) && in.next(star) &&
                    (star == "1" || star == "*"),
                "malformed label triple");
    triple.star = star == "*";
    ARL_EXPECTS(label.empty() || label.back() < triple, "label triples must be ≺hist-sorted");
    label.push_back(triple);
  }
  return label;
}

}  // namespace

void schedule_to_text(const CanonicalSchedule& schedule, std::ostream& out) {
  out << "arl-schedule v1\n";
  out << "sigma " << schedule.sigma << '\n';
  out << "model " << (schedule.model == radio::ChannelModel::CollisionDetection ? "cd" : "nocd")
      << '\n';
  out << "feasible " << (schedule.feasible ? 1 : 0) << '\n';
  if (schedule.feasible) {
    out << "leader " << schedule.leader_old_class;
    write_label(schedule.leader_label, out);
    out << '\n';
  }
  out << "phases " << schedule.phases.size() << '\n';
  for (const PhaseSpec& phase : schedule.phases) {
    out << "phase " << phase.num_classes << '\n';
    for (const PhaseEntry& entry : phase.entries) {
      out << "entry " << entry.old_class;
      write_label(entry.label, out);
      out << '\n';
    }
  }
}

std::string schedule_to_text_string(const CanonicalSchedule& schedule) {
  std::ostringstream out;
  schedule_to_text(schedule, out);
  return out.str();
}

CanonicalSchedule schedule_from_text(std::istream& in) {
  std::string line;
  std::string keyword;
  CanonicalSchedule schedule;

  ARL_EXPECTS(support::next_content_line(in, line), "missing header");
  ARL_EXPECTS(line.rfind("arl-schedule v1", 0) == 0, "unknown schedule format/version");

  ARL_EXPECTS(support::next_content_line(in, line), "missing 'sigma'");
  {
    std::istringstream parse(line);
    parse >> keyword >> schedule.sigma;
    ARL_EXPECTS(!parse.fail() && keyword == "sigma", "malformed 'sigma' line");
  }

  ARL_EXPECTS(support::next_content_line(in, line), "missing 'model'");
  {
    std::istringstream parse(line);
    std::string model;
    parse >> keyword >> model;
    ARL_EXPECTS(!parse.fail() && keyword == "model" && (model == "cd" || model == "nocd"),
                "malformed 'model' line");
    schedule.model = model == "cd" ? radio::ChannelModel::CollisionDetection
                                   : radio::ChannelModel::NoCollisionDetection;
  }

  ARL_EXPECTS(support::next_content_line(in, line), "missing 'feasible'");
  {
    std::istringstream parse(line);
    int feasible = 0;
    parse >> keyword >> feasible;
    ARL_EXPECTS(!parse.fail() && keyword == "feasible" && (feasible == 0 || feasible == 1),
                "malformed 'feasible' line");
    schedule.feasible = feasible == 1;
  }

  if (schedule.feasible) {
    ARL_EXPECTS(support::next_content_line(in, line), "missing 'leader'");
    TokenCursor cursor(line);
    std::string_view token;
    ARL_EXPECTS(cursor.next(token) && token == "leader" &&
                    cursor.next_number(schedule.leader_old_class),
                "malformed 'leader' line");
    schedule.leader_label = read_label(cursor);
  }

  std::size_t phase_count = 0;
  ARL_EXPECTS(support::next_content_line(in, line), "missing 'phases'");
  {
    std::istringstream parse(line);
    parse >> keyword >> phase_count;
    ARL_EXPECTS(!parse.fail() && keyword == "phases" && phase_count >= 1,
                "malformed 'phases' line");
  }

  schedule.phases.reserve(phase_count);
  for (std::size_t j = 0; j < phase_count; ++j) {
    ARL_EXPECTS(support::next_content_line(in, line), "missing 'phase' line");
    PhaseSpec phase;
    {
      std::istringstream parse(line);
      parse >> keyword >> phase.num_classes;
      ARL_EXPECTS(!parse.fail() && keyword == "phase" && phase.num_classes >= 1,
                  "malformed 'phase' line");
    }
    phase.entries.reserve(phase.num_classes);
    for (ClassId k = 0; k < phase.num_classes; ++k) {
      ARL_EXPECTS(support::next_content_line(in, line), "missing 'entry' line");
      TokenCursor cursor(line);
      std::string_view token;
      PhaseEntry entry;
      ARL_EXPECTS(cursor.next(token) && token == "entry" && cursor.next_number(entry.old_class),
                  "malformed 'entry' line");
      entry.label = read_label(cursor);
      phase.entries.push_back(std::move(entry));
    }
    schedule.phases.push_back(std::move(phase));
  }

  // Structural sanity: L_1 is always [(1, null)].
  ARL_EXPECTS(schedule.phases[0].num_classes == 1 &&
                  schedule.phases[0].entries[0].old_class == 1 &&
                  schedule.phases[0].entries[0].label.empty(),
              "phase P_1 must carry L_1 = [(1, null)]");
  return schedule;
}

CanonicalSchedule schedule_from_text_string(const std::string& text) {
  std::istringstream in(text);
  return schedule_from_text(in);
}

namespace {

void absorb_label(support::Hash64& hash, const Label& label) {
  hash.absorb(label.size());
  for (const LabelTriple& triple : label) {
    hash.absorb(triple.cls);
    hash.absorb(triple.round);
    hash.absorb(triple.star ? 1 : 0);
  }
}

}  // namespace

void classification_to_text(const ClassifierResult& result, std::ostream& out) {
  out << "arl-classification v1\n";
  out << "model " << (result.model == radio::ChannelModel::CollisionDetection ? "cd" : "nocd")
      << '\n';
  out << "verdict " << (result.feasible() ? "feasible" : "infeasible") << '\n';
  out << "iterations " << result.iterations << '\n';
  if (result.feasible()) {
    out << "leader " << result.leader_class << ' ' << result.leader << '\n';
  }
  out << "steps " << result.steps << '\n';
  for (const IterationRecord& record : result.records) {
    out << "record " << record.num_classes << ' ' << record.clazz.size() << '\n';
    out << "classes";
    for (const ClassId cls : record.clazz) {
      out << ' ' << cls;
    }
    out << '\n';
    for (const Label& label : record.labels) {
      out << "label";
      write_label(label, out);
      out << '\n';
    }
    out << "reps";
    for (const graph::NodeId rep : record.reps) {
      out << ' ' << rep;
    }
    out << '\n';
  }
}

std::string classification_to_text_string(const ClassifierResult& result) {
  std::ostringstream out;
  classification_to_text(result, out);
  return out.str();
}

ClassifierResult classification_from_text(std::istream& in) {
  std::string line;
  std::string keyword;
  ClassifierResult result;

  ARL_EXPECTS(support::next_content_line(in, line), "missing header");
  ARL_EXPECTS(line.rfind("arl-classification v1", 0) == 0,
              "unknown classification format/version");

  ARL_EXPECTS(support::next_content_line(in, line), "missing 'model'");
  {
    std::istringstream parse(line);
    std::string model;
    parse >> keyword >> model;
    ARL_EXPECTS(!parse.fail() && keyword == "model" && (model == "cd" || model == "nocd"),
                "malformed 'model' line");
    result.model = model == "cd" ? radio::ChannelModel::CollisionDetection
                                 : radio::ChannelModel::NoCollisionDetection;
  }

  ARL_EXPECTS(support::next_content_line(in, line), "missing 'verdict'");
  {
    std::istringstream parse(line);
    std::string verdict;
    parse >> keyword >> verdict;
    ARL_EXPECTS(!parse.fail() && keyword == "verdict" &&
                    (verdict == "feasible" || verdict == "infeasible"),
                "malformed 'verdict' line");
    result.verdict = verdict == "feasible" ? Verdict::Feasible : Verdict::Infeasible;
  }

  ARL_EXPECTS(support::next_content_line(in, line), "missing 'iterations'");
  {
    std::istringstream parse(line);
    parse >> keyword >> result.iterations;
    ARL_EXPECTS(!parse.fail() && keyword == "iterations" && result.iterations >= 1,
                "malformed 'iterations' line");
  }

  if (result.feasible()) {
    ARL_EXPECTS(support::next_content_line(in, line), "missing 'leader'");
    std::istringstream parse(line);
    parse >> keyword >> result.leader_class >> result.leader;
    ARL_EXPECTS(!parse.fail() && keyword == "leader" && result.leader_class >= 1,
                "malformed 'leader' line");
  }

  ARL_EXPECTS(support::next_content_line(in, line), "missing 'steps'");
  {
    std::istringstream parse(line);
    parse >> keyword >> result.steps;
    ARL_EXPECTS(!parse.fail() && keyword == "steps", "malformed 'steps' line");
  }

  result.records.reserve(result.iterations);
  std::size_t nodes = 0;
  for (std::uint32_t j = 0; j < result.iterations; ++j) {
    ARL_EXPECTS(support::next_content_line(in, line), "missing 'record' line");
    IterationRecord record;
    std::size_t n = 0;
    {
      std::istringstream parse(line);
      parse >> keyword >> record.num_classes >> n;
      ARL_EXPECTS(!parse.fail() && keyword == "record" && record.num_classes >= 1 && n >= 1,
                  "malformed 'record' line");
    }
    if (j == 0) {
      nodes = n;
    }
    ARL_EXPECTS(n == nodes, "records disagree on the node count");
    ARL_EXPECTS(record.num_classes <= n, "more classes than nodes");

    ARL_EXPECTS(support::next_content_line(in, line), "missing 'classes' line");
    {
      TokenCursor cursor(line);
      std::string_view token;
      ARL_EXPECTS(cursor.next(token) && token == "classes", "malformed 'classes' line");
      record.clazz.reserve(n);
      for (std::size_t v = 0; v < n; ++v) {
        ClassId cls = 0;
        ARL_EXPECTS(cursor.next_number(cls) && cls >= 1 && cls <= record.num_classes,
                    "class out of range in 'classes' line");
        record.clazz.push_back(cls);
      }
    }

    record.labels.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      ARL_EXPECTS(support::next_content_line(in, line), "missing 'label' line");
      TokenCursor cursor(line);
      std::string_view token;
      ARL_EXPECTS(cursor.next(token) && token == "label", "malformed 'label' line");
      record.labels.push_back(read_label(cursor));
    }

    ARL_EXPECTS(support::next_content_line(in, line), "missing 'reps' line");
    {
      TokenCursor cursor(line);
      std::string_view token;
      ARL_EXPECTS(cursor.next(token) && token == "reps", "malformed 'reps' line");
      record.reps.reserve(record.num_classes);
      for (ClassId k = 0; k < record.num_classes; ++k) {
        graph::NodeId rep = 0;
        ARL_EXPECTS(cursor.next_number(rep) && rep < n,
                    "representative out of range in 'reps' line");
        record.reps.push_back(rep);
      }
    }
    result.records.push_back(std::move(record));
  }

  if (result.feasible()) {
    ARL_EXPECTS(result.leader < nodes, "leader node out of range");
    ARL_EXPECTS(result.leader_class <= result.records.back().num_classes,
                "leader class out of range");
  }
  return result;
}

ClassifierResult classification_from_text_string(const std::string& text) {
  std::istringstream in(text);
  return classification_from_text(in);
}

std::uint64_t classification_fingerprint(const ClassifierResult& result) {
  // A third key domain, separated from both config::fingerprint and
  // schedule_fingerprint by its seed.
  support::Hash64 hash(0xC1A55F1EULL);
  hash.absorb(result.feasible() ? 1 : 0);
  hash.absorb(static_cast<std::uint64_t>(result.model));
  hash.absorb(result.iterations);
  hash.absorb(result.records.size());
  for (const IterationRecord& record : result.records) {
    hash.absorb(record.num_classes);
    hash.absorb(record.clazz.size());
    for (const ClassId cls : record.clazz) {
      hash.absorb(cls);
    }
    for (const Label& label : record.labels) {
      absorb_label(hash, label);
    }
    for (const graph::NodeId rep : record.reps) {
      hash.absorb(rep);
    }
  }
  if (result.feasible()) {
    hash.absorb(result.leader_class);
    hash.absorb(result.leader);
  }
  hash.absorb(result.steps);
  return hash.digest();
}

std::uint64_t schedule_fingerprint(const CanonicalSchedule& schedule) {
  // Domain-separated from config::fingerprint (different seed), so the two
  // key spaces never alias in a shared artifact store.
  support::Hash64 hash(0x5CED0FEEULL);
  hash.absorb(schedule.sigma);
  hash.absorb(static_cast<std::uint64_t>(schedule.model));
  hash.absorb(schedule.feasible ? 1 : 0);
  if (schedule.feasible) {
    hash.absorb(schedule.leader_old_class);
    absorb_label(hash, schedule.leader_label);
  }
  hash.absorb(schedule.phases.size());
  for (const PhaseSpec& phase : schedule.phases) {
    hash.absorb(phase.num_classes);
    for (const PhaseEntry& entry : phase.entries) {
      hash.absorb(entry.old_class);
      absorb_label(hash, entry.label);
    }
  }
  return hash.digest();
}

}  // namespace arl::core
