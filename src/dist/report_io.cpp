#include "dist/report_io.hpp"

#include <iomanip>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "fault/fault.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/line_io.hpp"
#include "support/parse.hpp"

namespace arl::dist {

namespace {

/// Stable tokens for Disposition on the wire (single words, unlike the
/// spaced display names from core::to_string).
const char* disposition_token(core::Disposition disposition) {
  switch (disposition) {
    case core::Disposition::NotSimulated:
      return "not-simulated";
    case core::Disposition::Elected:
      return "elected";
    case core::Disposition::NoLeader:
      return "no-leader";
    case core::Disposition::Failed:
      return "failed";
    case core::Disposition::DetectedFault:
      return "detected-fault";
  }
  return "?";
}

core::Disposition parse_disposition(const std::string& token) {
  if (token == "not-simulated") {
    return core::Disposition::NotSimulated;
  }
  if (token == "elected") {
    return core::Disposition::Elected;
  }
  if (token == "no-leader") {
    return core::Disposition::NoLeader;
  }
  if (token == "failed") {
    return core::Disposition::Failed;
  }
  if (token == "detected-fault") {
    return core::Disposition::DetectedFault;
  }
  throw ReportFormatError("unknown disposition '" + token + "'");
}

std::uint64_t parse_u64(const std::string& token, const char* what,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  // The strict decimal grammar is shared with the other line protocols
  // (support/parse.hpp); fields narrower than 64 bits reject out-of-range
  // values here instead of silently truncating in a cast.
  const std::optional<std::uint64_t> value = support::parse_decimal_u64(token, max);
  if (!value) {
    throw ReportFormatError(std::string(what) + " must be a decimal integer within its field " +
                            "range (got '" + token + "')");
  }
  return *value;
}

/// parse_u64 bounded to a 32-bit field.
std::uint32_t parse_u32(const std::string& token, const char* what) {
  return static_cast<std::uint32_t>(
      parse_u64(token, what, std::numeric_limits<std::uint32_t>::max()));
}

std::uint64_t parse_hex64(const std::string& token, const char* what) {
  const std::optional<std::uint64_t> value = support::parse_hex64(token);
  if (!value) {
    throw ReportFormatError(std::string(what) +
                            " must be 16 lowercase hex digits (got '" + token + "')");
  }
  return *value;
}

bool parse_bool(const std::string& token, const char* what) {
  if (token == "0") {
    return false;
  }
  if (token == "1") {
    return true;
  }
  throw ReportFormatError(std::string(what) + " must be 0 or 1 (got '" + token + "')");
}

double parse_double(const std::string& token, const char* what) {
  // Only the canonical non-negative finite spellings the writer emits —
  // digits[.digits][e[+-]digits] — are valid; std::stod alone would also
  // accept inf/nan/hexfloat/signs and let a hand-authored report smuggle
  // non-finite values through the wall-time sum.
  if (support::is_canonical_number(token)) {
    try {
      return std::stod(token);
    } catch (const std::exception&) {  // out_of_range on extreme exponents
    }
  }
  throw ReportFormatError(std::string(what) + " must be a canonical number (got '" + token +
                          "')");
}

core::ProtocolSpec parse_protocol_token(const std::string& token) {
  try {
    const core::ProtocolSpec spec = core::parse_protocol(token);
    if (spec.name() != token) {  // only canonical spellings are valid on the wire
      throw ReportFormatError("protocol '" + token + "' is not in canonical form (want '" +
                              spec.name() + "')");
    }
    return spec;
  } catch (const support::ContractViolation& error) {
    throw ReportFormatError(std::string("bad protocol: ") + error.what());
  }
}

/// Splits a line on single spaces; rejects empty fields (leading, trailing
/// or doubled separators) so the grammar has exactly one spelling.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    const std::size_t end = space == std::string::npos ? line.size() : space;
    if (end == start) {
      throw ReportFormatError("empty field in line '" + line + "'");
    }
    tokens.push_back(line.substr(start, end - start));
    if (space == std::string::npos) {
      break;
    }
    start = space + 1;
  }
  return tokens;
}

/// Line cursor over the whole input: read_shard_report slurps every line up
/// front so truncation (missing `end`) is distinguishable from stream
/// errors.  Framing goes through the shared bounded reader
/// (support/line_io.hpp) — the same splitter the sweep-service sessions use
/// on their sockets — so a line that never terminates is a format error
/// here, not an unbounded buffer.
class LineReader {
 public:
  explicit LineReader(std::istream& in) {
    try {
      lines_ = support::read_lines(in);
    } catch (const support::LineTooLong& error) {
      throw ReportFormatError(std::string("unframeable shard report: ") + error.what());
    }
  }

  [[nodiscard]] bool done() const { return next_ >= lines_.size(); }

  /// The next line without consuming it; throws on exhausted input.
  [[nodiscard]] const std::string& peek() const {
    if (done()) {
      throw ReportFormatError("truncated shard report (line " + std::to_string(next_ + 1) +
                              " missing)");
    }
    return lines_[next_];
  }

  [[nodiscard]] std::string take() {
    std::string line = peek();
    ++next_;
    return line;
  }

  /// Digest of the raw bytes of every line consumed before the current one
  /// — what the writer digested as the report body (each line with its
  /// '\n'), streamed so a large report is never concatenated into a second
  /// in-memory copy.  Must mirror support::hash_text: total length first, then
  /// every byte.
  [[nodiscard]] std::uint64_t digest_before_current(std::uint64_t seed) const {
    std::size_t length = 0;
    for (std::size_t i = 0; i + 1 < next_; ++i) {
      length += lines_[i].size() + 1;
    }
    support::Hash64 hash(seed);
    hash.absorb(length);
    for (std::size_t i = 0; i + 1 < next_; ++i) {
      for (const char c : lines_[i]) {
        hash.absorb(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
      }
      hash.absorb(static_cast<std::uint64_t>('\n'));
    }
    return hash.digest();
  }

 private:
  std::vector<std::string> lines_;
  std::size_t next_ = 0;
};

void write_stats(std::ostream& out, const radio::RunStats& stats) {
  out << ' ' << stats.transmissions << ' ' << stats.clean_receptions << ' '
      << stats.collisions_heard << ' ' << stats.forced_wakeups << ' ' << stats.node_rounds << ' '
      << stats.max_node_transmissions << ' ' << stats.max_node_awake_rounds << ' '
      << stats.injected_drops << ' ' << stats.injected_corruptions << ' '
      << stats.injected_crashes << ' ' << stats.delayed_wakeups;
}

radio::RunStats parse_stats(const std::vector<std::string>& tokens, std::size_t first) {
  radio::RunStats stats;
  stats.transmissions = parse_u64(tokens[first], "transmissions");
  stats.clean_receptions = parse_u64(tokens[first + 1], "clean receptions");
  stats.collisions_heard = parse_u64(tokens[first + 2], "collisions heard");
  stats.forced_wakeups = parse_u64(tokens[first + 3], "forced wakeups");
  stats.node_rounds = parse_u64(tokens[first + 4], "node rounds");
  stats.max_node_transmissions = parse_u64(tokens[first + 5], "max node transmissions");
  stats.max_node_awake_rounds = parse_u64(tokens[first + 6], "max node awake rounds");
  stats.injected_drops = parse_u64(tokens[first + 7], "injected drops");
  stats.injected_corruptions = parse_u64(tokens[first + 8], "injected corruptions");
  stats.injected_crashes = parse_u64(tokens[first + 9], "injected crashes");
  stats.delayed_wakeups = parse_u64(tokens[first + 10], "delayed wakeups");
  return stats;
}

}  // namespace

namespace {

/// Domain seed of the whole-report body digest on the `end` line (distinct
/// from the sweep-description digest domain).
constexpr std::uint64_t kBodyDigestSeed = 0xB0D7;

}  // namespace

std::uint64_t sweep_digest(std::string_view description) {
  // Domain-separated from config fingerprints; the seed is mirrored by
  // engine::WorkloadSpec::digest() so spec digests feed SweepKeys directly.
  return support::hash_text(description, /*seed=*/0xD157);
}

SweepKey make_sweep_key(const engine::WorkloadSpec& workload, engine::JobId total_jobs,
                        const std::vector<core::ProtocolSpec>& protocols, std::uint64_t seed,
                        const fault::FaultSpec& fault) {
  SweepKey key;
  key.description = workload.name();
  key.digest = workload.digest();
  key.seed = seed;
  key.total_jobs = total_jobs;
  key.fault = fault.name();
  key.protocols.reserve(protocols.size());
  for (const core::ProtocolSpec& protocol : protocols) {
    key.protocols.push_back(protocol.name());
  }
  return key;
}

ShardReport make_shard_report(SweepKey key, JobRange range, engine::BatchReport report) {
  ARL_EXPECTS(range.end <= key.total_jobs, "shard range exceeds the sweep's job count");
  ARL_EXPECTS(report.jobs.size() == range.size(),
              "shard report must hold exactly the range's jobs");
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    ARL_EXPECTS(report.jobs[i].id == range.begin + i,
                "shard report jobs must carry the range's global ids");
  }
  ARL_EXPECTS(report.fault.name() == key.fault,
              "shard report fault must match the sweep key's fault");
  ShardReport shard;
  shard.key = std::move(key);
  if (!range.empty()) {
    shard.ranges.push_back(range);
  }
  shard.report = std::move(report);
  return shard;
}

void write_shard_report(const ShardReport& shard, std::ostream& sink) {
  // The body is assembled first so the trailing `end` line can carry its
  // content digest — the integrity check that makes every byte of the
  // report tamper-evident, not just the fields the breakdown cross-check
  // happens to cover.
  std::ostringstream buffer;
  std::ostream& out = buffer;
  out << "arl-shard-report " << kShardReportVersion << '\n';
  out << "sweep " << support::hex64(shard.key.digest) << ' ' << shard.key.description << '\n';
  out << "seed " << shard.key.seed << '\n';
  out << "jobs " << shard.key.total_jobs << '\n';
  if (shard.key.fault != "none") {
    // Canonical absence: the inactive fault is never spelled out, so every
    // fault-free report has exactly one byte sequence (and version-2 readers
    // treat a missing line as `none`).
    out << "fault " << shard.key.fault << '\n';
  }
  for (const JobRange& range : shard.ranges) {
    out << "range " << range.begin << ' ' << range.end << '\n';
  }
  for (const std::string& protocol : shard.key.protocols) {
    out << "protocol " << protocol << '\n';
  }
  out << "threads " << shard.report.threads_used << '\n';
  {
    // Round-trippable double, formatted without touching `out`'s stream state.
    std::ostringstream wall;
    wall << std::setprecision(std::numeric_limits<double>::max_digits10)
         << shard.report.wall_millis;
    out << "wall-ms " << wall.str() << '\n';
  }
  if (shard.report.cache) {
    const engine::ScheduleCacheStats& cache = *shard.report.cache;
    out << "cache " << cache.hits << ' ' << cache.misses << ' ' << cache.evictions << ' '
        << cache.schedule_builds << ' ' << cache.entries << '\n';
  }
  for (const engine::JobOutcome& job : shard.report.jobs) {
    out << "job " << job.id << ' ' << job.protocol.name() << ' '
        << disposition_token(job.disposition) << ' ' << job.nodes << ' ' << job.span << ' '
        << (job.feasible ? 1 : 0) << ' ' << (job.simulated ? 1 : 0) << ' '
        << (job.valid ? 1 : 0) << ' ';
    if (job.leader) {
      out << *job.leader;
    } else {
      out << '-';
    }
    out << ' ' << job.classifier_iterations << ' ' << job.classifier_steps << ' '
        << job.local_rounds << ' ' << job.global_rounds << ' '
        << support::hex64(job.config_fingerprint);
    write_stats(out, job.stats);
    out << '\n';
  }
  for (const engine::ProtocolBreakdown& row : shard.report.by_protocol) {
    out << "breakdown " << row.protocol.name() << ' ' << row.jobs << ' ' << row.feasible << ' '
        << row.valid << ' ' << row.elected << ' ' << row.no_leader << ' ' << row.failed << ' '
        << row.detected_fault << ' ' << row.total_local_rounds << ' ' << row.max_local_rounds;
    write_stats(out, row.stats);
    out << '\n';
  }
  const std::string body = std::move(buffer).str();  // extract, don't copy
  sink << body << "end " << shard.report.jobs.size() << ' '
       << support::hex64(support::hash_text(body, kBodyDigestSeed)) << '\n';
}

ShardReport read_shard_report(std::istream& in) {
  LineReader lines(in);
  ShardReport shard;

  // Header: version, sweep identity, seed, total job count.
  {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 2 || tokens[0] != "arl-shard-report") {
      throw ReportFormatError("not a shard report (missing 'arl-shard-report <version>' line)");
    }
    const std::uint64_t version = parse_u64(tokens[1], "version");
    if (version != kShardReportVersion) {
      throw ReportFormatError("unsupported shard report version " + tokens[1] + " (this build " +
                              "reads version " + std::to_string(kShardReportVersion) + ")");
    }
  }
  {
    const std::string line = lines.take();
    if (line.rfind("sweep ", 0) != 0) {
      throw ReportFormatError("expected the 'sweep' line, got '" + line + "'");
    }
    const std::size_t digest_end = line.find(' ', 6);
    if (digest_end == std::string::npos || digest_end + 1 >= line.size()) {
      throw ReportFormatError("sweep line needs a digest and a description: '" + line + "'");
    }
    shard.key.digest = parse_hex64(line.substr(6, digest_end - 6), "sweep digest");
    shard.key.description = line.substr(digest_end + 1);
    if (sweep_digest(shard.key.description) != shard.key.digest) {
      throw ReportFormatError("sweep digest does not match its description (corrupted header?)");
    }
    // Workload identity is re-parsed, never trusted as an opaque string: the
    // description must be the canonical spelling of a registered workload,
    // so two reports merge only when the registry itself equates them.
    try {
      const engine::WorkloadSpec workload = engine::parse_workload(shard.key.description);
      if (workload.name() != shard.key.description) {
        throw ReportFormatError("workload '" + shard.key.description +
                                "' is not in canonical form (want '" + workload.name() + "')");
      }
    } catch (const support::ContractViolation& error) {
      throw ReportFormatError(std::string("bad workload: ") + error.what());
    }
  }
  {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 2 || tokens[0] != "seed") {
      throw ReportFormatError("expected the 'seed' line");
    }
    shard.key.seed = parse_u64(tokens[1], "seed");
  }
  {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 2 || tokens[0] != "jobs") {
      throw ReportFormatError("expected the 'jobs' line");
    }
    shard.key.total_jobs = parse_u64(tokens[1], "total job count");
  }

  // Optional fault plan; absent means `none` (canonical absence).  Like the
  // workload, the spelling is re-parsed through the registry — only the
  // canonical name of a registered fault is valid on the wire.
  if (!lines.done() && lines.peek().rfind("fault ", 0) == 0) {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 2) {
      throw ReportFormatError("fault line must be 'fault <name>'");
    }
    try {
      const fault::FaultSpec spec = fault::parse_fault(tokens[1]);
      if (spec.name() != tokens[1]) {
        throw ReportFormatError("fault '" + tokens[1] + "' is not in canonical form (want '" +
                                spec.name() + "')");
      }
      if (!spec.active()) {
        throw ReportFormatError("inactive fault '" + tokens[1] +
                                "' must be spelled by omitting the fault line");
      }
      shard.key.fault = tokens[1];
      shard.report.fault = spec;
    } catch (const support::ContractViolation& error) {
      throw ReportFormatError(std::string("bad fault: ") + error.what());
    }
  }

  // Covered ranges: ascending, disjoint, coalesced, within [0, total).
  while (!lines.done() && lines.peek().rfind("range ", 0) == 0) {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 3) {
      throw ReportFormatError("range line must be 'range <begin> <end>'");
    }
    JobRange range{parse_u64(tokens[1], "range begin"), parse_u64(tokens[2], "range end")};
    if (range.begin >= range.end || range.end > shard.key.total_jobs) {
      throw ReportFormatError("range [" + tokens[1] + ", " + tokens[2] +
                              ") must be non-empty and within the sweep's jobs");
    }
    if (!shard.ranges.empty() && range.begin <= shard.ranges.back().end) {
      throw ReportFormatError("ranges must be ascending, disjoint and coalesced");
    }
    shard.ranges.push_back(range);
  }

  // The protocol axis.
  while (!lines.done() && lines.peek().rfind("protocol ", 0) == 0) {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 2) {
      throw ReportFormatError("protocol line must be 'protocol <name>'");
    }
    (void)parse_protocol_token(tokens[1]);
    shard.key.protocols.push_back(tokens[1]);
  }
  if (shard.key.protocols.empty()) {
    throw ReportFormatError("shard report declares no protocols");
  }

  // Execution circumstances (informational; never part of merge identity).
  {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 2 || tokens[0] != "threads") {
      throw ReportFormatError("expected the 'threads' line");
    }
    shard.report.threads_used = static_cast<std::size_t>(parse_u64(tokens[1], "threads"));
  }
  {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 2 || tokens[0] != "wall-ms") {
      throw ReportFormatError("expected the 'wall-ms' line");
    }
    shard.report.wall_millis = parse_double(tokens[1], "wall time");
  }
  if (!lines.done() && lines.peek().rfind("cache ", 0) == 0) {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 6) {
      throw ReportFormatError("cache line must carry exactly five counters");
    }
    engine::ScheduleCacheStats cache;
    cache.hits = parse_u64(tokens[1], "cache hits");
    cache.misses = parse_u64(tokens[2], "cache misses");
    cache.evictions = parse_u64(tokens[3], "cache evictions");
    cache.schedule_builds = parse_u64(tokens[4], "cache schedule builds");
    cache.entries = parse_u64(tokens[5], "cache entries");
    shard.report.cache = cache;
  }

  // Job lines: ids must enumerate the declared ranges exactly, in order.
  engine::JobId expected_jobs = 0;
  for (const JobRange& range : shard.ranges) {
    expected_jobs += range.size();
  }
  std::size_t range_index = 0;
  engine::JobId next_id = shard.ranges.empty() ? 0 : shard.ranges[0].begin;
  // No reserve(expected_jobs): the declared ranges are untrusted input, and
  // a forged range must fail the count check below as a format error — not
  // blow up an allocation first.  Amortized growth is plenty here.
  while (!lines.done() && lines.peek().rfind("job ", 0) == 0) {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 26) {
      throw ReportFormatError("job line must carry exactly 25 fields");
    }
    engine::JobOutcome job;
    job.id = parse_u64(tokens[1], "job id");
    if (range_index >= shard.ranges.size() || job.id != next_id) {
      throw ReportFormatError("job id " + tokens[1] +
                              " does not enumerate the declared ranges in order");
    }
    job.protocol = parse_protocol_token(tokens[2]);
    bool listed = false;
    for (const std::string& name : shard.key.protocols) {
      listed = listed || name == tokens[2];
    }
    if (!listed) {
      throw ReportFormatError("job protocol '" + tokens[2] +
                              "' is not in the declared protocol list");
    }
    job.disposition = parse_disposition(tokens[3]);
    job.nodes = parse_u32(tokens[4], "node count");
    job.span = parse_u32(tokens[5], "span");
    job.feasible = parse_bool(tokens[6], "feasible");
    job.simulated = parse_bool(tokens[7], "simulated");
    job.valid = parse_bool(tokens[8], "valid");
    if (tokens[9] != "-") {
      job.leader = parse_u32(tokens[9], "leader");
    }
    job.classifier_iterations = parse_u32(tokens[10], "classifier iterations");
    job.classifier_steps = parse_u64(tokens[11], "classifier steps");
    job.local_rounds = parse_u64(tokens[12], "local rounds");
    job.global_rounds = parse_u32(tokens[13], "global rounds");
    job.config_fingerprint = parse_hex64(tokens[14], "configuration fingerprint");
    job.stats = parse_stats(tokens, 15);
    shard.report.jobs.push_back(std::move(job));
    ++next_id;
    if (next_id == shard.ranges[range_index].end) {
      ++range_index;
      next_id = range_index < shard.ranges.size() ? shard.ranges[range_index].begin : 0;
    }
  }
  if (shard.report.jobs.size() != expected_jobs) {
    throw ReportFormatError("expected " + std::to_string(expected_jobs) + " job lines, found " +
                            std::to_string(shard.report.jobs.size()));
  }

  // Breakdown lines: must agree with the aggregation of the job lines (a
  // corrupted job field rarely survives this cross-check).
  std::vector<engine::ProtocolBreakdown> declared;
  while (!lines.done() && lines.peek().rfind("breakdown ", 0) == 0) {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 22) {
      throw ReportFormatError("breakdown line must carry exactly 21 fields");
    }
    engine::ProtocolBreakdown row;
    row.protocol = parse_protocol_token(tokens[1]);
    row.jobs = parse_u64(tokens[2], "breakdown jobs");
    row.feasible = parse_u64(tokens[3], "breakdown feasible");
    row.valid = parse_u64(tokens[4], "breakdown valid");
    row.elected = parse_u64(tokens[5], "breakdown elected");
    row.no_leader = parse_u64(tokens[6], "breakdown no-leader");
    row.failed = parse_u64(tokens[7], "breakdown failed");
    row.detected_fault = parse_u64(tokens[8], "breakdown detected-fault");
    row.total_local_rounds = parse_u64(tokens[9], "breakdown total local rounds");
    row.max_local_rounds = parse_u64(tokens[10], "breakdown max local rounds");
    row.stats = parse_stats(tokens, 11);
    declared.push_back(std::move(row));
  }
  {
    const std::vector<std::string> tokens = tokenize(lines.take());
    if (tokens.size() != 3 || tokens[0] != "end") {
      throw ReportFormatError("expected the 'end <count> <digest>' line");
    }
    if (parse_u64(tokens[1], "end count") != shard.report.jobs.size()) {
      throw ReportFormatError("end count disagrees with the job lines (truncated file?)");
    }
    // Whole-body integrity: every byte above this line is covered, so a
    // corrupted field that happens to still parse — a node count, a
    // fingerprint digit — is caught here instead of merging silently.
    const std::uint64_t declared = parse_hex64(tokens[2], "end digest");
    if (lines.digest_before_current(kBodyDigestSeed) != declared) {
      throw ReportFormatError("report body does not match its end-line digest (corrupted file?)");
    }
  }
  while (!lines.done()) {
    if (!lines.take().empty()) {
      throw ReportFormatError("trailing garbage after the 'end' line");
    }
  }

  engine::aggregate_outcomes(shard.report);
  if (shard.report.by_protocol != declared) {
    throw ReportFormatError("breakdown lines disagree with the job lines (corrupted file?)");
  }
  return shard;
}

}  // namespace arl::dist
