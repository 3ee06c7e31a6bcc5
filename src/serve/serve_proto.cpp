#include "serve/serve_proto.hpp"

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/parse.hpp"

namespace arl::serve {

namespace {

/// Splits on single spaces, rejecting empty fields (leading, trailing or
/// doubled separators) — the same discipline as the shard-report tokenizer,
/// so the two wire formats fail identically on sloppy framing.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    const std::size_t end = space == std::string_view::npos ? line.size() : space;
    if (end == start) {
      throw ProtoError("empty field (doubled, leading or trailing space)");
    }
    tokens.push_back(line.substr(start, end - start));
    if (space == std::string_view::npos) {
      break;
    }
    start = space + 1;
  }
  if (line.empty()) {
    throw ProtoError("empty line");
  }
  return tokens;
}

std::uint64_t parse_u64(std::string_view token, std::string_view what,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const std::optional<std::uint64_t> value = support::parse_decimal_u64(token, max);
  if (!value) {
    throw ProtoError(std::string(what) + " must be a decimal integer within its field range " +
                     "(got '" + std::string(token) + "')");
  }
  return *value;
}

/// The serve tag every protocol line leads with ("arl-serve 1").
void check_tag(const std::vector<std::string_view>& tokens) {
  if (tokens.size() < 3 || tokens[0] != "arl-serve") {
    throw ProtoError("not an arl-serve protocol line");
  }
  const std::uint64_t version = parse_u64(tokens[1], "protocol version");
  // Canonical spelling only: "01" numerically equals 1 but is not a line
  // this build ever wrote, so it is rejected like any other version skew.
  if (version != kServeProtocolVersion ||
      tokens[1] != std::to_string(kServeProtocolVersion)) {
    throw ProtoError("unsupported serve protocol version " + std::string(tokens[1]) +
                     " (this build speaks version " + std::to_string(kServeProtocolVersion) + ")");
  }
}

std::string tag() { return "arl-serve " + std::to_string(kServeProtocolVersion) + " "; }

/// Pulls the value of the `key=` field the cursor must name next; returns
/// nullopt (without advancing) when the next token names a different key —
/// how the fixed field order admits optional fields.
std::optional<std::string_view> take_field(const std::vector<std::string_view>& tokens,
                                           std::size_t& cursor, std::string_view key) {
  if (cursor >= tokens.size()) {
    return std::nullopt;
  }
  const std::string_view token = tokens[cursor];
  const std::string prefix = std::string(key) + "=";
  if (token.substr(0, prefix.size()) != prefix) {
    return std::nullopt;
  }
  cursor += 1;
  const std::string_view value = token.substr(prefix.size());
  if (value.empty()) {
    throw ProtoError("field '" + std::string(key) + "' has an empty value");
  }
  return value;
}

std::string_view require_field(const std::vector<std::string_view>& tokens, std::size_t& cursor,
                               std::string_view key) {
  const std::optional<std::string_view> value = take_field(tokens, cursor, key);
  if (!value) {
    throw ProtoError("expected field '" + std::string(key) + "='" +
                     (cursor < tokens.size() ? " before '" + std::string(tokens[cursor]) + "'"
                                             : " (line ends early)"));
  }
  return *value;
}

SweepRequest parse_sweep_fields(const std::vector<std::string_view>& tokens, std::size_t cursor) {
  SweepRequest sweep;

  const std::string_view workload = require_field(tokens, cursor, "workload");
  try {
    sweep.workload = engine::parse_workload(workload);
  } catch (const support::ContractViolation& violation) {
    throw ProtoError("bad workload: " + std::string(violation.what()));
  }
  if (sweep.workload.name() != workload) {
    throw ProtoError("workload must use its canonical spelling '" + sweep.workload.name() +
                     "' (got '" + std::string(workload) + "')");
  }

  const std::string_view protocols = require_field(tokens, cursor, "protocols");
  sweep.protocols.clear();
  std::size_t start = 0;
  while (start <= protocols.size()) {
    const std::size_t comma = protocols.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? protocols.size() : comma;
    const std::string_view token = protocols.substr(start, end - start);
    if (token.empty()) {
      throw ProtoError("protocol list has an empty entry");
    }
    core::ProtocolSpec spec;
    try {
      spec = core::parse_protocol(token);
    } catch (const support::ContractViolation& violation) {
      throw ProtoError("bad protocol: " + std::string(violation.what()));
    }
    if (spec.name() != token) {
      throw ProtoError("protocol must use its canonical spelling '" + spec.name() + "' (got '" +
                       std::string(token) + "')");
    }
    sweep.protocols.push_back(spec);
    if (comma == std::string_view::npos) {
      break;
    }
    start = comma + 1;
  }

  sweep.seed = parse_u64(require_field(tokens, cursor, "seed"), "seed");

  if (const auto fault = take_field(tokens, cursor, "fault")) {
    try {
      sweep.fault = fault::parse_fault(*fault);
    } catch (const support::ContractViolation& violation) {
      throw ProtoError("bad fault: " + std::string(violation.what()));
    }
    if (sweep.fault.name() != *fault) {
      throw ProtoError("fault must use its canonical spelling '" + sweep.fault.name() +
                       "' (got '" + std::string(*fault) + "')");
    }
    if (!sweep.fault.active()) {
      // The inactive plan is spelled by absence; one canonical line per request.
      throw ProtoError("fault 'none' is spelled by omitting the field");
    }
  }

  if (const auto count = take_field(tokens, cursor, "count")) {
    sweep.count = parse_u64(*count, "count", kMaxRequestCount);
    if (*sweep.count == 0) {
      throw ProtoError("count must be >= 1");
    }
  }
  if (sweep.workload.bounded() && sweep.count) {
    throw ProtoError("workload '" + sweep.workload.name() +
                     "' implies its own job count; 'count=' is not allowed");
  }
  if (!sweep.workload.bounded() && !sweep.count) {
    throw ProtoError("workload '" + sweep.workload.name() + "' requires a 'count=' field");
  }

  if (const auto shard = take_field(tokens, cursor, "shard")) {
    try {
      sweep.shard = dist::parse_shard(*shard);
    } catch (const support::ContractViolation& violation) {
      throw ProtoError("bad shard: " + std::string(violation.what()));
    }
  }

  if (const auto threads = take_field(tokens, cursor, "threads")) {
    sweep.threads = parse_u64(*threads, "threads", kMaxRequestThreads);
    if (*sweep.threads == 0) {
      throw ProtoError("threads must be >= 1");
    }
  }

  if (const auto cache = take_field(tokens, cursor, "cache")) {
    if (*cache != "off") {
      throw ProtoError("cache must be 'off' (got '" + std::string(*cache) +
                       "'; omit the field to use the shared cache)");
    }
    sweep.use_cache = false;
  }

  if (cursor < tokens.size()) {
    throw ProtoError("unexpected field '" + std::string(tokens[cursor]) +
                     "' (fields must appear in canonical order)");
  }
  return sweep;
}

/// Stats lines interleave bare labels with values; the cursor must be
/// sitting on exactly `label`.
void require_label(const std::vector<std::string_view>& tokens, std::size_t& cursor,
                   std::string_view label) {
  if (cursor >= tokens.size()) {
    throw ProtoError("stats response ends before its '" + std::string(label) + "' section");
  }
  if (tokens[cursor] != label) {
    throw ProtoError("stats response expected '" + std::string(label) + "', got '" +
                     std::string(tokens[cursor]) + "'");
  }
  cursor += 1;
}

std::uint64_t labeled_u64(const std::vector<std::string_view>& tokens, std::size_t& cursor,
                          std::string_view label) {
  require_label(tokens, cursor, label);
  if (cursor >= tokens.size()) {
    throw ProtoError("stats response ends before the '" + std::string(label) + "' value");
  }
  return parse_u64(tokens[cursor++], label);
}

std::uint64_t positional_u64(const std::vector<std::string_view>& tokens, std::size_t& cursor,
                             std::string_view what) {
  if (cursor >= tokens.size()) {
    throw ProtoError("stats response ends before its " + std::string(what));
  }
  return parse_u64(tokens[cursor++], what);
}

LatencySummary parse_latency(const std::vector<std::string_view>& tokens, std::size_t& cursor,
                             std::string_view label) {
  require_label(tokens, cursor, label);
  LatencySummary summary;
  summary.count = positional_u64(tokens, cursor, "latency count");
  summary.p50_us = positional_u64(tokens, cursor, "latency p50");
  summary.p90_us = positional_u64(tokens, cursor, "latency p90");
  summary.p99_us = positional_u64(tokens, cursor, "latency p99");
  return summary;
}

std::string format_latency(std::string_view label, const LatencySummary& summary) {
  return std::string(label) + " " + std::to_string(summary.count) + " " +
         std::to_string(summary.p50_us) + " " + std::to_string(summary.p90_us) + " " +
         std::to_string(summary.p99_us);
}

}  // namespace

std::string format_request(const Request& request) {
  if (request.kind == Request::Kind::Ping) {
    return tag() + "ping";
  }
  if (request.kind == Request::Kind::Stats) {
    return tag() + "stats";
  }
  const SweepRequest& sweep = request.sweep;
  ARL_EXPECTS(!sweep.protocols.empty(), "a sweep request needs at least one protocol");
  ARL_EXPECTS(sweep.workload.bounded() != sweep.count.has_value(),
              "count must be present exactly for unbounded workloads");
  std::string line = tag() + "sweep workload=" + sweep.workload.name() + " protocols=";
  for (std::size_t i = 0; i < sweep.protocols.size(); ++i) {
    if (i > 0) {
      line += ',';
    }
    line += sweep.protocols[i].name();
  }
  line += " seed=" + std::to_string(sweep.seed);
  if (sweep.fault.active()) {
    line += " fault=" + sweep.fault.name();
  }
  if (sweep.count) {
    line += " count=" + std::to_string(*sweep.count);
  }
  if (sweep.shard) {
    line += " shard=" + sweep.shard->name();
  }
  if (sweep.threads) {
    line += " threads=" + std::to_string(*sweep.threads);
  }
  if (!sweep.use_cache) {
    line += " cache=off";
  }
  return line;
}

Request parse_request(std::string_view line) {
  if (line.size() > kMaxRequestLineBytes) {
    throw ProtoError("request line exceeds the " + std::to_string(kMaxRequestLineBytes) +
                     "-byte bound");
  }
  const std::vector<std::string_view> tokens = tokenize(line);
  check_tag(tokens);
  Request request;
  if (tokens[2] == "ping") {
    if (tokens.size() != 3) {
      throw ProtoError("ping takes no fields");
    }
    request.kind = Request::Kind::Ping;
    return request;
  }
  if (tokens[2] == "stats") {
    if (tokens.size() != 3) {
      throw ProtoError("stats takes no fields");
    }
    request.kind = Request::Kind::Stats;
    return request;
  }
  if (tokens[2] == "sweep") {
    request.kind = Request::Kind::Sweep;
    request.sweep = parse_sweep_fields(tokens, 3);
    return request;
  }
  throw ProtoError("unknown request '" + std::string(tokens[2]) +
                   "' (expected ping, stats or sweep)");
}

std::string format_response(const Response& response) {
  switch (response.kind) {
    case Response::Kind::Pong:
      return tag() + "pong " + std::to_string(response.totals.hits) + " " +
             std::to_string(response.totals.misses) + " " +
             std::to_string(response.totals.entries);
    case Response::Kind::Error:
      ARL_EXPECTS(!response.message.empty(), "an error response needs a message");
      return tag() + "error " + response.message;
    case Response::Kind::Busy:
      return tag() + "busy " + std::to_string(response.queue_limit);
    case Response::Kind::Ack:
      return tag() + "ack " + std::to_string(response.id);
    case Response::Kind::Begin:
      return tag() + "begin " + std::to_string(response.id);
    case Response::Kind::Done:
      return tag() + "done " + std::to_string(response.id) + " cache " +
             std::to_string(response.request_cache.hits) + " " +
             std::to_string(response.request_cache.misses) + " " +
             std::to_string(response.request_cache.schedule_builds) + " " +
             std::to_string(response.totals.hits) + " " +
             std::to_string(response.totals.misses) + " " +
             std::to_string(response.totals.entries);
    case Response::Kind::Stats: {
      const ServerStats& s = response.stats;
      return tag() + "stats uptime-ms " + std::to_string(s.uptime_ms) + " queued " +
             std::to_string(s.queued) + " active " + std::to_string(s.active) + " sessions " +
             std::to_string(s.sessions) + " accepted " + std::to_string(s.accepted) +
             " completed " + std::to_string(s.completed) + " failed " +
             std::to_string(s.failed) + " busy " + std::to_string(s.busy_rejections) +
             " drained " + std::to_string(s.drain_rejections) + " proto-errors " +
             std::to_string(s.protocol_errors) + " cache " + std::to_string(s.cache.hits) + " " +
             std::to_string(s.cache.misses) + " " + std::to_string(s.cache.entries) + " store " +
             std::to_string(s.store.hits) + " " + std::to_string(s.store.misses) + " " +
             std::to_string(s.store.saves) + " " +
             format_latency("queue-wait-us", s.queue_wait) + " " +
             format_latency("dispatch-us", s.dispatch);
    }
  }
  ARL_ASSERT(false, "unreachable response kind");
  return {};
}

std::optional<Response> match_response(std::string_view line) {
  // A report body line: the serve tag never leads anything but protocol
  // lines, and no shard-report record starts with it.
  if (line.substr(0, 10) != "arl-serve ") {
    return std::nullopt;
  }

  Response response;
  // The error message is free text (the rest of the line), so it is carved
  // off before the space-tokenizer sees it.
  const std::string error_prefix = tag() + "error ";
  if (line.substr(0, error_prefix.size()) == error_prefix) {
    response.kind = Response::Kind::Error;
    response.message = std::string(line.substr(error_prefix.size()));
    if (response.message.empty()) {
      throw ProtoError("error response without a message");
    }
    return response;
  }

  const std::vector<std::string_view> tokens = tokenize(line);
  check_tag(tokens);
  const std::string_view kind = tokens[2];
  const auto expect_size = [&](std::size_t want) {
    if (tokens.size() != want) {
      throw ProtoError("response '" + std::string(kind) + "' has " +
                       std::to_string(tokens.size() - 3) + " fields, expected " +
                       std::to_string(want - 3));
    }
  };
  if (kind == "pong") {
    expect_size(6);
    response.kind = Response::Kind::Pong;
    response.totals = {parse_u64(tokens[3], "pong hits"), parse_u64(tokens[4], "pong misses"),
                       parse_u64(tokens[5], "pong entries")};
    return response;
  }
  if (kind == "busy") {
    expect_size(4);
    response.kind = Response::Kind::Busy;
    response.queue_limit = parse_u64(tokens[3], "busy queue limit");
    return response;
  }
  if (kind == "ack" || kind == "begin") {
    expect_size(4);
    response.kind = kind == "ack" ? Response::Kind::Ack : Response::Kind::Begin;
    response.id = parse_u64(tokens[3], "request id");
    return response;
  }
  if (kind == "done") {
    expect_size(11);
    if (tokens[4] != "cache") {
      throw ProtoError("done response must carry a 'cache' section");
    }
    response.kind = Response::Kind::Done;
    response.id = parse_u64(tokens[3], "request id");
    response.request_cache = {parse_u64(tokens[5], "request cache hits"),
                              parse_u64(tokens[6], "request cache misses"),
                              parse_u64(tokens[7], "request cache builds")};
    response.totals = {parse_u64(tokens[8], "cumulative hits"),
                       parse_u64(tokens[9], "cumulative misses"),
                       parse_u64(tokens[10], "cumulative entries")};
    return response;
  }
  if (kind == "stats") {
    response.kind = Response::Kind::Stats;
    ServerStats& s = response.stats;
    std::size_t cursor = 3;
    s.uptime_ms = labeled_u64(tokens, cursor, "uptime-ms");
    s.queued = labeled_u64(tokens, cursor, "queued");
    s.active = labeled_u64(tokens, cursor, "active");
    s.sessions = labeled_u64(tokens, cursor, "sessions");
    s.accepted = labeled_u64(tokens, cursor, "accepted");
    s.completed = labeled_u64(tokens, cursor, "completed");
    s.failed = labeled_u64(tokens, cursor, "failed");
    s.busy_rejections = labeled_u64(tokens, cursor, "busy");
    s.drain_rejections = labeled_u64(tokens, cursor, "drained");
    s.protocol_errors = labeled_u64(tokens, cursor, "proto-errors");
    require_label(tokens, cursor, "cache");
    s.cache.hits = positional_u64(tokens, cursor, "cache hits");
    s.cache.misses = positional_u64(tokens, cursor, "cache misses");
    s.cache.entries = positional_u64(tokens, cursor, "cache entries");
    require_label(tokens, cursor, "store");
    s.store.hits = positional_u64(tokens, cursor, "store hits");
    s.store.misses = positional_u64(tokens, cursor, "store misses");
    s.store.saves = positional_u64(tokens, cursor, "store saves");
    s.queue_wait = parse_latency(tokens, cursor, "queue-wait-us");
    s.dispatch = parse_latency(tokens, cursor, "dispatch-us");
    if (cursor != tokens.size()) {
      throw ProtoError("stats response has trailing fields after '" +
                       std::string(tokens[cursor - 1]) + "'");
    }
    return response;
  }
  throw ProtoError("unknown response '" + std::string(kind) + "'");
}

void print_stats(std::ostream& out, std::string_view prefix, const ServerStats& stats) {
  out << prefix << "uptime " << stats.uptime_ms << " ms; queue " << stats.queued
      << " waiting, " << stats.active << " executing, " << stats.sessions << " sessions open\n";
  out << prefix << "requests: " << stats.accepted << " accepted, " << stats.completed
      << " completed, " << stats.failed << " failed, " << stats.busy_rejections << " busy, "
      << stats.drain_rejections << " rejected draining, " << stats.protocol_errors
      << " protocol errors\n";
  out << prefix << "cache: " << stats.cache.hits << " hits, " << stats.cache.misses
      << " misses, " << stats.cache.entries << " entries\n";
  out << prefix << "store " << stats.store.hits << " loads, " << stats.store.misses
      << " misses, " << stats.store.saves << " saves\n";
  out << prefix << "queue wait us: " << stats.queue_wait.count << " sampled, p50 "
      << stats.queue_wait.p50_us << ", p90 " << stats.queue_wait.p90_us << ", p99 "
      << stats.queue_wait.p99_us << "\n";
  out << prefix << "dispatch us: " << stats.dispatch.count << " sampled, p50 "
      << stats.dispatch.p50_us << ", p90 " << stats.dispatch.p90_us << ", p99 "
      << stats.dispatch.p99_us << "\n";
}

}  // namespace arl::serve
