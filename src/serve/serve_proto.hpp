#pragma once

/// \file serve_proto.hpp
/// Versioned line protocol of the sweep service (`arl serve`).
///
/// One request per line, one response framing per request.  Every protocol
/// line — in either direction — starts with `arl-serve <version>`, so the
/// raw `arl-shard-report 1` lines a sweep response streams between its
/// `begin` and `done` markers are unambiguous: no report record ever begins
/// with the serve tag.  Clients therefore recover exactly the bytes
/// `dist::write_shard_report` produced, and can hand them to `arl merge`
/// unchanged.
///
/// Requests (client to server):
///
///   arl-serve 1 ping
///   arl-serve 1 stats
///   arl-serve 1 sweep workload=<name> protocols=<p1,p2,...> seed=<u64>
///       [fault=<spec>] [count=<u64>] [shard=<i/K>] [threads=<u64>]
///       [cache=off]
///
/// Fields appear in exactly that order, each at most once.  `workload`, the
/// protocol names and `fault` must be the *canonical* registry spellings
/// (identity is re-parsed through `engine::parse_workload` /
/// `core::parse_protocol` / `fault::parse_fault` and the round trip
/// compared, never trusted as opaque strings — the same rule the
/// shard-report parser enforces).  `count` is required exactly when the
/// workload does not imply its own job count (`WorkloadSpec::bounded()`);
/// the optional knobs have canonical-absence defaults (`fault` absent means
/// none, `cache=off` is the only spelling that disables the shared cache —
/// and with it the server's artifact store, the cache's disk tier).
///
/// Responses (server to client):
///
///   arl-serve 1 pong <hits> <misses> <entries>          (cumulative cache)
///   arl-serve 1 error <message>                          (rest of line)
///   arl-serve 1 busy <queue-limit>                       (backpressure)
///   arl-serve 1 ack <id>                                 (queued)
///   arl-serve 1 begin <id>                               (executing)
///   ... raw arl-shard-report lines ...
///   arl-serve 1 done <id> cache <req-hits> <req-misses> <req-builds>
///       <cum-hits> <cum-misses> <cum-entries>
///   arl-serve 1 stats uptime-ms <u64> queued <u64> active <u64>
///       sessions <u64> accepted <u64> completed <u64> failed <u64>
///       busy <u64> drained <u64> proto-errors <u64>
///       cache <hits> <misses> <entries> store <hits> <misses> <saves>
///       queue-wait-us <count> <p50> <p90> <p99>
///       dispatch-us <count> <p50> <p90> <p99>
///
/// The stats response is one line: live gauges (queue depth, in-flight
/// requests, open sessions), cumulative lifecycle counters, cumulative
/// cache/store counters, and the two serve-side latency histograms
/// summarized as integer microseconds (count + p50/p90/p99 — see
/// obs::HistogramSnapshot::percentile for the deterministic extraction).
///
/// The parser is strict in the report_io tradition: unknown versions,
/// reordered or duplicated fields, non-canonical spellings, out-of-range
/// numbers and trailing garbage all throw `ProtoError` — a malformed request
/// costs the client an `error` line, never the server its process.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocol.hpp"
#include "dist/shard.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"

namespace arl::serve {

/// Thrown on any malformed, non-canonical or out-of-range protocol line.
class ProtoError : public std::runtime_error {
 public:
  explicit ProtoError(const std::string& what) : std::runtime_error(what) {}
};

/// The current (and only) serve protocol version; readers reject every
/// version they were not built for, like the shard-report format.
inline constexpr std::uint32_t kServeProtocolVersion = 1;

/// Per-line byte bound for *request* lines.  Requests carry one workload
/// name, a protocol list and a few numbers — 4 KiB is far above any
/// legitimate request while bounding a peer that streams garbage.
inline constexpr std::size_t kMaxRequestLineBytes = 4096;

/// Ceiling on `count` (configurations per request): large enough for any
/// sweep the engine can actually execute, small enough that count * P job
/// ids never approach overflow.
inline constexpr std::uint64_t kMaxRequestCount = 1'000'000'000;

/// Ceiling on the per-request worker cap.
inline constexpr std::uint64_t kMaxRequestThreads = 256;

/// One sweep to execute: the workload axis, the protocol axis, the seed and
/// the run-shaping knobs.  Mirrors what `arl sweep` resolves from its flags,
/// so a submission and a local sweep describe runs identically.
struct SweepRequest {
  engine::WorkloadSpec workload;
  std::vector<core::ProtocolSpec> protocols = {core::ProtocolSpec::canonical()};
  std::uint64_t seed = 1;

  /// Fault plan applied to every job; the inactive default is spelled by
  /// absence on the wire (`fault=` carries only active canonical names).
  fault::FaultSpec fault = {};

  /// Configurations to draw; present exactly when !workload.bounded().
  std::optional<std::uint64_t> count;

  /// Run only this shard of the sweep's job range (absent: the whole range).
  std::optional<dist::ShardSpec> shard;

  /// Worker cap for this request, in [1, kMaxRequestThreads] (absent: the
  /// server's full pool).  Shapes throughput only, never outcomes.
  std::optional<std::uint64_t> threads;

  /// False when the request opts out of the server's shared schedule cache
  /// (and so of the artifact store behind it).
  bool use_cache = true;

  friend bool operator==(const SweepRequest& a, const SweepRequest& b) = default;
};

/// A parsed request line.
struct Request {
  enum class Kind : std::uint8_t { Ping, Sweep, Stats };

  Kind kind = Kind::Ping;
  SweepRequest sweep;  ///< meaningful only when kind == Sweep

  friend bool operator==(const Request& a, const Request& b) = default;
};

/// Cumulative counters of the server's shared cache (pong / done lines).
struct CacheTotals {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;

  friend bool operator==(const CacheTotals& a, const CacheTotals& b) = default;
};

/// What one request took from / added to the shared cache (done lines) —
/// the `ScheduleCacheStats::since` delta, on the wire.
struct RequestCacheUse {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t schedule_builds = 0;

  friend bool operator==(const RequestCacheUse& a, const RequestCacheUse& b) = default;
};

/// Cumulative counters of the server's artifact store (stats lines); all
/// zero on servers running without one.
struct StoreTotals {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t saves = 0;

  friend bool operator==(const StoreTotals& a, const StoreTotals& b) = default;
};

/// One latency histogram summarized for the wire: sample count plus the
/// deterministic bucket-bound percentiles, as integer microseconds (exact
/// round trip — no floats on the wire, like every other arl format).
struct LatencySummary {
  std::uint64_t count = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p99_us = 0;

  friend bool operator==(const LatencySummary& a, const LatencySummary& b) = default;
};

/// Everything a stats response reports about a running server.  Plain
/// values only (the server layer assembles it from its counters and the
/// obs registry; this header stays below server.hpp).
struct ServerStats {
  std::uint64_t uptime_ms = 0;          ///< since the listener bound
  std::uint64_t queued = 0;             ///< requests waiting (live gauge)
  std::uint64_t active = 0;             ///< requests executing (live gauge)
  std::uint64_t sessions = 0;           ///< open client sessions (live gauge)
  std::uint64_t accepted = 0;           ///< requests admitted to the queue
  std::uint64_t completed = 0;          ///< requests that finished cleanly
  std::uint64_t failed = 0;             ///< requests that errored in execution
  std::uint64_t busy_rejections = 0;    ///< requests bounced by backpressure
  std::uint64_t drain_rejections = 0;   ///< requests bounced during drain
  std::uint64_t protocol_errors = 0;    ///< malformed lines answered with error
  CacheTotals cache;                    ///< cumulative shared-cache counters
  StoreTotals store;                    ///< cumulative artifact-store counters
  LatencySummary queue_wait;            ///< obs::Phase::ServeQueueWait
  LatencySummary dispatch;              ///< obs::Phase::ServeDispatch

  friend bool operator==(const ServerStats& a, const ServerStats& b) = default;
};

/// A parsed response line.
struct Response {
  enum class Kind : std::uint8_t { Pong, Error, Busy, Ack, Begin, Done, Stats };

  Kind kind = Kind::Pong;
  std::string message;            ///< Error: human-readable reason (nonempty)
  std::uint64_t queue_limit = 0;  ///< Busy: the queue bound that was hit
  std::uint64_t id = 0;           ///< Ack / Begin / Done: server-side request id
  RequestCacheUse request_cache;  ///< Done: this request's cache delta
  CacheTotals totals;             ///< Done / Pong: cumulative cache counters
  ServerStats stats;              ///< Stats: the full server snapshot

  friend bool operator==(const Response& a, const Response& b) = default;
};

/// Serializes a request in its canonical spelling (no trailing newline).
/// `parse_request(format_request(r)) == r` for every valid request.
[[nodiscard]] std::string format_request(const Request& request);

/// Parses one request line, enforcing the full grammar: canonical workload
/// and protocol spellings, field order, count-presence rule, numeric ranges.
/// Throws ProtoError on any violation.
[[nodiscard]] Request parse_request(std::string_view line);

/// Serializes a response line (no trailing newline).
[[nodiscard]] std::string format_response(const Response& response);

/// Classifies one line of a response stream: a parsed Response for
/// `arl-serve`-tagged lines, nullopt for anything else (a report body line).
/// Throws ProtoError when a serve-tagged line is malformed.
[[nodiscard]] std::optional<Response> match_response(std::string_view line);

/// The one human-readable rendering of a ServerStats snapshot, used by both
/// the daemon's own stderr reporting (startup/drain) and `arl stats` — the
/// two can never disagree on a counter because they print the same struct
/// through the same code.  Every line starts with `prefix` ("arl serve: "
/// for the daemon, "" for the CLI).
void print_stats(std::ostream& out, std::string_view prefix, const ServerStats& stats);

}  // namespace arl::serve
