#pragma once

/// \file server.hpp
/// The sweep service: a Unix-domain-socket daemon that executes sweep
/// requests through ONE shared `engine::BatchRunner` and streams shard
/// reports back.
///
/// Architecture (one process, three thread roles):
///
///  - The *accept loop* (`run()`) polls the listening socket and a stop
///    pipe; each accepted connection gets a session thread.
///  - A *session thread* per client frames request lines
///    (`support::LineFramer`), parses them (`serve_proto.hpp`), enqueues
///    sweep jobs and is the sole writer of its socket — responses for one
///    request stream back in order with no interleaving to referee.
///  - The single *dispatcher thread* pops jobs off a bounded queue and runs
///    them one at a time on the shared `BatchRunner` (its pool parallelizes
///    *within* a request; requests never compete for workers).  One
///    process-wide `engine::ScheduleCache` spans requests, so a client
///    re-submitting a workload hits schedules a previous request compiled —
///    and because the dispatcher serializes batches, snapshot deltas
///    (`ScheduleCacheStats::since`) attribute hits/misses to requests
///    exactly.
///
/// Backpressure: when `queue_limit` jobs are already waiting, new sweep
/// requests get a `busy` line immediately instead of queueing without bound.
///
/// Drain: `request_stop()` (async-signal-safe: one byte down a pipe) stops
/// the accept loop, unlinks the socket, shuts down the read side of every
/// session (no new requests), lets the dispatcher finish every job already
/// acknowledged — their reports still stream back — then joins everything.
/// `run()` returns only when the drain is complete.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "engine/schedule_cache.hpp"
#include "serve/serve_proto.hpp"
#include "store/artifact_store.hpp"

namespace arl::serve {

/// Thrown when the service cannot start (bad options, socket errors).
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(const std::string& what) : std::runtime_error(what) {}
};

/// Configuration of a SweepServer.
struct ServerOptions {
  /// Filesystem path of the Unix-domain socket.  A *live* socket (one a
  /// connect() reaches) is refused; a stale one — left behind by a crashed
  /// daemon, detectable because connecting yields ECONNREFUSED — is
  /// unlinked and the path rebound.  A path occupied by a non-socket is
  /// always refused, and never unlinked.
  std::string socket_path;

  /// BatchRunner worker threads; 0 means hardware concurrency.
  unsigned threads = 0;

  /// Capacity of the process-wide schedule cache shared across requests;
  /// 0 disables caching entirely (requests run uncached).
  std::size_t cache_capacity = engine::ScheduleCache::kDefaultCapacity;

  /// Directory of the on-disk artifact store behind the shared cache (its
  /// disk tier, see engine/schedule_cache.hpp); empty runs memory-only.
  /// With a store, the daemon's warm cache survives restarts: compiles
  /// persist as they happen, and a fresh process preloads them on first
  /// touch.  Every request that uses the shared cache uses its disk tier.
  /// Requires cache_capacity > 0.
  std::string store_directory = {};

  /// Sweep jobs allowed to *wait* (beyond the one executing); further
  /// submissions are answered with `busy`.  Must be >= 1.
  std::size_t queue_limit = 8;

  /// Per-send bound on a client that stops reading its response stream;
  /// a timed-out send drops that session, never the server.
  unsigned send_timeout_seconds = 60;
};

/// Monotonic counters plus gauges of a running server — the deterministic
/// observables the tests assert on (queued/active make backpressure and
/// drain states checkable without races).
struct ServerCounters {
  std::uint64_t accepted = 0;         ///< sweep requests acknowledged (queued)
  std::uint64_t completed = 0;        ///< sweep requests whose report streamed
  std::uint64_t failed = 0;           ///< sweep requests whose execution threw
  std::uint64_t busy_rejections = 0;  ///< submissions refused by the queue bound
  std::uint64_t drain_rejections = 0; ///< submissions refused while draining
  std::uint64_t protocol_errors = 0;  ///< malformed request lines answered with error
  std::uint64_t queued = 0;           ///< gauge: jobs waiting now
  std::uint64_t active = 0;           ///< gauge: 0 or 1 job executing now
  std::uint64_t sessions = 0;         ///< gauge: live client connections

  friend bool operator==(const ServerCounters& a, const ServerCounters& b) = default;
};

/// The sweep service.  Construction binds and listens (so a client may
/// connect the moment the constructor returns, even before run()); run()
/// serves until a stop is requested and returns fully drained.
class SweepServer {
 public:
  /// Binds `options.socket_path` and listens.  Throws ServeError on invalid
  /// options, an already-existing path, any socket failure, or when the
  /// platform has no Unix-domain sockets.
  explicit SweepServer(ServerOptions options);
  ~SweepServer();

  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// Serves until request_stop(), then drains (finishes every acknowledged
  /// job, streams its response, joins all threads) and returns.  Call at
  /// most once.
  void run();

  /// Requests a graceful stop.  Async-signal-safe (writes one byte to an
  /// internal pipe); callable from any thread or a signal handler.
  void request_stop();

  /// The write end of the stop pipe, for signal handlers that outlive this
  /// object's methods (write one byte == request_stop()).
  [[nodiscard]] int stop_fd() const;

  /// Snapshot of the counters.
  [[nodiscard]] ServerCounters counters() const;

  /// Cumulative counters of the shared schedule cache (all zero when
  /// caching is disabled).
  [[nodiscard]] engine::ScheduleCacheStats cache_stats() const;

  /// Cumulative counters of the shared cache's disk tier (all zero when the
  /// server runs without a store directory).
  [[nodiscard]] store::ArtifactStoreStats store_stats() const;

  /// The full observable state of the server — what a `stats` request
  /// returns on the wire and what the daemon's own startup/drain reporting
  /// prints (through serve::print_stats, so the two can never disagree):
  /// uptime, live gauges, lifecycle counters, cache/store totals, and the
  /// queue-wait / dispatch latency histograms summarized in microseconds.
  [[nodiscard]] ServerStats stats() const;

  [[nodiscard]] const ServerOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace arl::serve
