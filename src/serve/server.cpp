#include "serve/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <list>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dist/report_io.hpp"
#include "engine/batch_runner.hpp"
#include "obs/metrics.hpp"
#include "serve/serve_proto.hpp"
#include "support/line_io.hpp"

#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace arl::serve {

namespace {

/// What the dispatcher hands back for one executed job.
struct JobResult {
  std::string report;             ///< serialized shard report ("" on failure)
  RequestCacheUse request_cache;  ///< this request's shared-cache delta
  CacheTotals totals;             ///< cumulative shared-cache counters after
  std::string error;              ///< nonempty exactly when execution failed
};

/// One acknowledged sweep request, shared between the session that owns the
/// socket and the dispatcher that executes it.  The promises sequence the
/// response stream: `started` releases the `begin` line, `finished` the
/// report (or error) — the session remains the only writer throughout.
struct PendingJob {
  std::uint64_t id = 0;
  SweepRequest request;
  /// When the job entered the queue; the dispatcher turns this into the
  /// ServeQueueWait sample the moment it pops the job.
  std::chrono::steady_clock::time_point enqueued{};
  std::promise<void> started;
  std::future<void> started_future = started.get_future();
  std::promise<JobResult> finished;
  std::future<JobResult> finished_future = finished.get_future();
};

/// Elapsed nanoseconds between two steady_clock stamps.
std::uint64_t elapsed_nanos(std::chrono::steady_clock::time_point from,
                            std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Summarizes a nanosecond histogram as the wire's microsecond integers.
LatencySummary summarize_us(const obs::HistogramSnapshot& snap) {
  LatencySummary summary;
  summary.count = snap.count();
  summary.p50_us = snap.percentile(0.50) / 1000;
  summary.p90_us = snap.percentile(0.90) / 1000;
  summary.p99_us = snap.percentile(0.99) / 1000;
  return summary;
}

/// Writes all of `bytes`, tolerating short sends and EINTR.  False when the
/// peer is gone or SO_SNDTIMEO expired — the caller abandons the session.
bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t sent = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

bool send_line(int fd, const std::string& line) { return send_all(fd, line + "\n"); }

Response error_response(std::string message) {
  Response response;
  response.kind = Response::Kind::Error;
  response.message = std::move(message);
  return response;
}

}  // namespace

struct SweepServer::Impl {
  ServerOptions options;
  engine::BatchRunner runner;
  // The process-wide schedule cache (with the artifact store as its disk
  // tier when a store directory was given); null when cache_capacity == 0.
  std::unique_ptr<engine::ScheduleCache> cache;

  int listen_fd = -1;
  int stop_rd = -1;
  int stop_wr = -1;
  bool ran = false;

  /// When the listener bound (construction), for the uptime gauge.
  const std::chrono::steady_clock::time_point start_time = std::chrono::steady_clock::now();

  // Serve-side latency histograms, owned per server so stats from two
  // in-process servers (the test fixtures run several) never mix.  Samples
  // are mirrored into the process-wide obs registry under the matching
  // phases, keeping the one-registry-instruments-everything story true.
  obs::LatencyHistogram queue_wait_hist;
  obs::LatencyHistogram dispatch_hist;

  // Job queue and counters, guarded by one mutex (the counters change on
  // the same events the queue does).
  mutable std::mutex mutex;
  std::condition_variable work_cv;
  std::deque<std::shared_ptr<PendingJob>> queue;
  bool draining = false;
  bool dispatcher_stop = false;
  std::uint64_t next_id = 1;
  ServerCounters counters;

  // Session bookkeeping.  std::list: nodes are stable, so session threads
  // may hold pointers to their own entry while the accept loop reaps others.
  struct Session {
    std::thread thread;
    int fd = -1;
    bool open = true;                ///< guarded by sessions_mutex (drain shuts open fds down)
    std::atomic<bool> finished{false};
  };
  std::mutex sessions_mutex;
  std::list<Session> sessions;

  /// Decides whether the already-occupied socket path is a *stale* socket —
  /// the leftover of a crashed daemon — and unlinks it if so.  Returns true
  /// exactly when the path was removed and a rebind is worth one retry.
  /// Probe before unlink: a path that is not a socket is never touched, and
  /// a socket some process still serves (the probe connect() succeeds)
  /// belongs to that process.  Only ECONNREFUSED — a socket inode nobody
  /// listens on — marks the path dead.
  [[nodiscard]] bool reclaim_stale_socket() const {
    struct ::stat info {};
    if (::lstat(options.socket_path.c_str(), &info) != 0 || !S_ISSOCK(info.st_mode)) {
      return false;
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe < 0) {
      return false;
    }
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, options.socket_path.c_str(), options.socket_path.size() + 1);
    const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&address), sizeof(address));
    const bool stale = rc != 0 && errno == ECONNREFUSED;
    ::close(probe);
    if (!stale) {
      return false;
    }
    return ::unlink(options.socket_path.c_str()) == 0;
  }

  [[nodiscard]] static engine::BatchOptions runner_options(const ServerOptions& opts) {
    engine::BatchOptions batch;
    batch.threads = opts.threads;
    return batch;
  }

  explicit Impl(ServerOptions opts)
      : options(std::move(opts)), runner(runner_options(options)) {
    if (options.socket_path.empty()) {
      throw ServeError("serve: socket path must not be empty");
    }
    if (options.queue_limit == 0) {
      throw ServeError("serve: queue limit must be >= 1");
    }
    sockaddr_un address{};
    if (options.socket_path.size() >= sizeof(address.sun_path)) {
      throw ServeError("serve: socket path exceeds the " +
                       std::to_string(sizeof(address.sun_path) - 1) + "-byte sockaddr_un bound");
    }
    if (!options.store_directory.empty() && options.cache_capacity == 0) {
      throw ServeError("serve: the artifact store needs the cache enabled (cache_capacity >= 1)");
    }
    if (options.cache_capacity > 0) {
      cache = std::make_unique<engine::ScheduleCache>(options.cache_capacity,
                                                      options.store_directory);
    }

    listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) {
      throw ServeError(std::string("serve: socket() failed: ") + std::strerror(errno));
    }
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, options.socket_path.c_str(), options.socket_path.size() + 1);
    int rc = ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address));
    int saved = errno;
    if (rc != 0 && saved == EADDRINUSE && reclaim_stale_socket()) {
      // A crashed daemon left a dead socket (the probe connect() got
      // ECONNREFUSED); it has been unlinked — rebind once.
      rc = ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address));
      saved = errno;
    }
    if (rc != 0) {
      ::close(listen_fd);
      listen_fd = -1;
      if (saved == EADDRINUSE) {
        throw ServeError("serve: socket path '" + options.socket_path +
                         "' is in use (a live server, or a non-socket file this server "
                         "refuses to remove)");
      }
      throw ServeError("serve: bind('" + options.socket_path +
                       "') failed: " + std::strerror(saved));
    }
    // The socket carries submissions from this user only; don't inherit a
    // permissive umask.  chmod-by-path, not fchmod: POSIX leaves fchmod on
    // a socket fd unspecified, while the bound path is a normal inode.
    if (::chmod(options.socket_path.c_str(), S_IRUSR | S_IWUSR) != 0) {
      const int saved = errno;
      cleanup_listener();
      throw ServeError(std::string("serve: chmod(0600) on the socket failed: ") +
                       std::strerror(saved));
    }
    if (::listen(listen_fd, 64) != 0) {
      const int saved = errno;
      cleanup_listener();
      throw ServeError(std::string("serve: listen() failed: ") + std::strerror(saved));
    }
    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0) {
      const int saved = errno;
      cleanup_listener();
      throw ServeError(std::string("serve: pipe() failed: ") + std::strerror(saved));
    }
    stop_rd = pipe_fds[0];
    stop_wr = pipe_fds[1];
    ::fcntl(stop_rd, F_SETFD, FD_CLOEXEC);
    ::fcntl(stop_wr, F_SETFD, FD_CLOEXEC);
  }

  ~Impl() {
    cleanup_listener();
    if (stop_rd >= 0) {
      ::close(stop_rd);
    }
    if (stop_wr >= 0) {
      ::close(stop_wr);
    }
  }

  void cleanup_listener() {
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
      ::unlink(options.socket_path.c_str());
    }
  }

  CacheTotals totals_snapshot() const {
    if (!cache) {
      return {};
    }
    const engine::ScheduleCacheStats stats = cache->stats();
    return {stats.hits, stats.misses, stats.entries};
  }

  /// Cumulative counters of the cache's disk tier (zero without a store).
  store::ArtifactStoreStats store_totals() const {
    const store::ArtifactStore* artifacts = cache ? cache->artifacts() : nullptr;
    return artifacts != nullptr ? artifacts->stats() : store::ArtifactStoreStats{};
  }

  /// The full ServerStats snapshot a `stats` request answers with (also what
  /// the daemon's startup/drain reporting renders via print_stats).
  ServerStats stats_snapshot() const {
    ServerStats stats;
    stats.uptime_ms =
        elapsed_nanos(start_time, std::chrono::steady_clock::now()) / 1'000'000;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      stats.queued = counters.queued;
      stats.active = counters.active;
      stats.sessions = counters.sessions;
      stats.accepted = counters.accepted;
      stats.completed = counters.completed;
      stats.failed = counters.failed;
      stats.busy_rejections = counters.busy_rejections;
      stats.drain_rejections = counters.drain_rejections;
      stats.protocol_errors = counters.protocol_errors;
    }
    stats.cache = totals_snapshot();
    const store::ArtifactStoreStats store = store_totals();
    stats.store = {store.hits, store.misses, store.saves};
    stats.queue_wait = summarize_us(queue_wait_hist.snapshot());
    stats.dispatch = summarize_us(dispatch_hist.snapshot());
    return stats;
  }

  /// Executes one sweep request on the shared runner.  Never throws: any
  /// failure (out-of-range workload parameters and the like) becomes the
  /// request's error line.
  JobResult execute(const SweepRequest& request) {
    JobResult result;
    try {
      engine::InstantiateOptions instantiate;
      if (request.count) {
        instantiate.count = static_cast<std::size_t>(*request.count);
      }
      const engine::CountedSweep sweep =
          request.workload.instantiate(request.seed, request.protocols, instantiate);
      dist::JobRange range{0, sweep.count};
      if (request.shard) {
        range = dist::shard_range(sweep.count, *request.shard);
      }

      engine::RunOverrides overrides;
      overrides.seed = request.seed;
      overrides.fault = request.fault;
      if (request.threads) {
        overrides.max_threads = static_cast<std::size_t>(*request.threads);
      }
      engine::ScheduleCache* const shared = request.use_cache ? cache.get() : nullptr;
      overrides.shared_cache = shared;

      // The dispatcher serializes requests, so nothing else touches the
      // shared cache between these snapshots: the delta is exact (a disk
      // hit counts as a memory miss, like a compile).
      engine::ScheduleCacheStats before;
      if (shared != nullptr) {
        before = shared->stats();
      }
      engine::BatchReport report = runner.run_range(range.begin, range.end, sweep.source,
                                                    overrides);
      if (shared != nullptr) {
        const engine::ScheduleCacheStats delta = shared->stats().since(before);
        report.cache = delta;
        result.request_cache = {delta.hits, delta.misses, delta.schedule_builds};
      }

      std::ostringstream out;
      dist::write_shard_report(
          dist::make_shard_report(dist::make_sweep_key(request.workload, sweep.count,
                                                       request.protocols, request.seed,
                                                       request.fault),
                                  range, std::move(report)),
          out);
      result.report = out.str();
    } catch (const std::exception& failure) {
      result.report.clear();
      result.error = failure.what();
    }
    result.totals = totals_snapshot();
    return result;
  }

  void dispatch_loop() {
    for (;;) {
      std::shared_ptr<PendingJob> job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [this] { return dispatcher_stop || !queue.empty(); });
        if (queue.empty()) {
          return;  // dispatcher_stop and nothing left: fully drained
        }
        job = queue.front();
        queue.pop_front();
        counters.queued = queue.size();
        counters.active = 1;
      }
      const auto picked_up = std::chrono::steady_clock::now();
      const std::uint64_t wait_nanos = elapsed_nanos(job->enqueued, picked_up);
      queue_wait_hist.record(wait_nanos);
      obs::Registry::global().record(obs::Phase::ServeQueueWait, wait_nanos);
      job->started.set_value();
      JobResult result = execute(job->request);
      const std::uint64_t dispatch_nanos =
          elapsed_nanos(picked_up, std::chrono::steady_clock::now());
      dispatch_hist.record(dispatch_nanos);
      obs::Registry::global().record(obs::Phase::ServeDispatch, dispatch_nanos);
      {
        const std::lock_guard<std::mutex> lock(mutex);
        counters.active = 0;
        if (result.error.empty()) {
          counters.completed += 1;
        } else {
          counters.failed += 1;
        }
      }
      job->finished.set_value(std::move(result));
    }
  }

  /// Handles one framed request line.  Returns false when the session's
  /// socket failed (the session then closes); a *protocol* failure returns
  /// true after answering with an error line.
  bool handle_line(int fd, const std::string& line) {
    Request request;
    try {
      request = parse_request(line);
    } catch (const ProtoError& violation) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        counters.protocol_errors += 1;
      }
      return send_line(fd, format_response(error_response(violation.what())));
    }

    if (request.kind == Request::Kind::Ping) {
      Response pong;
      pong.kind = Response::Kind::Pong;
      pong.totals = totals_snapshot();
      return send_line(fd, format_response(pong));
    }

    if (request.kind == Request::Kind::Stats) {
      Response stats;
      stats.kind = Response::Kind::Stats;
      stats.stats = stats_snapshot();
      return send_line(fd, format_response(stats));
    }

    std::shared_ptr<PendingJob> job;
    Response refusal;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (draining) {
        counters.drain_rejections += 1;
        refusal = error_response("server is draining; submit again after it restarts");
      } else if (queue.size() >= options.queue_limit) {
        counters.busy_rejections += 1;
        refusal.kind = Response::Kind::Busy;
        refusal.queue_limit = options.queue_limit;
      } else {
        job = std::make_shared<PendingJob>();
        job->id = next_id;
        next_id += 1;
        job->request = request.sweep;
        job->enqueued = std::chrono::steady_clock::now();
        queue.push_back(job);
        counters.accepted += 1;
        counters.queued = queue.size();
      }
    }
    if (!job) {
      return send_line(fd, format_response(refusal));
    }
    work_cv.notify_one();

    Response ack;
    ack.kind = Response::Kind::Ack;
    ack.id = job->id;
    // A send failure past this point abandons the session but never the
    // job: it already holds a queue slot and the dispatcher will run it
    // (fulfilling promises nobody reads is harmless).
    if (!send_line(fd, format_response(ack))) {
      return false;
    }

    job->started_future.wait();
    Response begin;
    begin.kind = Response::Kind::Begin;
    begin.id = job->id;
    if (!send_line(fd, format_response(begin))) {
      return false;
    }

    const JobResult result = job->finished_future.get();
    if (!result.error.empty()) {
      return send_line(fd, format_response(error_response(result.error)));
    }
    if (!send_all(fd, result.report)) {
      return false;
    }
    Response done;
    done.kind = Response::Kind::Done;
    done.id = job->id;
    done.request_cache = result.request_cache;
    done.totals = result.totals;
    return send_line(fd, format_response(done));
  }

  void session_loop(Session* session) {
    const int fd = session->fd;
    support::LineFramer framer(kMaxRequestLineBytes);
    char buffer[4096];
    bool alive = true;
    try {
      while (alive) {
        while (alive) {
          const std::optional<std::string> line = framer.pop();
          if (!line) {
            break;
          }
          alive = handle_line(fd, *line);
        }
        if (!alive) {
          break;
        }
        const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
        if (got == 0) {
          break;  // orderly close (or drain's SHUT_RD)
        }
        if (got < 0) {
          if (errno == EINTR) {
            continue;
          }
          break;
        }
        framer.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
      }
    } catch (const support::LineTooLong& violation) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        counters.protocol_errors += 1;
      }
      send_line(fd, format_response(error_response(violation.what())));
    }
    {
      // Mark closed under the lock so drain never shuts down a dead fd.
      const std::lock_guard<std::mutex> lock(sessions_mutex);
      session->open = false;
    }
    ::close(fd);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      counters.sessions -= 1;
    }
    session->finished.store(true);
  }

  void spawn_session(int fd) {
    const timeval timeout{static_cast<time_t>(options.send_timeout_seconds), 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    Session* session = nullptr;
    {
      const std::lock_guard<std::mutex> lock(sessions_mutex);
      sessions.emplace_back();
      session = &sessions.back();
      session->fd = fd;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      counters.sessions += 1;
    }
    session->thread = std::thread([this, session] { session_loop(session); });
  }

  void reap_finished_sessions() {
    const std::lock_guard<std::mutex> lock(sessions_mutex);
    for (auto it = sessions.begin(); it != sessions.end();) {
      if (it->finished.load()) {
        it->thread.join();
        it = sessions.erase(it);
      } else {
        ++it;
      }
    }
  }

  void run() {
    std::thread dispatcher([this] { dispatch_loop(); });
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {stop_rd, POLLIN, 0}};
      const int ready = ::poll(fds, 2, 200);
      if (ready < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;
      }
      reap_finished_sessions();
      if ((fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        break;  // stop requested
      }
      if ((fds[0].revents & POLLIN) != 0) {
        const int client = ::accept(listen_fd, nullptr, nullptr);
        if (client >= 0) {
          spawn_session(client);
        }
      }
    }

    // Drain: no new connections or submissions, but everything acknowledged
    // completes and streams back before run() returns.
    {
      const std::lock_guard<std::mutex> lock(mutex);
      draining = true;
    }
    cleanup_listener();
    {
      // Wake sessions blocked in recv(); their write side stays open so
      // in-flight responses still reach the client.
      const std::lock_guard<std::mutex> lock(sessions_mutex);
      for (Session& session : sessions) {
        if (session.open) {
          ::shutdown(session.fd, SHUT_RD);
        }
      }
    }
    // The accept loop is gone, so nothing appends to `sessions`; joining
    // without the lock is safe (session threads touch only their own node).
    for (Session& session : sessions) {
      if (session.thread.joinable()) {
        session.thread.join();
      }
    }
    sessions.clear();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      dispatcher_stop = true;
      counters.sessions = 0;
    }
    work_cv.notify_all();
    dispatcher.join();
  }
};

SweepServer::SweepServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SweepServer::~SweepServer() = default;

void SweepServer::run() {
  if (impl_->ran) {
    throw ServeError("serve: run() may be called at most once");
  }
  impl_->ran = true;
  impl_->run();
}

void SweepServer::request_stop() {
  const char byte = 's';
  // Async-signal-safe: one write, no locks, no allocation.
  [[maybe_unused]] const ssize_t rc = ::write(impl_->stop_wr, &byte, 1);
}

int SweepServer::stop_fd() const { return impl_->stop_wr; }

ServerCounters SweepServer::counters() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->counters;
}

engine::ScheduleCacheStats SweepServer::cache_stats() const {
  return impl_->cache ? impl_->cache->stats() : engine::ScheduleCacheStats{};
}

store::ArtifactStoreStats SweepServer::store_stats() const { return impl_->store_totals(); }

ServerStats SweepServer::stats() const { return impl_->stats_snapshot(); }

const ServerOptions& SweepServer::options() const { return impl_->options; }

}  // namespace arl::serve
