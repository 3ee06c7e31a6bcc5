/// \file served.cpp
/// The served workload: an in-process serve::SweepServer on a private
/// socket (two pool workers, memory-only shared cache) driven by two
/// closed-loop serve::Client threads, each waiting for its reply before
/// sending the next request, as `arl submit` does.
///
/// The request mix is seeded.  A universe of (shape, seed) keys is drawn
/// from the workload seed, and a request sequence issues every key once,
/// each followed by a re-submission of a recent key, so half the requests
/// get cross-request hits from the process-wide cache.  The universe spans
/// several times the cache's capacity, so when a run wraps around the
/// sequence its fresh keys have been evicted and still miss.  Every key's
/// reference outcomes are built in set-up.
///
/// Set-up is repeated kSetupRepeats times, each followed by an equal slice
/// of the measured region on the server it started, so a slow phase of the
/// shared machine hits set-up and measurement alike.

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "dist/report_io.hpp"
#include "engine/workload.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace arl;

namespace {

struct Shape {
  const char* spec;
  std::vector<core::ProtocolSpec> protocols;
  const char* fault;
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> shapes = {
      {"random:n=64,p=0.1,sigma=64", {core::ProtocolSpec::canonical()}, "none"},
      {"torus:rows=8,cols=8,sigma=3",
       {core::ProtocolSpec::canonical(), core::ProtocolSpec::classify_only()}, "none"},
      // Faulted requests run the scalar simulator loop.
      {"random:n=64,p=0.1,sigma=64", {core::ProtocolSpec::canonical()}, "drop:0.05"},
  };
  return shapes;
}

constexpr std::uint64_t kConfigsPerRequest = 16;
constexpr std::size_t kUniverse = 512;  ///< 1024 sequence positions: ten beyond p99
constexpr std::size_t kTinyUniverse = 16;
constexpr std::uint64_t kChunk = 16;  ///< sequence positions per throughput chunk
constexpr std::uint64_t kRecent = 8;  ///< a re-submission picks one of the last kRecent keys
constexpr unsigned kClients = 2;
constexpr unsigned kPoolWorkers = 2;
constexpr std::size_t kQueueLimit = 8;
constexpr int kSetupRepeats = 10;

/// One distinct request of the universe with its reference outcomes.
struct Key {
  serve::SweepRequest request;
  engine::CountedSweep sweep;
  engine::BatchReport reference;
};

/// A running server with its connected clients, torn down in order.
struct Running {
  Running(const std::string& socket_path, unsigned client_count) {
    serve::ServerOptions options;
    options.socket_path = socket_path;
    options.threads = kPoolWorkers;
    options.queue_limit = kQueueLimit;
    server = std::make_unique<serve::SweepServer>(options);
    thread = std::thread([this] { server->run(); });
    try {
      for (unsigned c = 0; c < client_count; ++c) {
        clients.push_back(std::make_unique<serve::Client>(socket_path));
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Running() { stop(); }
  Running(const Running&) = delete;
  Running& operator=(const Running&) = delete;

  void stop() {
    clients.clear();
    server->request_stop();
    thread.join();
  }

  std::unique_ptr<serve::SweepServer> server;
  std::thread thread;
  std::vector<std::unique_ptr<serve::Client>> clients;
};

/// One completed round trip; times in seconds since the region started.
struct Trip {
  std::uint64_t index = 0;  ///< position in the (repeating) request sequence
  double start_s = 0.0;
  double done_s = 0.0;
  std::uint64_t verified = 0;  ///< jobs of the request that matched the reference
};

/// What one client thread saw.
struct ClientLog {
  std::vector<Trip> trips;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wire_bytes = 0;
  Tracer tracer;
};

class ServedBench {
 public:
  ServedBench(const Args& args, Result& result) : args_(args), result_(result) {
    support::Rng rng(args.seed);
    const std::size_t universe = args.tiny ? kTinyUniverse : kUniverse;
    // Every run of shapes().size() consecutive keys holds each shape once,
    // in a seeded order, so the seed moves the configurations and the order
    // but not the mix, neither over the universe nor over any stretch of it
    // (the cache's contents and a chunk's work stay alike across seeds).
    const std::size_t shape_count = shapes().size();
    std::vector<std::size_t> shape_of(universe);
    for (std::size_t k = 0; k < universe; ++k) {
      shape_of[k] = k % shape_count;
    }
    for (std::size_t block = 0; block < universe; block += shape_count) {
      for (std::size_t k = std::min(universe - block, shape_count); k > 1; --k) {
        std::swap(shape_of[block + k - 1], shape_of[block + rng.below(k)]);
      }
    }
    engine::BatchRunner reference_runner({.threads = 1});
    for (std::size_t k = 0; k < universe; ++k) {
      const Shape& shape = shapes()[shape_of[k]];
      Key key;
      key.request.workload = engine::parse_workload(shape.spec);
      key.request.protocols = shape.protocols;
      key.request.seed = rng.next();
      key.request.fault = fault::parse_fault(shape.fault);
      key.request.count = kConfigsPerRequest;
      key.sweep = key.request.workload.instantiate(key.request.seed, key.request.protocols,
                                                   {kConfigsPerRequest});
      engine::RunOverrides overrides;
      overrides.seed = key.request.seed;
      overrides.fault = key.request.fault;
      key.reference = reference_runner.run_range(0, key.sweep.count, key.sweep.source, overrides);
      if (args.corrupt_reference) {
        corrupt(key.reference);
      }
      keys_.push_back(std::move(key));
    }
    // Each key is issued once and followed by a re-submission of one of the
    // last kRecent keys issued (itself included): half the requests repeat.
    for (std::uint64_t k = 0; k < universe; ++k) {
      if (std::find(shape_of.begin(), shape_of.begin() + k, shape_of[k]) ==
          shape_of.begin() + k) {
        warm_up_.push_back(sequence_.size());  // the first key of its shape
      }
      sequence_.push_back(k);
      sequence_.push_back(k - rng.below(std::min<std::uint64_t>(kRecent, k + 1)));
    }
    chunk_ms_.assign(sequence_.size() / kChunk, kUnseen);
    round_trip_ms_.assign(sequence_.size(), kUnseen);
  }

  /// One set-up, timed into `samples`: server bind and start, client
  /// connects, and one warm-up request of each shape, so that set-up does
  /// the same work whatever the seed.
  std::unique_ptr<Running> set_up(int k, std::vector<double>& samples) {
    const support::Stopwatch watch;
    auto running =
        std::make_unique<Running>(socket_path('s', static_cast<std::size_t>(k)), kClients);
    ClientLog warm;
    for (const std::uint64_t index : warm_up_) {
      submit(*running->clients.front(), index, warm, nullptr, false);
    }
    samples.push_back(watch.seconds());
    result_.correct = result_.correct && warm.failed == 0;
    return running;
  }

  /// One slice of the untraced measured region: both clients continue the
  /// request sequence until `seconds` are up.
  ///
  /// The dispatcher runs one request at a time, so the server's throughput
  /// shows in the spacing of its replies.  The sequence is cut into chunks
  /// of kChunk positions; a chunk's service is the time from the last reply
  /// of the chunk before it (or, first in a slice, from its own first send)
  /// to its own last reply.  Each chunk and each position repeats identical
  /// work on every pass over the sequence, and interference from other
  /// tenants of the shared machine only adds time, so as on the local
  /// workloads each chunk keeps its fastest service and each position its
  /// fastest round trip.  Chunks, not single requests, because the two
  /// clients' replies can land a scheduling delay apart in either order.
  void measure(Running& running, double seconds) {
    struct Chunk {
      std::uint64_t replies = 0;
      double first_send_s = kUnseen;
      double last_reply_s = 0.0;
    };
    std::map<std::uint64_t, Chunk> chunks;  // by index / kChunk
    double slice_s = 0.0;                   // the slice's last reply
    for (const ClientLog& log : drive(running, 0, next_index_, false, seconds)) {
      result_.attempted += log.attempted;
      result_.failed += log.failed;
      for (const Trip& trip : log.trips) {
        Chunk& chunk = chunks[trip.index / kChunk];
        chunk.replies += 1;
        chunk.first_send_s = std::min(chunk.first_send_s, trip.start_s);
        chunk.last_reply_s = std::max(chunk.last_reply_s, trip.done_s);
        const std::size_t position = trip.index % sequence_.size();
        round_trip_ms_[position] =
            std::min(round_trip_ms_[position], (trip.done_s - trip.start_s) * 1e3);
        next_index_ = std::max(next_index_, trip.index + 1);
        verified_ += trip.verified;
        requests_ += 1;
        slice_s = std::max(slice_s, trip.done_s);
      }
    }
    for (const auto& [number, chunk] : chunks) {
      const auto before = chunks.find(number - 1);
      const bool first = before == chunks.end();
      if (chunk.replies != kChunk || (!first && before->second.replies != kChunk)) {
        continue;  // cut by the slice's start or end
      }
      const double from_s = first ? chunk.first_send_s : before->second.last_reply_s;
      double& fastest = chunk_ms_[number % chunk_ms_.size()];
      fastest = std::min(fastest, (chunk.last_reply_s - from_s) * 1e3);
    }
    wall_s_ += slice_s;
  }

  /// The end-to-end metrics of the measured slices: the sequence's jobs over
  /// its chunks' summed fastest services, times the verified share, and
  /// percentiles of the positions' fastest round trips.
  void report() {
    std::vector<double> round_trips;
    for (const double round_trip : round_trip_ms_) {
      if (round_trip != kUnseen) {
        round_trips.push_back(round_trip);
      }
    }
    double sequence_ms = 0.0;
    double jobs = 0.0;
    for (std::size_t c = 0; c < chunk_ms_.size(); ++c) {
      if (chunk_ms_[c] != kUnseen) {
        sequence_ms += chunk_ms_[c];
        for (std::size_t p = c * kChunk; p < (c + 1) * kChunk; ++p) {
          jobs += static_cast<double>(keys_[sequence_[p]].sweep.count);
        }
      }
    }
    const double verified = 1.0 - static_cast<double>(result_.failed) /
                                      static_cast<double>(result_.attempted);
    result_.add("jobs_per_s", verified * jobs / (sequence_ms / 1e3), "1/s");
    result_.add("request_ms_p50", percentile(round_trips, 0.50), "ms");
    result_.add("request_ms_p99", percentile(round_trips, 0.99), "ms");
    result_.note("wall_jobs_per_s", static_cast<double>(verified_) / wall_s_, "1/s");
    result_.note("requests", static_cast<double>(requests_), "count");
  }

  /// Traced passes over the whole request sequence, until time is up.
  void trace() {
    std::vector<LayerPass> passes;
    std::vector<Tracer> tracers;
    const support::Stopwatch region;
    const double jobs = static_cast<double>(sequence_jobs());
    do {
      LayerPass pass;

      // Untraced base: a fresh server runs the sequence once for one
      // client.  One client, so that a round trip holds no wait for another
      // client's request and the overhead below is the service's own.
      double untraced_s = 0.0;
      {
        Running running(socket_path('a', passes.size()), 1);
        const support::Stopwatch watch;
        for (const ClientLog& log : drive(running, sequence_.size(), 0, false, 0.0)) {
          result_.attempted += log.attempted;
          result_.failed += log.failed;
        }
        untraced_s = watch.seconds();
      }

      // Traced: another fresh server and one client, with client-side spans
      // around the round trip and the decode.
      std::vector<double> round_trip(sequence_.size(), 0.0);
      double traced_s = 0.0;
      {
        Running running(socket_path('b', passes.size()), 1);
        const support::Stopwatch watch;
        std::vector<ClientLog> logs = drive(running, sequence_.size(), 0, true, 0.0);
        traced_s = watch.seconds();
        double decode_ms = 0.0;
        double bytes = 0.0;
        for (ClientLog& log : logs) {
          result_.attempted += log.attempted;
          result_.failed += log.failed;
          bytes += static_cast<double>(log.wire_bytes);
          for (const Trip& trip : log.trips) {
            round_trip[trip.index] = (trip.done_s - trip.start_s) * 1e3;
          }
          const std::map<std::string, double> self = log.tracer.self_ms();
          decode_ms += self.count("wire") ? self.at("wire") : 0.0;
          tracers.push_back(std::move(log.tracer));
        }
        const serve::ServerStats stats = running.clients.front()->stats();
        pass["cache.hits"] = static_cast<double>(stats.cache.hits);
        pass["cache.misses"] = static_cast<double>(stats.cache.misses);
        pass["serve.busy_rejections"] = static_cast<double>(stats.busy_rejections);
        pass["wire.decode_ms"] = decode_ms;
        pass["wire.bytes"] = bytes;
      }
      pass["serve.round_trip_ms_p50"] = median(round_trip);
      pass["trace.traced_jobs_per_s"] = jobs / traced_s;
      pass["trace.untraced_jobs_per_s"] = jobs / untraced_s;

      // In-process rerun of every request in sequence order on a runner
      // shaped like the server's: the round trip minus this is the
      // service's own overhead.  Its reports are what the server encodes.
      {
        engine::BatchRunner runner({.threads = kPoolWorkers});
        engine::ScheduleCache cache;
        Tracer encode;
        std::vector<double> overhead;
        for (std::size_t i = 0; i < sequence_.size(); ++i) {
          const Key& key = keys_[sequence_[i]];
          const support::Stopwatch watch;
          engine::BatchReport report = run_in_process(runner, key, &cache);
          overhead.push_back(round_trip[i] - watch.millis());
          std::ostringstream out;
          const Tracer::Scope span(encode, "wire", i);
          dist::write_shard_report(
              dist::make_shard_report(sweep_key(key), {0, key.sweep.count}, std::move(report)),
              out);
        }
        pass["serve.overhead_ms_p50"] = median(overhead);
        pass["wire.encode_ms"] = encode.self_ms()["wire"];
      }

      // One-worker rerun: the batch wall time the layer ledger is set against.
      double batch_ms = 0.0;
      {
        engine::BatchRunner runner({.threads = 1});
        engine::ScheduleCache cache;
        const support::Stopwatch watch;
        for (const std::uint64_t k : sequence_) {
          result_.attempted += keys_[k].reference.jobs.size();
          result_.failed += mismatches(run_in_process(runner, keys_[k], &cache), keys_[k]);
        }
        batch_ms = watch.millis();
      }

      // Traced replay of every job, sequence order, through a memory cache
      // that mirrors the server's.
      Tracer& tracer = tracers.emplace_back();
      LayerCounts counts;
      engine::ScheduleCache mirror;
      std::set<config::Fingerprint> distinct;
      radio::SimulatorScratch scratch;
      for (std::size_t i = 0; i < sequence_.size(); ++i) {
        const Key& key = keys_[sequence_[i]];
        const Tracer::Scope span(tracer, "request", i);
        for (engine::JobId id = 0; id < key.sweep.count; ++id) {
          const engine::JobOutcome outcome = replay_job(key.sweep, id, key.request.seed,
                                                        key.request.fault, {&mirror, nullptr},
                                                        scratch, tracer, counts);
          distinct.insert(outcome.config_fingerprint);
          result_.attempted += 1;
          result_.failed += outcome == key.reference.jobs[id] ? 0 : 1;
        }
      }
      const double layers_ms = add_replay_layers(pass, tracer, counts);
      pass["cache.duplicate_compiles"] =
          pass["cache.misses"] - static_cast<double>(distinct.size());
      pass["batch.self_ms"] = batch_ms - layers_ms;
      passes.push_back(std::move(pass));
    } while (region.seconds() < args_.seconds);

    report_ledger(result_, passes, exact_served_counters());
    if (!args_.spans_out.empty()) {
      std::ofstream out(args_.spans_out);
      for (std::size_t t = 0; t < tracers.size(); ++t) {
        tracers[t].write(out, static_cast<int>(t));
      }
    }
  }

 private:
  /// The socket of server `n` in role `role` (s: set-up, a: untraced, b: traced).
  std::string socket_path(char role, std::size_t n) const {
    std::string path = args_.run_dir;
    path += '/';
    path += role;
    path += std::to_string(n);
    return path + ".sock";
  }

  std::uint64_t sequence_jobs() const {
    std::uint64_t jobs = 0;
    for (const std::uint64_t k : sequence_) {
      jobs += keys_[k].sweep.count;
    }
    return jobs;
  }

  static dist::SweepKey sweep_key(const Key& key) {
    dist::SweepKey sweep_key;
    sweep_key.description = key.request.workload.name();
    sweep_key.digest = key.request.workload.digest();
    sweep_key.seed = key.request.seed;
    sweep_key.total_jobs = key.sweep.count;
    sweep_key.fault = key.request.fault.name();
    for (const core::ProtocolSpec& protocol : key.request.protocols) {
      sweep_key.protocols.push_back(protocol.name());
    }
    return sweep_key;
  }

  static engine::BatchReport run_in_process(engine::BatchRunner& runner, const Key& key,
                                            engine::ScheduleCache* cache) {
    engine::RunOverrides overrides;
    overrides.seed = key.request.seed;
    overrides.fault = key.request.fault;
    overrides.shared_cache = cache;
    return runner.run_range(0, key.sweep.count, key.sweep.source, overrides);
  }

  /// Failed jobs of one response: every mismatching job, or all of them
  /// when only the aggregates disagree.
  static std::uint64_t mismatches(const engine::BatchReport& got, const Key& key) {
    const std::uint64_t jobs = key.reference.jobs.size();
    if (got.jobs.size() != jobs) {
      return jobs;
    }
    const std::uint64_t bad = count_mismatches(got, key.reference);
    return bad == 0 && !engine::same_results(got, key.reference) ? jobs : bad;
  }

  /// One closed-loop request: submit, parse, compare.  A busy or error
  /// response, a transport failure or an unparsable report fails every job
  /// of the request.  Returns false when the connection is unusable.
  bool submit(serve::Client& client, std::uint64_t index, ClientLog& log,
              const support::Stopwatch* region, bool traced) {
    const Key& key = keys_[sequence_[index % sequence_.size()]];
    const std::uint64_t jobs = key.reference.jobs.size();
    log.attempted += jobs;
    std::optional<Tracer::Scope> request_span;
    if (traced) {
      request_span.emplace(log.tracer, "request", index);
    }
    const double start = region != nullptr ? region->seconds() : 0.0;
    serve::SubmitResult response;
    try {
      std::optional<Tracer::Scope> span;
      if (traced) {
        span.emplace(log.tracer, "serve", index);
      }
      response = client.submit(key.request);
    } catch (const serve::ClientError& failure) {
      std::cerr << "perfbench: transport failure: " << failure.what() << "\n";
      log.failed += jobs;
      return false;
    }
    const double done = region != nullptr ? region->seconds() : 0.0;
    std::uint64_t failed = jobs;
    if (response.ok()) {
      log.wire_bytes += response.report.size();
      try {
        std::optional<Tracer::Scope> span;
        if (traced) {
          span.emplace(log.tracer, "wire", index);
        }
        std::istringstream in(response.report);
        const dist::ShardReport shard = dist::read_shard_report(in);
        span.reset();
        failed = mismatches(shard.report, key);
      } catch (const dist::ReportFormatError& failure) {
        std::cerr << "perfbench: unreadable report: " << failure.what() << "\n";
      }
    }
    log.failed += failed;
    log.trips.push_back({index, start, done, jobs - failed});
    return true;
  }

  /// Runs every client of `running` closed-loop from sequence index
  /// `first`: `limit` requests in all, or (limit 0) until `seconds` are up.
  std::vector<ClientLog> drive(Running& running, std::uint64_t limit, std::uint64_t first,
                               bool traced, double seconds) {
    const std::size_t clients = running.clients.size();
    std::vector<ClientLog> logs(clients);
    std::vector<std::exception_ptr> errors(clients);
    std::atomic<std::uint64_t> next{first};
    const support::Stopwatch region;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          for (;;) {
            if (limit == 0 && region.seconds() >= seconds) {
              return;
            }
            const std::uint64_t index = next.fetch_add(1);
            if (limit != 0 && index >= first + limit) {
              return;
            }
            if (!submit(*running.clients[c], index, logs[c], &region, traced)) {
              return;
            }
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (const std::exception_ptr& error : errors) {
      if (error) {
        std::rethrow_exception(error);
      }
    }
    return logs;
  }

  static constexpr double kUnseen = 1e300;

  const Args& args_;
  Result& result_;
  std::vector<Key> keys_;
  std::vector<std::uint64_t> sequence_;  ///< indices into keys_
  std::vector<std::uint64_t> warm_up_;   ///< set-up's requests: one per shape
  // What the measured slices gathered: fastest service per chunk of the
  // sequence and fastest round trip per position.
  std::vector<double> chunk_ms_;
  std::vector<double> round_trip_ms_;
  std::uint64_t next_index_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t verified_ = 0;
  double wall_s_ = 0.0;  ///< summed length of the slices
};

}  // namespace

void run_served(const Args& args, Result& result) {
  ServedBench bench(args, result);
  if (args.trace) {
    bench.trace();
    return;
  }
  std::vector<double> setup_samples;
  for (int k = 0; k < kSetupRepeats; ++k) {
    {
      const std::unique_ptr<Running> running = bench.set_up(k, setup_samples);
      bench.measure(*running, args.seconds / kSetupRepeats);
    }
    release_freed_memory();
  }
  result.add("setup_s", median(setup_samples), "s");
  bench.report();
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
