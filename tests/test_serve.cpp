/// \file test_serve.cpp
/// The sweep service: protocol round trips and strictness (serve_proto),
/// then live server behaviour over a real Unix socket — submissions
/// bit-identical to local runs, shared-cache hit accounting across
/// requests, backpressure, malformed-request rejection, graceful drain.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/merge.hpp"
#include "dist/report_io.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/serve_proto.hpp"
#include "serve/server.hpp"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace {

using namespace arl;

// ------------------------------------------------------ protocol round trip

serve::SweepRequest small_sweep_request() {
  serve::SweepRequest request;
  request.workload = engine::parse_workload("random:n=8,p=0.3,sigma=3");
  request.protocols = {core::ProtocolSpec::canonical(), core::ProtocolSpec::classify_only()};
  request.seed = 7;
  request.count = 6;
  return request;
}

TEST(ServeProto, PingRoundTrips) {
  serve::Request request;
  request.kind = serve::Request::Kind::Ping;
  const std::string line = serve::format_request(request);
  EXPECT_EQ(line, "arl-serve 1 ping");
  EXPECT_EQ(serve::parse_request(line), request);
}

TEST(ServeProto, MinimalSweepRoundTrips) {
  serve::Request request;
  request.kind = serve::Request::Kind::Sweep;
  request.sweep = small_sweep_request();
  const std::string line = serve::format_request(request);
  EXPECT_EQ(line,
            "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 "
            "protocols=canonical,classify seed=7 count=6");
  EXPECT_EQ(serve::parse_request(line), request);
}

TEST(ServeProto, FullyOptionedSweepRoundTrips) {
  serve::Request request;
  request.kind = serve::Request::Kind::Sweep;
  request.sweep = small_sweep_request();
  request.sweep.shard = dist::ShardSpec{1, 3};
  request.sweep.threads = 2;
  request.sweep.use_cache = false;
  const std::string line = serve::format_request(request);
  EXPECT_EQ(serve::parse_request(line), request);
  // Canonical spelling: every optional field in its fixed position.
  EXPECT_NE(line.find("count=6 shard=1/3 threads=2 cache=off"), std::string::npos);
}

TEST(ServeProto, FaultedSweepRoundTrips) {
  serve::Request request;
  request.kind = serve::Request::Kind::Sweep;
  request.sweep = small_sweep_request();
  request.sweep.fault = fault::FaultSpec::drop(0.1);
  const std::string line = serve::format_request(request);
  // Canonical spelling in its fixed position: after seed, before count.
  EXPECT_NE(line.find("seed=7 fault=drop:0.1 count=6"), std::string::npos);
  EXPECT_EQ(serve::parse_request(line), request);

  // Every registered active fault travels verbatim.
  for (const fault::FaultSpec& spec : fault::registered_faults()) {
    if (!spec.active()) {
      continue;
    }
    request.sweep.fault = spec;
    EXPECT_EQ(serve::parse_request(serve::format_request(request)), request) << spec.name();
  }

  // The inactive default is spelled by omitting the field entirely.
  request.sweep.fault = fault::FaultSpec::none();
  EXPECT_EQ(serve::format_request(request).find("fault="), std::string::npos);
}

TEST(ServeProto, RejectsMalformedFaultFields) {
  const std::string prefix =
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 ";
  const std::vector<std::string> bad = {
      // Explicit inactive spellings (canonical absence is the only spelling).
      prefix + "fault=none count=5",
      prefix + "fault=drop:0 count=5",
      // Unknown, empty and malformed specs.
      prefix + "fault=bogus count=5",
      prefix + "fault= count=5",
      prefix + "fault=drop: count=5",
      prefix + "fault=drop:2 count=5",
      // Non-canonical spelling of a valid spec.
      prefix + "fault=drop:0.10 count=5",
      prefix + "fault=crash:1,64 count=5",
      // Out of position (before seed / after count) and duplicated.
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical "
      "fault=drop:0.1 seed=1 count=5",
      prefix + "count=5 fault=drop:0.1",
      prefix + "fault=drop:0.1 fault=drop:0.1 count=5",
  };
  for (const std::string& line : bad) {
    EXPECT_THROW((void)serve::parse_request(line), serve::ProtoError) << "accepted: " << line;
  }
}

TEST(ServeProto, BoundedWorkloadCarriesNoCount) {
  serve::Request request;
  request.kind = serve::Request::Kind::Sweep;
  request.sweep.workload = engine::parse_workload("exhaustive:n=3,tau=1");
  request.sweep.protocols = {core::ProtocolSpec::canonical()};
  request.sweep.seed = 1;
  request.sweep.count = std::nullopt;  // bounded: the workload counts itself
  const std::string line = serve::format_request(request);
  EXPECT_EQ(line.find("count="), std::string::npos);
  EXPECT_EQ(serve::parse_request(line), request);
}

TEST(ServeProto, RejectsMalformedRequests) {
  const std::vector<std::string> bad = {
      "",                                                             // empty
      "arl-serve 1",                                                  // no request
      "arl-serve 2 ping",                                             // unknown version
      "arl-serve one ping",                                           // non-numeric version
      "arl-serve 1 ping extra",                                       // trailing garbage
      "arl-serve 1 reboot",                                           // unknown request
      "arl-serve 1  ping",                                            // doubled space
      "arl-serve 1 sweep",                                            // missing fields
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3",          // no protocols
      "arl-serve 1 sweep workload=bogus protocols=canonical seed=1",  // unknown workload
      // Non-canonical workload spelling (registry default spelled by hand).
      "arl-serve 1 sweep workload=random protocols=canonical seed=1 count=5",
      // Non-canonical protocol spelling.
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=randomized:2048 "
      "seed=1 count=5",
      // Unbounded workload without a count.
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1",
      // Bounded workload with a count.
      "arl-serve 1 sweep workload=exhaustive:n=3,tau=1 protocols=canonical seed=1 count=5",
      // Zero count / zero threads / retired engine and store fields / bad
      // shard / bad cache.
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=0",
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "threads=0",
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "engine=auto",
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "engine=scalar",
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "engine=wavefront",
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "store=off",
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "cache=off store=off",
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "shard=3/3",
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "cache=on",
      // Out-of-order fields (seed before protocols).
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 seed=1 protocols=canonical count=5",
      // Duplicate field.
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 seed=2 "
      "count=5",
      // Empty protocol entry.
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical, seed=1 count=5",
  };
  for (const std::string& line : bad) {
    EXPECT_THROW((void)serve::parse_request(line), serve::ProtoError) << "accepted: " << line;
  }
}

TEST(ServeProto, ResponsesRoundTrip) {
  std::vector<serve::Response> responses;
  serve::Response pong;
  pong.kind = serve::Response::Kind::Pong;
  pong.totals = {10, 4, 3};
  responses.push_back(pong);
  serve::Response error;
  error.kind = serve::Response::Kind::Error;
  error.message = "bad workload: unknown kind 'bogus'";  // spaces survive
  responses.push_back(error);
  serve::Response busy;
  busy.kind = serve::Response::Kind::Busy;
  busy.queue_limit = 8;
  responses.push_back(busy);
  serve::Response ack;
  ack.kind = serve::Response::Kind::Ack;
  ack.id = 42;
  responses.push_back(ack);
  serve::Response begin = ack;
  begin.kind = serve::Response::Kind::Begin;
  responses.push_back(begin);
  serve::Response done;
  done.kind = serve::Response::Kind::Done;
  done.id = 42;
  done.request_cache = {5, 2, 2};
  done.totals = {15, 6, 6};
  responses.push_back(done);
  for (const serve::Response& response : responses) {
    const std::string line = serve::format_response(response);
    const auto matched = serve::match_response(line);
    ASSERT_TRUE(matched.has_value()) << line;
    EXPECT_EQ(*matched, response) << line;
  }
}

TEST(ServeProto, ReportBodyLinesAreNotResponses) {
  EXPECT_EQ(serve::match_response("arl-shard-report 1"), std::nullopt);
  EXPECT_EQ(serve::match_response("job 0 canonical elected 8 3 1 1 1 4 2 10 11 90 ab 1 2 3 4 5"),
            std::nullopt);
  EXPECT_EQ(serve::match_response("end 12 c47fd3adaa7ba95e"), std::nullopt);
}

TEST(ServeProto, MalformedResponsesThrow) {
  EXPECT_THROW((void)serve::match_response("arl-serve 1 pong 1 2"), serve::ProtoError);
  EXPECT_THROW((void)serve::match_response("arl-serve 1 done 1 2 3"), serve::ProtoError);
  EXPECT_THROW((void)serve::match_response("arl-serve 1 error "), serve::ProtoError);
  EXPECT_THROW((void)serve::match_response("arl-serve 2 pong 1 2 3"), serve::ProtoError);
  EXPECT_THROW((void)serve::match_response("arl-serve 1 nonsense"), serve::ProtoError);
}

// ------------------------------------------------------------- live servers

/// A private temp directory holding the test's socket, removed on teardown.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char pattern[] = "/tmp/arl-serve-test-XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    dir_ = pattern;
    socket_path_ = dir_ + "/arl.sock";
  }

  void TearDown() override {
    ::unlink(socket_path_.c_str());
    ::rmdir(dir_.c_str());
  }

  /// Starts run() on a thread and returns it; callers stop via
  /// server.request_stop() and join.
  static std::thread serve_on_thread(serve::SweepServer& server) {
    return std::thread([&server] { server.run(); });
  }

  std::string dir_;
  std::string socket_path_;
};

TEST_F(ServeTest, PingAndGracefulStop) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  serve::SweepServer server(options);
  std::thread runner = serve_on_thread(server);

  serve::Client client(socket_path_);
  const serve::Response pong = client.ping();
  EXPECT_EQ(pong.kind, serve::Response::Kind::Pong);
  EXPECT_EQ(pong.totals, (serve::CacheTotals{0, 0, 0}));

  server.request_stop();
  runner.join();
  // The drain unlinked the socket; new connections must fail.
  struct stat info {};
  EXPECT_NE(::stat(socket_path_.c_str(), &info), 0);
  EXPECT_THROW(serve::Client{socket_path_}, serve::ClientError);
}

TEST_F(ServeTest, RefusesAnAlreadyBoundPath) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  serve::SweepServer first(options);
  EXPECT_THROW(serve::SweepServer{options}, serve::ServeError);
}

TEST_F(ServeTest, SubmissionIsBitIdenticalToALocalRun) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  serve::SweepServer server(options);
  std::thread runner = serve_on_thread(server);

  serve::Client client(socket_path_);
  const serve::SweepRequest request = small_sweep_request();
  const serve::SubmitResult result = client.submit(request);
  ASSERT_TRUE(result.ok()) << result.outcome.message;

  // The streamed bytes parse as a shard report of the whole sweep...
  std::istringstream body(result.report);
  const dist::ShardReport served = dist::read_shard_report(body);
  EXPECT_EQ(served.key.description, request.workload.name());
  EXPECT_EQ(served.key.seed, request.seed);

  // ...whose results are bit-identical to the same sweep run locally.
  const engine::CountedSweep sweep =
      request.workload.instantiate(request.seed, request.protocols,
                                   {.count = static_cast<std::size_t>(*request.count)});
  engine::BatchRunner local(engine::BatchOptions{.threads = 1, .seed = request.seed});
  const engine::BatchReport expected = local.run(sweep.count, sweep.source);
  EXPECT_TRUE(engine::same_results(served.report, expected));

  server.request_stop();
  runner.join();
}

TEST_F(ServeTest, FaultedSubmissionIsBitIdenticalToALocalFaultedRun) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  serve::SweepServer server(options);
  std::thread runner = serve_on_thread(server);

  serve::Client client(socket_path_);
  serve::SweepRequest request = small_sweep_request();
  request.fault = fault::FaultSpec::drop(0.1);
  const serve::SubmitResult result = client.submit(request);
  ASSERT_TRUE(result.ok()) << result.outcome.message;

  // The streamed report carries the canonical fault spelling in its sweep
  // identity and round-trips through the wire parser.
  std::istringstream body(result.report);
  const dist::ShardReport served = dist::read_shard_report(body);
  EXPECT_EQ(served.key.fault, "drop:0.1");
  EXPECT_EQ(served.report.fault, request.fault);

  // Results are bit-identical to the same faulted sweep run locally.
  const engine::CountedSweep sweep =
      request.workload.instantiate(request.seed, request.protocols,
                                   {.count = static_cast<std::size_t>(*request.count)});
  engine::BatchRunner local(
      engine::BatchOptions{.threads = 1, .seed = request.seed, .fault = request.fault});
  const engine::BatchReport expected = local.run(sweep.count, sweep.source);
  EXPECT_TRUE(engine::same_results(served.report, expected));
  EXPECT_GT(served.report.total_stats.injected_drops, 0u);

  server.request_stop();
  runner.join();
}

TEST_F(ServeTest, ShardedSubmissionsMergeToTheUnshardedSweep) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  serve::SweepServer server(options);
  std::thread runner = serve_on_thread(server);

  serve::Client client(socket_path_);
  std::vector<dist::ShardReport> shards;
  for (std::uint32_t shard = 0; shard < 3; ++shard) {
    serve::SweepRequest request = small_sweep_request();
    request.shard = dist::ShardSpec{shard, 3};
    const serve::SubmitResult result = client.submit(request);
    ASSERT_TRUE(result.ok()) << result.outcome.message;
    std::istringstream body(result.report);
    shards.push_back(dist::read_shard_report(body));
  }
  const engine::BatchReport merged = dist::complete_report(dist::merge_shards(shards));

  const serve::SubmitResult whole = client.submit(small_sweep_request());
  ASSERT_TRUE(whole.ok());
  std::istringstream body(whole.report);
  EXPECT_TRUE(engine::same_results(merged, dist::read_shard_report(body).report));

  server.request_stop();
  runner.join();
}

TEST_F(ServeTest, SharedCacheSpansRequests) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  serve::SweepServer server(options);
  std::thread runner = serve_on_thread(server);

  serve::Client client(socket_path_);
  const serve::SweepRequest request = small_sweep_request();

  // Cold: every configuration misses once (two protocols share each one,
  // so there are hits within the request too).
  const serve::SubmitResult cold = client.submit(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.outcome.request_cache.misses, 6u);  // one per configuration
  EXPECT_EQ(cold.outcome.request_cache.hits, 6u);    // second protocol of each

  // Warm: the re-submission hits entries the *previous request* compiled.
  const serve::SubmitResult warm = client.submit(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.outcome.request_cache.misses, 0u);
  EXPECT_EQ(warm.outcome.request_cache.hits, 12u);
  EXPECT_EQ(warm.outcome.request_cache.schedule_builds, 0u);

  // Cumulative counters on the done line match the server's own view.
  const engine::ScheduleCacheStats stats = server.cache_stats();
  EXPECT_EQ(warm.outcome.totals.hits, stats.hits);
  EXPECT_EQ(warm.outcome.totals.misses, stats.misses);
  EXPECT_EQ(stats.entries, 6u);

  // Warm and cold runs computed identical results (the cache is invisible
  // in outcomes).
  std::istringstream cold_body(cold.report);
  std::istringstream warm_body(warm.report);
  EXPECT_TRUE(engine::same_results(dist::read_shard_report(cold_body).report,
                                   dist::read_shard_report(warm_body).report));

  // A cache=off request bypasses the shared cache entirely.
  serve::SweepRequest uncached = request;
  uncached.use_cache = false;
  const serve::SubmitResult bypassed = client.submit(uncached);
  ASSERT_TRUE(bypassed.ok());
  EXPECT_EQ(bypassed.outcome.request_cache, (serve::RequestCacheUse{0, 0, 0}));
  EXPECT_EQ(server.cache_stats().hits, stats.hits);  // untouched

  server.request_stop();
  runner.join();
}

TEST_F(ServeTest, StatsReflectServedWork) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  serve::SweepServer server(options);
  std::thread runner = serve_on_thread(server);

  serve::Client client(socket_path_);

  // A fresh server has served nothing; the gauges see this open session.
  const serve::ServerStats fresh = client.stats();
  EXPECT_EQ(fresh.queued, 0u);
  EXPECT_EQ(fresh.active, 0u);
  EXPECT_GE(fresh.sessions, 1u);
  EXPECT_EQ(fresh.accepted, 0u);
  EXPECT_EQ(fresh.completed, 0u);
  EXPECT_EQ(fresh.failed, 0u);

  const serve::SubmitResult result = client.submit(small_sweep_request());
  ASSERT_TRUE(result.ok()) << result.outcome.message;

  const serve::ServerStats after = client.stats();
  EXPECT_EQ(after.accepted, 1u);
  EXPECT_EQ(after.completed, 1u);
  EXPECT_EQ(after.failed, 0u);
  EXPECT_EQ(after.queued, 0u);
  EXPECT_EQ(after.active, 0u);
  EXPECT_GE(after.uptime_ms, fresh.uptime_ms);
  // The executed request passed through both serve-side histograms.
  EXPECT_GE(after.queue_wait.count, 1u);
  EXPECT_GE(after.dispatch.count, 1u);
  EXPECT_GE(after.queue_wait.p99_us, after.queue_wait.p50_us);
  EXPECT_GE(after.dispatch.p99_us, after.dispatch.p50_us);
  // Cache counters on the stats line agree with the server's own view.
  const engine::ScheduleCacheStats cache = server.cache_stats();
  EXPECT_EQ(after.cache.hits, cache.hits);
  EXPECT_EQ(after.cache.misses, cache.misses);
  EXPECT_EQ(after.cache.entries, cache.entries);
  // No store configured: all store counters stay zero.
  EXPECT_EQ(after.store, (serve::StoreTotals{0, 0, 0}));

  // The wire snapshot is the server's own snapshot (modulo fields that move
  // with time and the polling connection itself).
  serve::ServerStats direct = server.stats();
  serve::ServerStats wire = after;
  direct.uptime_ms = wire.uptime_ms = 0;
  direct.sessions = wire.sessions = 0;
  direct.accepted = wire.accepted = 0;      // the stats request itself
  direct.completed = wire.completed = 0;    // may tick between snapshots
  EXPECT_EQ(direct.queued, wire.queued);
  EXPECT_EQ(direct.cache, wire.cache);
  EXPECT_EQ(direct.store, wire.store);

  server.request_stop();
  runner.join();

  // Counters survive the drain: the final snapshot still remembers the work.
  const serve::ServerStats drained = server.stats();
  EXPECT_EQ(drained.completed, after.completed);
  EXPECT_EQ(drained.sessions, 0u);
}

TEST_F(ServeTest, InvalidSweepIsRefusedAndTheSessionSurvives) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  serve::SweepServer server(options);
  std::thread runner = serve_on_thread(server);

  // A spec built by hand can spell a request the server's re-validation
  // rejects (p out of range); the client sees the Error outcome, not a
  // throw, and the connection stays usable.
  serve::SweepRequest request = small_sweep_request();
  request.workload.edge_probability = 2.0;
  serve::Client client(socket_path_);
  const serve::SubmitResult result = client.submit(request);
  EXPECT_EQ(result.outcome.kind, serve::Response::Kind::Error);
  EXPECT_NE(result.outcome.message.find("p must be in [0, 1]"), std::string::npos)
      << result.outcome.message;
  EXPECT_TRUE(result.report.empty());
  EXPECT_EQ(server.counters().protocol_errors, 1u);
  EXPECT_EQ(server.counters().failed, 0u);

  // The session survives: the same connection still serves good requests.
  const serve::SubmitResult retry = client.submit(small_sweep_request());
  EXPECT_TRUE(retry.ok());

  server.request_stop();
  runner.join();
}

/// Raw-socket sender for lines the strict Client API cannot produce.
std::string raw_exchange(const std::string& socket_path, const std::string& line) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::snprintf(address.sun_path, sizeof(address.sun_path), "%s", socket_path.c_str());
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
  const std::string framed = line + "\n";
  EXPECT_EQ(::send(fd, framed.data(), framed.size(), 0), static_cast<ssize_t>(framed.size()));
  std::string reply;
  char byte = 0;
  while (::recv(fd, &byte, 1, 0) == 1 && byte != '\n') {
    reply.push_back(byte);
  }
  ::close(fd);
  return reply;
}

TEST_F(ServeTest, MalformedLinesGetErrorResponsesNotCrashes) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  serve::SweepServer server(options);
  std::thread runner = serve_on_thread(server);

  for (const std::string& line :
       {std::string("total garbage"), std::string("arl-serve 9 ping"),
        std::string("arl-serve 1 sweep workload=bogus protocols=canonical seed=1")}) {
    const std::string reply = raw_exchange(socket_path_, line);
    EXPECT_EQ(reply.rfind("arl-serve 1 error ", 0), 0u) << reply;
  }
  // The retired engine= field is refused like any other unknown field.
  const std::string engine_reply = raw_exchange(
      socket_path_,
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "engine=scalar");
  EXPECT_EQ(engine_reply.rfind("arl-serve 1 error unexpected field 'engine=scalar'", 0), 0u)
      << engine_reply;
  // So is the retired store= field: every request that uses the shared
  // cache uses its disk tier.
  const std::string store_reply = raw_exchange(
      socket_path_,
      "arl-serve 1 sweep workload=random:n=8,p=0.3,sigma=3 protocols=canonical seed=1 count=5 "
      "store=off");
  EXPECT_EQ(store_reply.rfind("arl-serve 1 error unexpected field 'store=off'", 0), 0u)
      << store_reply;
  EXPECT_EQ(server.counters().protocol_errors, 5u);

  // And the server still serves: a well-formed submission succeeds.
  serve::Client client(socket_path_);
  EXPECT_TRUE(client.submit(small_sweep_request()).ok());

  server.request_stop();
  runner.join();
}

TEST_F(ServeTest, BackpressureAnswersBusyAndDrainFinishesAcknowledgedJobs) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  options.queue_limit = 1;
  serve::SweepServer server(options);
  std::thread runner = serve_on_thread(server);

  // A deliberately slow request (~0.5 s of single-core simulation) keeps
  // the dispatcher busy while the test fills and overflows the queue.
  serve::SweepRequest slow;
  slow.workload = engine::parse_workload("random:n=256,p=0.03,sigma=3");
  slow.protocols = {core::ProtocolSpec::canonical()};
  slow.seed = 3;
  slow.count = 1000;

  serve::Client first(socket_path_);
  serve::Client second(socket_path_);
  serve::SubmitResult first_result;
  serve::SubmitResult second_result;
  std::thread submit_first([&] { first_result = first.submit(slow); });
  // Deterministic, no sleeps: wait for the dispatcher to pick up the first
  // job...
  while (server.counters().active != 1) {
    std::this_thread::yield();
  }
  std::thread submit_second([&] { second_result = second.submit(slow); });
  // ...and for the second submission to occupy the queue's single slot.
  while (server.counters().queued != 1) {
    std::this_thread::yield();
  }

  // The queue is full and the engine busy: a third submission is refused
  // immediately (the slow job is still running — `active` says so).
  serve::Client third(socket_path_);
  const serve::SubmitResult rejected = third.submit(slow);
  EXPECT_EQ(rejected.outcome.kind, serve::Response::Kind::Busy);
  EXPECT_EQ(rejected.outcome.queue_limit, 1u);
  EXPECT_GE(server.counters().busy_rejections, 1u);

  // Stop while one job runs and one waits: the drain must finish BOTH
  // acknowledged jobs and stream their reports before run() returns.
  server.request_stop();
  submit_first.join();
  submit_second.join();
  runner.join();
  ASSERT_TRUE(first_result.ok()) << first_result.outcome.message;
  ASSERT_TRUE(second_result.ok()) << second_result.outcome.message;
  EXPECT_EQ(server.counters().completed, 2u);

  // After the drain, new submissions cannot even connect.
  EXPECT_THROW(serve::Client{socket_path_}, serve::ClientError);
}

// ----------------------------------------------------------- serve hardening

TEST_F(ServeTest, SocketModeIsOwnerOnly) {
  // The socket must never carry the umask's default world-writable mode:
  // anyone who can connect can submit sweeps.  chmod runs between bind and
  // listen, so no client ever observes a laxer mode.
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  serve::SweepServer server(options);

  struct stat info {};
  ASSERT_EQ(::stat(socket_path_.c_str(), &info), 0);
  EXPECT_EQ(info.st_mode & 0777u, 0600u)
      << "socket mode is " << std::oct << (info.st_mode & 0777u);
}

TEST_F(ServeTest, AStaleSocketFileIsReclaimed) {
  // Simulate a SIGKILLed daemon: bind the path, then close the listener
  // without unlinking — exactly the residue a dead process leaves.  No
  // process listens, so connect() yields ECONNREFUSED and the new server
  // must unlink and rebind instead of failing with EADDRINUSE.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
    ASSERT_EQ(::listen(fd, 1), 0);
    ::close(fd);
  }
  struct stat residue {};
  ASSERT_EQ(::stat(socket_path_.c_str(), &residue), 0) << "no stale socket to reclaim";

  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  serve::SweepServer server(options);  // must not throw
  std::thread runner = serve_on_thread(server);

  serve::Client client(socket_path_);
  EXPECT_EQ(client.ping().kind, serve::Response::Kind::Pong);

  server.request_stop();
  runner.join();
}

TEST_F(ServeTest, ANonSocketFileIsRefusedAndNeverUnlinked) {
  // A regular file at the socket path is someone's data, not daemon
  // residue: the server must refuse to start and must not delete it.
  {
    std::ofstream file(socket_path_);
    file << "precious bytes\n";
  }
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  EXPECT_THROW(serve::SweepServer{options}, serve::ServeError);

  std::ifstream survivor(socket_path_);
  std::string content;
  std::getline(survivor, content);
  EXPECT_EQ(content, "precious bytes");
}

TEST_F(ServeTest, ALiveSocketIsStillRefused) {
  // The reclaim probe must not break the original guarantee: a path a
  // *running* server owns stays refused (connect() succeeds → not stale).
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  serve::SweepServer first(options);
  EXPECT_THROW(serve::SweepServer{options}, serve::ServeError);
  struct stat info {};
  EXPECT_EQ(::stat(socket_path_.c_str(), &info), 0) << "the live socket was unlinked";
}

TEST_F(ServeTest, AClientTimeoutUnwedgesASilentServer) {
  // A listener that accepts connections into its backlog but never reads
  // or answers — the wedge `arl submit --timeout` exists for.  Without the
  // timeout the ping would block forever; with it, ClientError after ~1s.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
  ASSERT_EQ(::listen(fd, 4), 0);

  serve::Client client(socket_path_, /*timeout_seconds=*/1);
  try {
    (void)client.ping();
    FAIL() << "ping against a silent server returned";
  } catch (const serve::ClientError& error) {
    EXPECT_NE(std::string(error.what()).find("within 1s"), std::string::npos) << error.what();
  }
  ::close(fd);
}

// ------------------------------------------------------------ store-backed

TEST_F(ServeTest, StoreRequiresACache) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.cache_capacity = 0;
  options.store_directory = dir_ + "/store";
  EXPECT_THROW(serve::SweepServer{options}, serve::ServeError);
}

TEST_F(ServeTest, TheWarmCacheSurvivesARestartThroughTheStore) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.threads = 1;
  options.store_directory = dir_ + "/store";
  const serve::SweepRequest request = small_sweep_request();

  // First daemon lifetime: a cold submission compiles and persists.
  std::string first_report;
  {
    serve::SweepServer server(options);
    std::thread runner = serve_on_thread(server);
    serve::Client client(socket_path_);
    const serve::SubmitResult cold = client.submit(request);
    ASSERT_TRUE(cold.ok()) << cold.outcome.message;
    first_report = cold.report;
    EXPECT_GT(server.store_stats().saves, 0u);
    server.request_stop();
    runner.join();
  }

  // Second daemon lifetime over the same store: the fresh process preloads
  // every configuration from disk — no schedule is ever rebuilt — and the
  // response bytes are identical to the first lifetime's.
  {
    serve::SweepServer server(options);
    std::thread runner = serve_on_thread(server);
    serve::Client client(socket_path_);
    const serve::SubmitResult warm = client.submit(request);
    ASSERT_TRUE(warm.ok()) << warm.outcome.message;
    EXPECT_GT(server.store_stats().hits, 0u);
    EXPECT_EQ(server.store_stats().saves, 0u) << "a preloaded run recompiled something";
    EXPECT_EQ(server.store_stats().rejected, 0u);
    // Every configuration was a *disk* hit (the memory tier records them as
    // misses-then-promotes; nothing was classified from scratch).
    EXPECT_EQ(server.store_stats().hits, warm.outcome.request_cache.misses);

    std::istringstream cold_body(first_report);
    std::istringstream warm_body(warm.report);
    EXPECT_TRUE(engine::same_results(dist::read_shard_report(cold_body).report,
                                     dist::read_shard_report(warm_body).report));
    server.request_stop();
    runner.join();
  }

  // Store teardown (the fixture only removes dir_ itself).
  const std::string store_dir = dir_ + "/store";
  if (DIR* d = ::opendir(store_dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") {
        (void)::unlink((store_dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(store_dir.c_str());
}

}  // namespace
