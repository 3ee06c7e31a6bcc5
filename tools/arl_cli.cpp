/// \file arl_cli.cpp
/// Command-line front end for the library.
///
///   arl gen       — emit a configuration in the text format
///   arl classify  — decide feasibility (Classifier) and show the partition
///   arl elect     — run the full pipeline and report the election
///   arl sweep     — batch many elections across the thread pool (engine);
///                   --shard=i/K emits one shard of a distributed sweep,
///                   --workers=K forks K local worker processes and merges
///   arl merge     — reassemble shard report files into the sweep's report
///   arl serve     — sweep service daemon on a unix socket: one shared
///                   engine + schedule cache across requests (serve/)
///   arl submit    — submit one sweep to a running service
///   arl stats     — live statistics of a running service (queue, latency)
///   arl workloads — list the registered sweep workloads (engine/workload.hpp)
///   arl faults    — list the registered fault specs (fault/fault.hpp)
///   arl trace     — replay the canonical DRIP with a per-round trace
///   arl schedule  — compile and print the canonical schedule (deployable)
///   arl dot       — Graphviz rendering of a configuration
///   arl orbits    — symmetry analysis (orbits of indistinguishable nodes)
///   arl validate  — simulate + independently validate the execution
///   arl help      — this reference
///
/// Configurations are read from a file path argument or stdin.
///
/// Exit codes: 0 success (`help` and no-args print the reference and exit
/// 0); 1 runtime failure (an election did not verify, a worker died); 2
/// usage error (unknown command, malformed flag value, unreadable input,
/// unmergeable shard reports).

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "config/families.hpp"
#include "config/io.hpp"
#include "core/canonical_drip.hpp"
#include "core/election.hpp"
#include "core/protocol.hpp"
#include "core/quotient.hpp"
#include "core/schedule_io.hpp"
#include "dist/merge.hpp"
#include "dist/report_io.hpp"
#include "dist/shard.hpp"
#include "engine/batch_runner.hpp"
#include "engine/sweep.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "obs/json_snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radio/trace.hpp"
#include "serve/client.hpp"
#include "serve/serve_proto.hpp"
#include "serve/server.hpp"
#include "radio/validator.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace arl;

void print_usage(std::ostream& out) {
  out <<
      R"(arl — deterministic leader election in anonymous radio networks

usage: arl <command> [flags] [config-file]

commands:
  gen        generate a configuration
               --family=h|g|s|staggered|single-hop|random  (default h)
               --m=N          family parameter             (default 3)
               --n=N          node count for staggered/single-hop/random
               --sigma=N      span for random              (default 3)
               --p=X          edge probability for random  (default 0.3)
               --seed=N       RNG seed for random          (default 1)
  classify   decide feasibility; print verdict, iterations, partition
               --model=cd|nocd   channel feedback          (default cd)
  elect      classify + run the canonical DRIP + verify
               --model=cd|nocd
  sweep      run a batch of elections across the thread pool
               --workload=SPEC   registry workload to sweep (see `arl
                                 workloads`), e.g. random:n=16,p=0.3,sigma=3,
                                 grid:rows=8,cols=8,sigma=3, hypercube:d=6,
                                 exhaustive:n=4,tau=2, mutations:family-h
                                 (default random)
               --count=N         configurations in the batch  (default 100;
                                 conflicts with self-counting workloads)
               --family=random|staggered|h|g|s   legacy alias constructing
                                 the same workload spec (conflicts with
                                 --workload)
               --protocol=NAME   protocol to run: canonical, classify,
                                 binary-search[:BITS], tree-split[:BITS],
                                 randomized[:SLOTS]           (default canonical)
                                 repeatable — several protocols make the batch a
                                 cross product (every configuration under every
                                 protocol) with a per-protocol comparison table
               --n=N             node count for --family=random      (default 16)
               --sigma=N         span for --family=random            (default 3)
               --p=X             edge probability, --family=random   (default 0.3)
               --seed=N          batch master seed            (default 1)
               --fault=SPEC      deterministic fault plan applied to every
                                 job (see `arl faults`): none (default),
                                 drop:P[,SPLIT], corrupt:P, crash:K[,WINDOW],
                                 adversarial-wake:W — same seed, same spec,
                                 same outcomes at any shard/thread count
               --threads=N       worker threads in [0, 256]; 0 = hardware
               --model=cd|nocd   channel feedback (with the legacy aliases;
                                 a --workload spec spells it as model=nocd)
               --shard=i/K       run only shard i of K (contiguous job-id
                                 ranges; bit-identical to the same ids of an
                                 unsharded run) and emit a shard report
               --shard=B-E       run exactly the global job-id range [B, E)
                                 — the resume notation `arl merge --missing`
                                 emits for a partially completed sweep
               --out=FILE        write the shard report to FILE (with
                                 --shard only; default stdout)
               --workers=K       fork K local worker processes, one shard
                                 each, and merge their reports (the
                                 zero-infrastructure distributed driver)
               --cache=on|off|N  schedule/classification cache shared by the
                                 workers: on (default capacity), off, or a
                                 capacity in entries; jobs sharing a
                                 configuration classify once, and the summary
                                 reports hit/miss/evict counts (default off)
               --store=DIR       persistent artifact store: compiled
                                 classifications/schedules are read from and
                                 written to DIR (created if missing) through
                                 crash-safe files, so a later cache-cold
                                 sweep preloads them; implies --cache=on
                                 (conflicts with --cache=off); outcomes are
                                 bit-identical with the store on, off or
                                 pre-populated
               --metrics-out=FILE  write the run's phase-timing metrics as a
                                 flat JSON object to FILE: per-phase counts
                                 (deterministic at --threads=1) plus total
                                 and p50/p90/p99 milliseconds (plain-path
                                 sweeps only; conflicts with --shard and
                                 --workers)
               --trace=FILE      machine-readable run telemetry: append one
                                 JSON line per job to FILE — job id, config
                                 fingerprint, disposition, per-phase
                                 nanoseconds (plain-path sweeps only)
               --classify-only   shorthand for --protocol=classify
  workloads  list the registered workloads and the spec grammar (exit 0)
  faults     list the registered fault specs and the spec grammar (exit 0)
  merge      reassemble shard report files into the sweep's report
               arl merge SHARD-FILE...
               verifies the shards describe one sweep (same spec digest,
               seed, protocols) and tile its job ids exactly; prints the
               usual sweep tables.  exit 2 on malformed or mismatched input
               --missing         instead of merging, report the job-id
                                 ranges the given shards do NOT cover and
                                 print (to stdout) the exact `arl sweep
                                 --shard=B-E --out=...` commands that fill
                                 them — the resume path after a killed
                                 worker; exit 0 whether or not gaps exist
  serve      run the sweep service: a unix-socket daemon executing sweep
             requests one at a time through one shared engine and one
             cross-request schedule cache (warm requests skip compiles)
               --socket=PATH     socket path to listen on (required; a stale
                                 socket left by a crashed daemon is detected
                                 and reclaimed, a live one is refused; the
                                 bound socket is chmod 0600)
               --threads=N       engine worker threads in [0, 256]; 0 = hardware
               --cache=on|off|N  shared schedule cache across requests:
                                 on (default), off, or a capacity in entries
               --store=DIR       persistent artifact store behind the shared
                                 cache: the daemon's warm cache survives
                                 restarts (requires the cache on)
               --queue=N         requests allowed to wait in [1, 4096]
                                 (default 8); past it submissions get `busy`
               SIGINT/SIGTERM drain gracefully: acknowledged requests finish
               and stream back, then the socket is unlinked
  submit     submit one sweep to a running service; prints the same tables
             as `arl sweep` (responses are shard reports, so --out files
             feed `arl merge` unchanged)
               --socket=PATH     the service socket (required)
               --ping            round-trip a ping and print the server's
                                 cumulative cache counters instead
               sweep axes as in `arl sweep`: --workload or the legacy
                 family flags, --protocol (repeatable), --count, --seed,
                 --fault=SPEC, --shard=i/K
               --threads=N       cap this request's workers in [1, 256]
                                 (omit for the server's full pool)
               --cache=off       opt this request out of the shared cache
                                 (and the server's --store behind it)
               --timeout=N       give up after N seconds without a server
                                 response, in [0, 86400] (default 0: wait
                                 forever); a timeout exits 1 with a
                                 diagnostic instead of blocking on a wedged
                                 server
               --out=FILE        write the raw shard report to FILE instead
                                 of printing tables
  stats      query a running service for live statistics: uptime, queue
             depth, in-flight work, open sessions, request counters,
             cache/store totals, queue-wait and dispatch latency
             percentiles (the same snapshot the daemon prints on drain)
               --socket=PATH     the service socket (required)
               --timeout=N       give up after N seconds without a response,
                                 in [0, 86400] (default 0: wait forever)
  trace      replay the canonical DRIP round by round
               --verbose         also print listens and silences
  schedule   compile and print the canonical schedule (text format)
               --model=cd|nocd
  dot        Graphviz rendering
  orbits     symmetry analysis: orbits of indistinguishable nodes + quotient
  validate   simulate and re-validate the execution independently
  help       print this reference (exit 0)

configurations are read from the file argument, or stdin when absent.
exit codes: 0 success, 1 runtime failure, 2 usage error (including any flag
the command does not list above).
)";
}

config::Configuration read_configuration(const support::Args& args, std::size_t index) {
  if (args.positional().size() > index) {
    std::ifstream file(args.positional()[index]);
    if (!file) {
      throw support::ContractViolation("cannot open " + args.positional()[index]);
    }
    return config::from_text(file);
  }
  return config::from_text(std::cin);
}

// ---- interrupt handling -----------------------------------------------
//
// Three commands own cleanup obligations a Ctrl-C must not skip: `sweep
// --workers` (forked children to terminate and temp shard files to remove),
// `sweep --shard --out` (a half-written report file that must never appear
// under the final name) and `serve` (a graceful drain).  Handlers are
// installed without SA_RESTART so blocking syscalls return EINTR, and every
// handler body is async-signal-safe (flag writes, unlink, write, _exit).

/// Set by the --workers parent's handler; the waitpid loop turns it into
/// SIGTERM for the children plus temp-file cleanup.
volatile std::sig_atomic_t g_interrupted = 0;

void flag_interrupt(int) { g_interrupted = 1; }

/// The temp path a `--shard --out` run is writing; the handler unlinks it
/// and exits so an interrupt can never leave a truncated file behind
/// (the final name only ever appears via rename of a complete report).
char g_shard_tmp_path[4096] = {0};

void shard_interrupt(int) {
  if (g_shard_tmp_path[0] != '\0') {
    ::unlink(g_shard_tmp_path);
  }
  ::_exit(130);
}

/// The serve stop pipe (SweepServer::stop_fd); one byte requests a drain.
int g_serve_stop_fd = -1;

void serve_interrupt(int) {
  if (g_serve_stop_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t rc = ::write(g_serve_stop_fd, &byte, 1);
  }
}

/// Installs one handler for SIGINT and SIGTERM, restoring the previous
/// dispositions on scope exit (so one command's handler never leaks into
/// another's run).
class ScopedSignalHandlers {
 public:
  explicit ScopedSignalHandlers(void (*handler)(int)) {
    struct sigaction action {};
    action.sa_handler = handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: blocked syscalls must see EINTR
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedSignalHandlers() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }
  ScopedSignalHandlers(const ScopedSignalHandlers&) = delete;
  ScopedSignalHandlers& operator=(const ScopedSignalHandlers&) = delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

radio::ChannelModel parse_model(const support::Args& args) {
  const std::string model = args.get_string("model", "cd");
  if (model == "cd") {
    return radio::ChannelModel::CollisionDetection;
  }
  if (model == "nocd") {
    return radio::ChannelModel::NoCollisionDetection;
  }
  throw support::ContractViolation("--model must be cd or nocd");
}

int cmd_gen(const support::Args& args) {
  const std::string family = args.get_string("family", "h");
  const auto m = static_cast<config::Tag>(args.get_int("m", 3));
  const auto n = static_cast<graph::NodeId>(args.get_int("n", 8));
  if (family == "h") {
    config::to_text(config::family_h(m), std::cout);
  } else if (family == "g") {
    config::to_text(config::family_g(m), std::cout);
  } else if (family == "s") {
    config::to_text(config::family_s(m), std::cout);
  } else if (family == "staggered") {
    config::to_text(config::staggered_path(n), std::cout);
  } else if (family == "single-hop") {
    std::vector<config::Tag> tags(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      tags[v] = v;
    }
    config::to_text(config::single_hop(tags), std::cout);
  } else if (family == "random") {
    support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
    const auto sigma = static_cast<config::Tag>(args.get_int("sigma", 3));
    const double p = args.get_double("p", 0.3);
    config::to_text(
        config::random_tags_with_span(graph::gnp_connected(n, p, rng), sigma, rng),
        std::cout);
  } else {
    std::cerr << "unknown family '" << family << "'\n";
    return 2;
  }
  return 0;
}

int cmd_classify(const support::Args& args) {
  const config::Configuration c = read_configuration(args, 1);
  const radio::ChannelModel model = parse_model(args);
  const core::ClassifierResult result = core::Classifier(model).run(c);
  std::cout << "verdict:    " << (result.feasible() ? "feasible" : "infeasible") << '\n';
  std::cout << "iterations: " << result.iterations << '\n';
  std::cout << "steps:      " << result.steps << '\n';
  if (result.feasible()) {
    std::cout << "leader:     node " << result.leader << " (class " << result.leader_class
              << ")\n";
  }
  std::cout << "partition:  ";
  const auto& final_classes = result.records.back().clazz;
  for (std::size_t v = 0; v < final_classes.size(); ++v) {
    std::cout << (v ? " " : "") << final_classes[v];
  }
  std::cout << '\n';
  return result.feasible() ? 0 : 1;
}

int cmd_elect(const support::Args& args) {
  const config::Configuration c = read_configuration(args, 1);
  core::ElectionOptions options;
  options.channel_model = parse_model(args);
  const core::ElectionReport report = core::elect(c, options);
  std::cout << "protocol:      " << report.protocol << '\n';
  std::cout << "feasible:      " << (report.feasible ? "yes" : "no") << '\n';
  std::cout << "disposition:   " << core::to_string(report.disposition) << '\n';
  if (report.leader) {
    std::cout << "leader:        node " << *report.leader << '\n';
  }
  std::cout << "local rounds:  " << report.local_rounds << '\n';
  std::cout << "global rounds: " << report.global_rounds << '\n';
  std::cout << "transmissions: " << report.stats.transmissions << '\n';
  std::cout << "max node tx:   " << report.stats.max_node_transmissions << '\n';
  std::cout << "max node awake:" << ' ' << report.stats.max_node_awake_rounds << '\n';
  std::cout << "verified:      " << (report.valid ? "ok" : "FAILED") << '\n';
  return report.valid ? 0 : 1;
}

/// Parses the sweep's --cache flag into a cache capacity (0 = disabled):
/// "on" picks the default capacity, "off" disables, a non-negative integer
/// sets the capacity in entries.  Throws on anything else.
std::size_t parse_cache_capacity(const support::Args& args) {
  if (!args.has("cache")) {
    return 0;
  }
  const std::string value = args.get_string("cache", "");
  if (value == "on" || value.empty()) {  // bare --cache reads as --cache=on
    return engine::ScheduleCache::kDefaultCapacity;
  }
  if (value == "off") {
    return 0;
  }
  if (!value.empty() && value.find_first_not_of("0123456789") == std::string::npos &&
      value.size() <= 9) {
    return static_cast<std::size_t>(std::stoull(value));
  }
  throw support::ContractViolation("--cache must be on, off, or a capacity in [0, 999999999]");
}

/// Parses the --store flag shared by `sweep` and `serve`: a non-empty
/// directory path, or "" when the flag is absent.  The store is the
/// schedule cache's disk tier, so pairing it with an explicit --cache=off is
/// a contradiction, not a preference.  Throws support::ContractViolation
/// (exit 2) on misuse.
std::string parse_store_directory(const support::Args& args) {
  if (!args.has("store")) {
    return "";
  }
  const std::string value = args.get_string("store", "");
  if (value.empty()) {
    throw support::ContractViolation("--store needs a directory path");
  }
  if (value == "off") {
    // The flag's absence is off; "off" would name a directory.
    throw support::ContractViolation(
        "--store takes a directory (omit the flag to run without a store)");
  }
  if (args.has("cache") && parse_cache_capacity(args) == 0) {
    throw support::ContractViolation(
        "--store conflicts with --cache=off (the store is the cache's disk tier)");
  }
  return value;
}

/// Folds the --model execution flag into a legacy-alias workload spec — it
/// is workload identity (sweeps classifying under different channel
/// feedback must not merge), which is why the --workload spelling carries it
/// inside the spec instead of beside it.
engine::WorkloadSpec apply_execution_flags(engine::WorkloadSpec spec,
                                           const support::Args& args) {
  if (args.has("model")) {
    spec.model = parse_model(args);
  }
  return spec;
}

/// The workload the sweep flags describe: --workload=SPEC picks any registry
/// workload; the legacy --family/--n/--sigma/--p flags are parsed aliases
/// that construct the same spec (byte-identical sweeps either way), and
/// combining the two axes is contradictory.  Throws
/// support::ContractViolation on conflicts and out-of-range values (exit 2).
engine::WorkloadSpec sweep_workload(const support::Args& args) {
  if (args.has("workload")) {
    // Every workload-identity parameter has one spelling: inside the spec.
    // A bare flag next to --workload would either silently override the
    // spec's own key (model) or duplicate it (family/n/sigma/p), so
    // both combinations are contradictions, not preferences.
    for (const char* flag : {"family", "n", "sigma", "p", "model"}) {
      if (args.has(flag)) {
        throw support::ContractViolation(
            std::string("--workload conflicts with --") + flag +
            "; put the parameter inside the spec instead (e.g. "
            "--workload=random:n=8,model=nocd)");
      }
    }
    return engine::parse_workload(args.get_string("workload", ""));
  }

  const std::string family = args.get_string("family", "random");
  engine::WorkloadSpec spec;
  if (family == "random") {
    const std::int64_t n = args.get_int("n", 16);
    if (n < 1 || n > 1'000'000) {
      throw support::ContractViolation("--n must be in [1, 1000000]");
    }
    const std::int64_t sigma = args.get_int("sigma", 3);
    if (sigma < 0 || sigma > 1'000'000) {
      throw support::ContractViolation("--sigma must be in [0, 1000000]");
    }
    const double p = args.get_double("p", 0.3);
    if (p < 0.0 || p > 1.0) {
      throw support::ContractViolation("--p must be in [0, 1]");
    }
    spec = engine::WorkloadSpec::random(static_cast<std::uint32_t>(n), p,
                                        static_cast<std::uint32_t>(sigma));
  } else if (family == "staggered") {
    spec = engine::WorkloadSpec::staggered();
  } else if (family == "h") {
    spec = engine::WorkloadSpec::family_h();
  } else if (family == "g") {
    spec = engine::WorkloadSpec::family_g();
  } else if (family == "s") {
    spec = engine::WorkloadSpec::family_s();
  } else {
    throw support::ContractViolation("unknown family '" + family +
                                     "' (a legacy alias; --workload reaches the full "
                                     "registry: " +
                                     engine::workload_names() + ")");
  }
  return apply_execution_flags(std::move(spec), args);
}

/// The fault axis shared by `sweep` and `submit`: --fault=SPEC parsed
/// through the fault registry (absence means none).  A malformed spec
/// throws support::ContractViolation whose message lists the registered
/// faults, so a typo'd flag exits 2 with the registry in view — the same
/// contract as --workload and --protocol.
fault::FaultSpec sweep_fault(const support::Args& args) {
  if (!args.has("fault")) {
    return fault::FaultSpec::none();
  }
  return fault::parse_fault(args.get_string("fault", ""));
}

/// The protocol axis shared by `sweep` and `submit`: repeatable --protocol
/// flags validated against the registry (several protocols make the batch a
/// head-to-head cross product), with --classify-only as a shorthand that
/// conflicts with explicit flags.  Throws support::ContractViolation on the
/// conflict (exit 2).
std::vector<core::ProtocolSpec> sweep_protocols(const support::Args& args) {
  std::vector<core::ProtocolSpec> protocols;
  for (const std::string& name : args.get_strings("protocol")) {
    protocols.push_back(core::parse_protocol(name));
  }
  if (args.has("classify-only") && !protocols.empty()) {
    throw support::ContractViolation(
        "--classify-only conflicts with --protocol; use --protocol=classify instead");
  }
  if (protocols.empty()) {
    protocols.push_back(args.has("classify-only") ? core::ProtocolSpec::classify_only()
                                                  : core::ProtocolSpec::canonical());
  }
  return protocols;
}

/// Prints the summary, cache and per-protocol tables of a batch report —
/// shared by `sweep` (single-process and --workers) and `merge`, so a
/// reassembled sweep reads exactly like a local one.
void print_report(const engine::BatchReport& report) {
  // Feasibility is a verdict only the classifying protocols produce, so the
  // percentage is over their jobs — not over baseline jobs that never
  // classify (which would understate it in mixed-protocol sweeps).
  std::uint64_t classified_jobs = 0;
  std::uint64_t simulated_jobs = 0;
  for (const engine::ProtocolBreakdown& row : report.by_protocol) {
    if (row.protocol.classifies()) {
      classified_jobs += row.jobs;
    }
    if (row.protocol.simulates()) {
      simulated_jobs += row.jobs;
    }
  }
  support::Table table({"metric", "value"});
  table.set_precision(3);
  table.add_row({std::string("jobs"), static_cast<std::int64_t>(report.jobs.size())});
  table.add_row({std::string("worker threads"), static_cast<std::int64_t>(report.threads_used)});
  table.add_row({std::string("feasible"), static_cast<std::int64_t>(report.feasible_count)});
  table.add_row({std::string("feasible %"),
                 classified_jobs == 0 ? 0.0
                                      : 100.0 * static_cast<double>(report.feasible_count) /
                                            static_cast<double>(classified_jobs)});
  table.add_row({std::string("verified"), static_cast<std::int64_t>(report.valid_count)});
  // Rounds only accrue on simulating protocols, so average over their jobs
  // (same reasoning as the feasible % denominator above).
  table.add_row({std::string("avg local rounds"),
                 simulated_jobs == 0 ? 0.0
                                     : static_cast<double>(report.total_local_rounds) /
                                           static_cast<double>(simulated_jobs)});
  table.add_row({std::string("max local rounds"),
                 static_cast<std::int64_t>(report.max_local_rounds)});
  table.add_row({std::string("global rounds"),
                 static_cast<std::int64_t>(report.total_global_rounds)});
  table.add_row({std::string("radio transmissions"),
                 static_cast<std::int64_t>(report.total_stats.transmissions)});
  // Per-node energy maxima (Kowalski–Mosteiro accounting): the busiest
  // node's transmission and awake-round budgets across the whole batch.
  table.add_row({std::string("max node transmissions"),
                 static_cast<std::int64_t>(report.total_stats.max_node_transmissions)});
  table.add_row({std::string("max node awake rounds"),
                 static_cast<std::int64_t>(report.total_stats.max_node_awake_rounds)});
  table.add_row({std::string("wall time ms"), report.wall_millis});
  table.add_row({std::string("jobs per second"), report.throughput()});
  table.add_row({std::string("node-rounds per second"), report.node_rounds_per_second()});
  table.print_markdown(std::cout);

  // Fault-injection summary, printed exactly when a fault plan was active
  // (so scripts can key on the "fault:" prefix; a --fault=none sweep prints
  // byte-identically to one without the flag).
  if (report.fault.active()) {
    std::cout << "\nfault: " << report.fault.name() << " — "
              << report.total_stats.injected_drops << " drops, "
              << report.total_stats.injected_corruptions << " corruptions, "
              << report.total_stats.injected_crashes << " crashes, "
              << report.total_stats.delayed_wakeups << " delayed wakeups\n";
  }

  // Cache counters, printed exactly when the cache ran (so scripts can key
  // on the "schedule cache:" prefix).
  if (report.cache) {
    const engine::ScheduleCacheStats& cache = *report.cache;
    std::cout << "\nschedule cache: " << cache.hits << " hits, " << cache.misses << " misses, "
              << cache.evictions << " evictions, " << cache.schedule_builds
              << " schedule builds, " << cache.entries << " entries ("
              << static_cast<int>(cache.hit_rate() * 1000.0) / 10.0 << "% hit rate)\n";
  }

  // Disk-tier counters, printed exactly when a --store ran (same scripting
  // contract as the cache line: key on the "artifact store:" prefix).
  if (report.artifact_store) {
    const store::ArtifactStoreStats& disk = *report.artifact_store;
    std::cout << "artifact store: " << disk.hits << " loads, " << disk.misses << " misses, "
              << disk.rejected << " rejected, " << disk.saves << " saves, " << disk.skipped
              << " skipped, " << disk.errors << " errors\n";
  }

  // Head-to-head comparison: one row per protocol in the batch.
  std::cout << "\nper-protocol breakdown:\n\n";
  // The "faulted" column (jobs whose verification failure was attributed to
  // injected faults) appears only on faulted sweeps, keeping unfaulted
  // output byte-identical to what it was before fault injection existed.
  std::vector<std::string> headers = {"protocol", "jobs",       "feasible",   "elected",
                                      "no leader", "failed",     "verified",   "avg rounds",
                                      "max rounds", "transmissions"};
  if (report.fault.active()) {
    headers.insert(headers.begin() + 6, "faulted");
  }
  support::Table comparison(headers);
  comparison.set_precision(3);
  for (const engine::ProtocolBreakdown& row : report.by_protocol) {
    std::vector<support::Cell> cells = {
        row.protocol.name(),
        static_cast<std::int64_t>(row.jobs),
        static_cast<std::int64_t>(row.feasible),
        static_cast<std::int64_t>(row.elected),
        static_cast<std::int64_t>(row.no_leader),
        static_cast<std::int64_t>(row.failed),
        static_cast<std::int64_t>(row.valid),
        row.average_local_rounds(),
        static_cast<std::int64_t>(row.max_local_rounds),
        static_cast<std::int64_t>(row.stats.transmissions)};
    if (report.fault.active()) {
      cells.insert(cells.begin() + 6, support::Cell(static_cast<std::int64_t>(row.detected_fault)));
    }
    comparison.add_row(std::move(cells));
  }
  comparison.print_markdown(std::cout);

  // Phase-timing breakdown, present exactly when the metrics registry ran
  // during this process's own execution (merged and served reports carry no
  // phases: timings are execution circumstances, not results).  Printed
  // last so scripts diffing reports can drop the block with one
  // `sed '/^phase timings:/,$d'`.
  if (report.phases && !report.phases->empty()) {
    std::cout << "\nphase timings:\n\n";
    support::Table timings({"phase", "count", "total ms", "p50 ms", "p90 ms", "p99 ms"});
    timings.set_precision(3);
    for (const obs::Phase phase : obs::all_phases()) {
      const obs::HistogramSnapshot& histogram = (*report.phases)[phase];
      if (histogram.count() == 0) {
        continue;
      }
      timings.add_row({std::string(obs::phase_name(phase)),
                       static_cast<std::int64_t>(histogram.count()),
                       static_cast<double>(histogram.total) / 1e6,
                       static_cast<double>(histogram.percentile(0.50)) / 1e6,
                       static_cast<double>(histogram.percentile(0.90)) / 1e6,
                       static_cast<double>(histogram.percentile(0.99)) / 1e6});
    }
    timings.print_markdown(std::cout);
  }
}

/// The `--metrics-out` payload: the sweep's phase-timing snapshot as a flat
/// JSON object in the bench_gate-consumable shape.  Every phase emits all
/// five keys whether or not it ran — bench_gate fails on keys present in
/// only one snapshot, so the key set must be fixed, not data-dependent.
/// Counts are exact-match fields (deterministic at --threads=1 without a
/// cache); the `_ms` fields are informational timings.
void write_metrics_json(const engine::BatchReport& report, const std::string& path) {
  obs::JsonSnapshot snapshot;
  snapshot.add("schema", std::string("arl-metrics 1"));
  snapshot.add("jobs", static_cast<std::uint64_t>(report.jobs.size()));
  const obs::MetricsSnapshot phases = report.phases.value_or(obs::MetricsSnapshot{});
  for (const obs::Phase phase : obs::all_phases()) {
    const obs::HistogramSnapshot& histogram = phases[phase];
    std::string key = "phase_";
    for (const char c : obs::phase_name(phase)) {
      key += c == '-' ? '_' : c;
    }
    snapshot.add(key + "_count", histogram.count());
    snapshot.add(key + "_total_ms", static_cast<double>(histogram.total) / 1e6);
    snapshot.add(key + "_p50_ms", static_cast<double>(histogram.percentile(0.50)) / 1e6);
    snapshot.add(key + "_p90_ms", static_cast<double>(histogram.percentile(0.90)) / 1e6);
    snapshot.add(key + "_p99_ms", static_cast<double>(histogram.percentile(0.99)) / 1e6);
  }
  // Injected-event totals: exact-match fields (fault dice are pure functions
  // of seed/round/node, so the counts are thread- and shard-invariant).
  snapshot.add("injected_drops", report.total_stats.injected_drops);
  snapshot.add("injected_corruptions", report.total_stats.injected_corruptions);
  snapshot.add("injected_crashes", report.total_stats.injected_crashes);
  snapshot.add("delayed_wakeups", report.total_stats.delayed_wakeups);
  if (!snapshot.write_file(path)) {
    throw std::runtime_error("writing the metrics snapshot to " + path + " failed");
  }
}

/// Runs one shard range of the sweep and writes its report to `out` — the
/// one shard-emission path, shared by `--shard` and the forked `--workers`
/// children.  Returns true when every job in the shard verified.
bool emit_shard(const engine::CountedSweep& sweep, const dist::SweepKey& key,
                const dist::JobRange& range, const engine::BatchOptions& batch_options,
                std::ostream& out) {
  engine::BatchRunner runner(batch_options);
  engine::BatchReport report = runner.run_range(range.begin, range.end, sweep.source);
  const bool all_valid = report.valid_count == report.jobs.size();
  dist::write_shard_report(dist::make_shard_report(key, range, std::move(report)), out);
  return all_valid;
}

/// Runs one job range of the sweep and emits its report (--out file or
/// stdout) — the target of both --shard=i/K (the planner's range) and
/// --shard=B-E (an explicit resume range).  Exit 0 when every job in the
/// range verified, 1 otherwise.
int run_shard_sweep(const engine::CountedSweep& sweep, const dist::SweepKey& key,
                    const engine::BatchOptions& batch_options, const dist::JobRange& range,
                    const std::string& out_path) {
  if (out_path.empty()) {
    const bool all_valid = emit_shard(sweep, key, range, batch_options, std::cout);
    std::cout.flush();
    if (!std::cout) {
      // Same contract as the --out branch: a lost or truncated report must
      // not exit as if the shard were emitted.  Environment failure, not
      // misuse: std::runtime_error exits 1.
      throw std::runtime_error("writing the shard report to stdout failed");
    }
    return all_valid ? 0 : 1;
  }
  // Write-then-rename, with a SIGINT/SIGTERM handler that unlinks the temp
  // file: the final name only ever appears via rename of a complete,
  // flushed report, so an interrupted run leaves *nothing* — never a
  // truncated file a later `arl merge` would have to diagnose.
  const std::string tmp_path = out_path + ".tmp." + std::to_string(::getpid());
  if (tmp_path.size() >= sizeof(g_shard_tmp_path)) {
    throw support::ContractViolation("--out path is too long");
  }
  std::snprintf(g_shard_tmp_path, sizeof(g_shard_tmp_path), "%s", tmp_path.c_str());
  const ScopedSignalHandlers guard(shard_interrupt);
  bool all_valid = false;
  {
    std::ofstream file(tmp_path);
    if (!file) {
      g_shard_tmp_path[0] = '\0';
      throw support::ContractViolation("cannot open " + tmp_path + " for writing");
    }
    all_valid = emit_shard(sweep, key, range, batch_options, file);
    file.flush();
    if (!file) {
      file.close();
      ::unlink(tmp_path.c_str());
      g_shard_tmp_path[0] = '\0';
      // Environment failure (disk full, I/O error), not misuse: exits 1.
      throw std::runtime_error("writing " + tmp_path + " failed");
    }
  }
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    g_shard_tmp_path[0] = '\0';
    throw std::runtime_error("renaming " + tmp_path + " to " + out_path + " failed");
  }
  g_shard_tmp_path[0] = '\0';
  return all_valid ? 0 : 1;
}

/// The zero-infrastructure distributed driver: split the sweep into
/// `workers` shards, run each in its own forked process writing a shard
/// report to a temp file, then merge the files end-to-end — the exact
/// pipeline a multi-host run performs, on one machine.
int run_workers_sweep(const engine::CountedSweep& sweep, const dist::SweepKey& key,
                      const engine::BatchOptions& batch_options, std::uint32_t workers) {
  // With the default --threads=0 every forked worker would size its pool
  // to the full hardware concurrency, oversubscribing the machine K-fold;
  // split the cores across the workers instead, remainder included, so no
  // core idles.  An explicit --threads is taken as a deliberate per-worker
  // choice and honoured as given.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const auto worker_threads = [&](std::uint32_t w) {
    if (batch_options.threads != 0) {
      return batch_options.threads;
    }
    return std::max(1u, cores / workers + (w < cores % workers ? 1 : 0));
  };
  const std::vector<dist::JobRange> ranges = dist::shard_ranges(sweep.count, workers);

  // Shard files live in a private 0700 temp directory (mkdtemp), so no
  // other local user can swap one for a symlink between creation and the
  // worker's write or the parent's read-back.
  std::string dir;
  {
    const char* tmpdir = std::getenv("TMPDIR");
    dir = std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
          "/arl-workers-XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr) {
      // Environment failure, not misuse: std::runtime_error exits 1.
      throw std::runtime_error("cannot create a temp directory for shard reports");
    }
  }
  std::vector<std::string> paths;
  std::vector<pid_t> children;
  paths.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    paths.push_back(dir + "/shard-" + std::to_string(w) + ".txt");
  }
  const auto cleanup = [&]() {
    for (const std::string& path : paths) {
      ::unlink(path.c_str());
    }
    ::rmdir(dir.c_str());
  };

  // Fork before any BatchRunner exists: the children must not inherit a
  // half-alive thread pool, and each builds its own below.  From here to
  // the last reap, SIGINT/SIGTERM only set a flag: the wait loop converts
  // it into SIGTERM for every child plus temp-file cleanup, so a Ctrl-C
  // orphans no worker and leaks no shard file.
  g_interrupted = 0;
  const ScopedSignalHandlers guard(flag_interrupt);
  std::cout.flush();
  std::cerr.flush();
  for (std::uint32_t w = 0; w < workers; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const pid_t child : children) {
        int status = 0;
        while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
        }
      }
      cleanup();
      // Environment failure, not misuse: std::runtime_error exits 1.
      throw std::runtime_error("fork failed while starting sweep workers");
    }
    if (pid == 0) {
      // Worker: back to default signal dispositions (a terminal Ctrl-C
      // delivers SIGINT to the whole foreground process group, and the
      // default action — die — is exactly right for a child whose partial
      // shard file the parent removes).
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      // Worker: run shard w, write its report, and _exit without touching
      // the parent's stdio buffers.
      // Failures are reported on the inherited (unbuffered) stderr before
      // _exit, so the parent's generic "a worker failed" has a cause next
      // to it in the terminal.
      int code = 3;
      try {
        engine::BatchOptions options = batch_options;
        options.threads = worker_threads(w);
        std::ofstream file(paths[w]);
        if (file) {
          const bool all_valid = emit_shard(sweep, key, ranges[w], options, file);
          file.flush();
          code = file ? (all_valid ? 0 : 1) : 3;
          if (!file) {
            std::cerr << "error: worker " << w << ": writing " << paths[w] << " failed\n";
          }
        } else {
          std::cerr << "error: worker " << w << ": cannot open " << paths[w]
                    << " for writing\n";
        }
      } catch (const std::exception& error) {
        std::cerr << "error: worker " << w << ": " << error.what() << '\n';
      } catch (...) {
        std::cerr << "error: worker " << w << ": unknown failure\n";
      }
      ::_exit(code);
    }
    children.push_back(pid);
  }

  bool worker_failed = false;
  bool children_signalled = false;
  // On interrupt, forward SIGTERM to every child once, then keep reaping —
  // no child may be left running.  Checked both on EINTR and between
  // waits, because the signal may land while no wait is in flight.
  const auto forward_interrupt = [&]() {
    if (g_interrupted != 0 && !children_signalled) {
      children_signalled = true;
      for (const pid_t worker : children) {
        ::kill(worker, SIGTERM);
      }
    }
  };
  for (const pid_t child : children) {
    int status = 0;
    pid_t reaped;
    for (;;) {
      forward_interrupt();
      reaped = ::waitpid(child, &status, 0);
      if (reaped >= 0 || errno != EINTR) {
        break;
      }
    }
    // A wait that never succeeded leaves the child's fate unknown — treat
    // it as a failure rather than reading a file it may still be writing.
    if (reaped != child || !WIFEXITED(status) || WEXITSTATUS(status) > 1) {
      worker_failed = true;
    }
  }
  if (g_interrupted != 0) {
    // Interrupted after every child was terminated and reaped: remove the
    // (possibly partial) shard files and exit with the conventional
    // interrupted status instead of merging a torso.
    cleanup();
    std::cerr << "error: sweep interrupted; workers terminated, shard files removed\n";
    return 130;
  }
  if (worker_failed) {
    cleanup();
    std::cerr << "error: a sweep worker process failed\n";
    return 1;
  }

  std::vector<dist::ShardReport> shards;
  shards.reserve(workers);
  for (const std::string& path : paths) {
    std::ifstream file(path);
    if (!file) {
      cleanup();
      std::cerr << "error: cannot read worker shard report " << path << '\n';
      return 1;
    }
    try {
      shards.push_back(dist::read_shard_report(file));
    } catch (const dist::ReportFormatError& error) {
      cleanup();
      std::cerr << "error: worker shard report " << path << ": " << error.what() << '\n';
      return 1;
    }
  }
  cleanup();

  const engine::BatchReport report = dist::complete_report(dist::merge_shards(shards));
  print_report(report);
  return report.valid_count == report.jobs.size() ? 0 : 1;
}

int cmd_sweep(const support::Args& args) {
  const std::int64_t count_flag = args.get_int("count", 100);
  if (count_flag < 0) {
    throw support::ContractViolation("--count must be >= 0");
  }
  const auto count = static_cast<std::size_t>(count_flag);
  // Guard against pathological worker counts: a typo'd --threads must fail
  // with a usage error, not silently spawn thousands of threads.
  const std::int64_t threads_flag = args.get_int("threads", 0);
  if (threads_flag < 0 || threads_flag > 256) {
    throw support::ContractViolation("--threads must be in [0, 256] (0 = hardware concurrency)");
  }

  engine::BatchOptions batch_options;
  batch_options.threads = static_cast<unsigned>(threads_flag);
  batch_options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  // Flag-validation throws (here and below) reach main()'s ContractViolation
  // handler, which exits 2 like every other usage error.
  batch_options.fault = sweep_fault(args);
  batch_options.cache_capacity = parse_cache_capacity(args);
  batch_options.store_directory = parse_store_directory(args);

  // The protocol axis: repeatable --protocol flags, validated against the
  // registry; several protocols make the batch a head-to-head cross product.
  const std::vector<core::ProtocolSpec> protocols = sweep_protocols(args);

  // The distributed axis: --shard=i/K emits one shard report, --workers=K
  // forks local workers and merges; they are drivers of the same sweep, so
  // combining them is a usage error.
  // Two shard notations: "i/K" (the planner's range) and "B-E" (an
  // explicit global job-id range — what `arl merge --missing` emits to
  // resume a partial sweep).  A dash dispatches to the range form.
  std::optional<dist::ShardSpec> shard;
  std::optional<dist::JobRange> resume_range;
  if (args.has("shard")) {
    const std::string value = args.get_string("shard", "");
    if (value.find('-') != std::string::npos) {
      resume_range = dist::parse_job_range(value);
    } else {
      shard = dist::parse_shard(value);
    }
  }
  std::optional<std::uint32_t> workers;
  if (args.has("workers")) {
    const std::int64_t workers_flag = args.get_int("workers", 0);
    if (workers_flag < 1 || workers_flag > 256) {
      throw support::ContractViolation("--workers must be in [1, 256]");
    }
    workers = static_cast<std::uint32_t>(workers_flag);
  }
  if ((shard || resume_range) && workers) {
    std::cerr << "error: --shard and --workers conflict; --shard runs one piece of a "
                 "distributed sweep, --workers drives all of them locally\n";
    return 2;
  }
  if (args.has("out") && !shard && !resume_range) {
    std::cerr << "error: --out only applies to --shard runs (the shard report destination)\n";
    return 2;
  }
  if (args.has("out") && args.get_string("out", "").empty()) {
    // An empty value is a mangled flag (e.g. an unset shell variable), not
    // a request for stdout — omitting --out entirely means stdout.
    std::cerr << "error: --out needs a file path (omit the flag to write to stdout)\n";
    return 2;
  }

  // The observability flags are plain-path features: shard reports carry no
  // phase data (timings are execution circumstances, excluded from the wire
  // format), and forked workers would interleave one trace file.
  const std::string metrics_out = args.get_string("metrics-out", "");
  if (args.has("metrics-out") && metrics_out.empty()) {
    std::cerr << "error: --metrics-out needs a file path\n";
    return 2;
  }
  const std::string trace_path = args.get_string("trace", "");
  if (args.has("trace") && trace_path.empty()) {
    std::cerr << "error: --trace needs a file path\n";
    return 2;
  }
  if ((args.has("metrics-out") || args.has("trace")) && (shard || resume_range || workers)) {
    std::cerr << "error: --metrics-out and --trace apply to plain sweeps only "
                 "(not --shard or --workers runs)\n";
    return 2;
  }

  // The workload axis: one registry spec, whether spelled as --workload or
  // through the legacy alias flags; identity (name + digest) feeds the
  // shard reports, so every workload shards, merges and caches uniformly.
  const engine::WorkloadSpec workload = sweep_workload(args);
  if (args.has("count") && workload.bounded()) {
    std::cerr << "error: --count conflicts with the self-counting workload '"
              << workload.name() << "' (its configuration count is implied)\n";
    return 2;
  }

  const engine::CountedSweep sweep =
      workload.instantiate(batch_options.seed, protocols, {.count = count});
  const dist::SweepKey key = dist::make_sweep_key(workload, sweep.count, protocols,
                                                  batch_options.seed, batch_options.fault);
  if (shard) {
    return run_shard_sweep(sweep, key, batch_options, dist::shard_range(sweep.count, *shard),
                           args.get_string("out", ""));
  }
  if (resume_range) {
    if (resume_range->end > sweep.count) {
      throw support::ContractViolation(
          "--shard range [" + std::to_string(resume_range->begin) + ", " +
          std::to_string(resume_range->end) + ") exceeds the sweep's " +
          std::to_string(sweep.count) + " jobs");
    }
    return run_shard_sweep(sweep, key, batch_options, *resume_range, args.get_string("out", ""));
  }
  if (workers) {
    return run_workers_sweep(sweep, key, batch_options, *workers);
  }

  std::optional<obs::JsonLinesTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink.emplace(trace_path);
    batch_options.job_trace = &*trace_sink;
  }
  engine::BatchRunner runner(batch_options);
  const engine::BatchReport report = runner.run(sweep.count, sweep.source);
  if (trace_sink) {
    trace_sink->flush();
  }
  if (!metrics_out.empty()) {
    write_metrics_json(report, metrics_out);
  }
  print_report(report);
  return report.valid_count == report.jobs.size() ? 0 : 1;
}

/// `arl workloads` — the registry listing, symmetric to the protocol list
/// CLI errors show: one row per registered workload (its canonical
/// default-parameter name) plus the spec grammar.
int cmd_workloads(const support::Args&) {
  support::Table table({"workload", "configurations"});
  for (const engine::WorkloadSpec& workload : engine::registered_workloads()) {
    table.add_row({workload.name(), workload.describe()});
  }
  table.print_markdown(std::cout);
  std::cout << "\nspec grammar: kind[:key=value,...] — " << engine::workload_names() << '\n';
  return 0;
}

/// `arl faults` — the registry listing, symmetric to `arl workloads`: one
/// row per registered fault (its canonical name) plus the spec grammar.
int cmd_faults(const support::Args&) {
  support::Table table({"fault", "effect"});
  for (const fault::FaultSpec& fault : fault::registered_faults()) {
    table.add_row({fault.name(), fault.describe()});
  }
  table.print_markdown(std::cout);
  std::cout << "\nspec grammar: kind[:param,...] — " << fault::fault_names() << '\n';
  return 0;
}

/// `arl merge SHARD-FILE...` — parse every shard report, verify they are
/// disjoint covering pieces of one sweep, and print the reassembled report
/// exactly as `arl sweep` would have.  Malformed or mismatched input exits
/// 2; nothing is ever merged silently.
int cmd_merge(const support::Args& args) {
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() < 2) {
    std::cerr << "error: merge needs at least one shard report file\n";
    return 2;
  }
  std::vector<dist::ShardReport> shards;
  shards.reserve(positional.size() - 1);
  for (std::size_t i = 1; i < positional.size(); ++i) {
    std::ifstream file(positional[i]);
    if (!file) {
      std::cerr << "error: cannot open " << positional[i] << '\n';
      return 2;
    }
    try {
      shards.push_back(dist::read_shard_report(file));
    } catch (const dist::ReportFormatError& error) {
      std::cerr << "error: " << positional[i] << ": " << error.what() << '\n';
      return 2;
    }
  }
  if (args.has("missing")) {
    // Coverage analysis instead of a merge: which job ids do the surviving
    // shard files NOT cover, and what exact commands re-run them.  Exit 0
    // either way — an incomplete sweep is the expected input here, not an
    // error; only unmergeable shards (different sweeps, overlaps) exit 2.
    dist::ShardReport merged;
    try {
      merged = dist::merge_shards(shards);
    } catch (const dist::MergeError& error) {
      std::cerr << "error: " << error.what() << '\n';
      return 2;
    }
    const std::vector<dist::JobRange> gaps = dist::missing_ranges(merged);
    if (gaps.empty()) {
      std::cerr << "coverage complete: all " << merged.key.total_jobs
                << " jobs present; `arl merge` (without --missing) yields the report\n";
      return 0;
    }

    // Reconstruct the sweep flags from the merged identity.  The workload
    // name is the canonical registry spelling (the report parser verified
    // the round trip), so it feeds --workload verbatim; unbounded workloads
    // additionally need the --count that produced total_jobs (= count × P).
    std::string flags = "--workload=" + merged.key.description;
    for (const std::string& protocol : merged.key.protocols) {
      flags += " --protocol=" + protocol;
    }
    flags += " --seed=" + std::to_string(merged.key.seed);
    if (merged.key.fault != "none") {
      flags += " --fault=" + merged.key.fault;
    }
    if (!engine::parse_workload(merged.key.description).bounded()) {
      flags += " --count=" +
               std::to_string(merged.key.total_jobs / merged.key.protocols.size());
    }

    engine::JobId missing_jobs = 0;
    for (const dist::JobRange& gap : gaps) {
      missing_jobs += gap.size();
      const std::string span = std::to_string(gap.begin) + "-" + std::to_string(gap.end);
      std::cout << "arl sweep " << flags << " --shard=" << span << " --out=resume-" << span
                << ".txt\n";
    }
    std::cerr << "coverage incomplete: " << missing_jobs << " of " << merged.key.total_jobs
              << " jobs missing across " << gaps.size()
              << " range(s); run the command(s) above, then merge the surviving and resumed "
                 "shard files together\n";
    return 0;
  }

  engine::BatchReport report;
  try {
    report = dist::complete_report(dist::merge_shards(shards));
  } catch (const dist::MergeError& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
  print_report(report);
  return report.valid_count == report.jobs.size() ? 0 : 1;
}

/// `arl serve` — run the sweep service until SIGINT/SIGTERM, then drain.
/// ServeError (bad socket, unsupported platform) reaches main()'s generic
/// handler and exits 1.
int cmd_serve(const support::Args& args) {
  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty()) {
    throw support::ContractViolation("serve needs --socket=PATH (the unix socket to listen on)");
  }
  const std::int64_t threads_flag = args.get_int("threads", 0);
  if (threads_flag < 0 || threads_flag > 256) {
    throw support::ContractViolation("--threads must be in [0, 256] (0 = hardware concurrency)");
  }
  const std::int64_t queue_flag = args.get_int("queue", 8);
  if (queue_flag < 1 || queue_flag > 4096) {
    throw support::ContractViolation("--queue must be in [1, 4096]");
  }

  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.threads = static_cast<unsigned>(threads_flag);
  // Unlike `sweep`, the cache defaults ON: cross-request reuse is the
  // service's whole point, so opting *out* is the explicit choice.
  options.cache_capacity = args.has("cache") ? parse_cache_capacity(args)
                                             : engine::ScheduleCache::kDefaultCapacity;
  options.store_directory = parse_store_directory(args);
  options.queue_limit = static_cast<std::size_t>(queue_flag);

  serve::SweepServer server(std::move(options));
  g_serve_stop_fd = server.stop_fd();
  const ScopedSignalHandlers guard(serve_interrupt);
  std::cerr << "arl serve: listening on " << socket_path << " (queue " << queue_flag
            << ", cache " << server.options().cache_capacity << " entries";
  if (!server.options().store_directory.empty()) {
    std::cerr << ", store " << server.options().store_directory;
  }
  std::cerr << ")\n";
  server.run();
  g_serve_stop_fd = -1;
  // The drain summary is the same ServerStats snapshot a `stats` request
  // returns, printed through the same formatter — the daemon's log and
  // `arl stats` can never disagree on a counter.
  std::cerr << "arl serve: drained\n";
  serve::print_stats(std::cerr, "arl serve: ", server.stats());
  return 0;
}

/// `arl stats` — query a running service for its live statistics snapshot.
/// The same ServerStats the daemon prints on drain, fetched over the wire.
int cmd_stats(const support::Args& args) {
  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty()) {
    throw support::ContractViolation("stats needs --socket=PATH (a running `arl serve` socket)");
  }
  const std::int64_t timeout_flag = args.get_int("timeout", 0);
  if (timeout_flag < 0 || timeout_flag > 86400) {
    throw support::ContractViolation("--timeout must be in [0, 86400] seconds (0 = wait forever)");
  }
  serve::Client client(socket_path, static_cast<unsigned>(timeout_flag));
  serve::print_stats(std::cout, "", client.stats());
  return 0;
}

/// `arl submit` — one sweep against a running service.  The response *is* a
/// shard report, so --out files feed `arl merge` unchanged; without --out a
/// full-range submission prints exactly the `arl sweep` tables, and a
/// --shard submission prints the raw report (like `sweep --shard`).
int cmd_submit(const support::Args& args) {
  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty()) {
    throw support::ContractViolation("submit needs --socket=PATH (a running `arl serve` socket)");
  }
  const std::int64_t timeout_flag = args.get_int("timeout", 0);
  if (timeout_flag < 0 || timeout_flag > 86400) {
    throw support::ContractViolation("--timeout must be in [0, 86400] seconds (0 = wait forever)");
  }
  serve::Client client(socket_path, static_cast<unsigned>(timeout_flag));

  if (args.has("ping")) {
    const serve::Response pong = client.ping();
    std::cout << "pong: cache " << pong.totals.hits << " hits, " << pong.totals.misses
              << " misses, " << pong.totals.entries << " entries\n";
    return 0;
  }

  serve::SweepRequest request;
  request.workload = sweep_workload(args);
  request.protocols = sweep_protocols(args);
  request.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  request.fault = sweep_fault(args);
  if (args.has("count") && request.workload.bounded()) {
    std::cerr << "error: --count conflicts with the self-counting workload '"
              << request.workload.name() << "' (its configuration count is implied)\n";
    return 2;
  }
  if (!request.workload.bounded()) {
    const std::int64_t count_flag = args.get_int("count", 100);
    if (count_flag < 1 || count_flag > static_cast<std::int64_t>(serve::kMaxRequestCount)) {
      throw support::ContractViolation("--count must be in [1, " +
                                       std::to_string(serve::kMaxRequestCount) + "]");
    }
    request.count = static_cast<std::uint64_t>(count_flag);
  }
  if (args.has("shard")) {
    request.shard = dist::parse_shard(args.get_string("shard", ""));
  }
  const std::int64_t threads_flag = args.get_int("threads", 0);
  if (threads_flag < 0 || threads_flag > static_cast<std::int64_t>(serve::kMaxRequestThreads)) {
    throw support::ContractViolation("--threads must be in [0, 256] (0 = the server's pool)");
  }
  if (threads_flag > 0) {
    request.threads = static_cast<std::uint64_t>(threads_flag);
  }
  if (args.has("cache")) {
    const std::string value = args.get_string("cache", "");
    if (value == "off") {
      request.use_cache = false;
    } else if (value != "on" && !value.empty()) {
      throw support::ContractViolation(
          "--cache must be on or off for submit (capacity is a server-side option)");
    }
  }

  const serve::SubmitResult result = client.submit(request);
  if (result.outcome.kind == serve::Response::Kind::Busy) {
    std::cerr << "error: server busy (queue limit " << result.outcome.queue_limit
              << "); try again\n";
    return 1;
  }
  if (result.outcome.kind == serve::Response::Kind::Error) {
    std::cerr << "error: server: " << result.outcome.message << '\n';
    return 1;
  }

  // The per-request / cumulative cache attribution from the done line, on
  // stderr so --out keeps stdout clean and scripts can key on the prefix.
  const serve::RequestCacheUse& used = result.outcome.request_cache;
  const serve::CacheTotals& totals = result.outcome.totals;
  std::cerr << "serve cache: " << used.hits << " hits, " << used.misses << " misses, "
            << used.schedule_builds << " schedule builds this request; cumulative "
            << totals.hits << " hits, " << totals.misses << " misses, " << totals.entries
            << " entries\n";

  // Parse the report even when only writing it to a file: the exit code
  // promises every job verified, and the end-line digest check catches a
  // response corrupted in flight.
  std::istringstream body(result.report);
  const dist::ShardReport shard = dist::read_shard_report(body);
  const bool all_valid = shard.report.valid_count == shard.report.jobs.size();

  const std::string out_path = args.get_string("out", "");
  if (args.has("out") && out_path.empty()) {
    std::cerr << "error: --out needs a file path (omit the flag to print tables)\n";
    return 2;
  }
  if (!out_path.empty()) {
    std::ofstream file(out_path);
    if (!file) {
      throw support::ContractViolation("cannot open " + out_path + " for writing");
    }
    file << result.report;
    file.flush();
    if (!file) {
      throw std::runtime_error("writing " + out_path + " failed");
    }
    return all_valid ? 0 : 1;
  }
  if (request.shard) {
    // A single shard is not the whole sweep; emit the raw report (exactly
    // what `sweep --shard` prints) for a later merge.
    std::cout << result.report;
    return all_valid ? 0 : 1;
  }
  const engine::BatchReport report = dist::complete_report(dist::merge_shards({shard}));
  print_report(report);
  return report.valid_count == report.jobs.size() ? 0 : 1;
}

int cmd_trace(const support::Args& args) {
  const config::Configuration c = read_configuration(args, 1);
  const auto schedule = core::make_schedule(c, parse_model(args));
  radio::StreamTrace trace(std::cout, args.has("verbose"));
  radio::SimulatorOptions options;
  options.trace = &trace;
  options.channel_model = schedule->model;
  const core::CanonicalDrip drip(schedule);
  const radio::RunResult run = radio::simulate(c, drip, options);
  const auto leaders = run.leaders();
  std::cout << (leaders.size() == 1
                    ? "leader: node " + std::to_string(leaders.front())
                    : "no unique leader")
            << '\n';
  return 0;
}

int cmd_schedule(const support::Args& args) {
  const config::Configuration c = read_configuration(args, 1);
  const auto schedule = core::make_schedule(c, parse_model(args));
  core::schedule_to_text(*schedule, std::cout);
  return 0;
}

int cmd_dot(const support::Args& args) {
  config::to_dot(read_configuration(args, 1), std::cout);
  return 0;
}

int cmd_orbits(const support::Args& args) {
  const config::Configuration c = read_configuration(args, 1);
  const core::SymmetryReport report = core::analyze_symmetry(c);
  std::cout << (report.feasible() ? "feasible" : "infeasible") << ": " << report.orbits.size()
            << " orbit(s) of indistinguishable nodes\n";
  for (const core::Orbit& orbit : report.orbits) {
    std::cout << "  orbit " << orbit.id << " {";
    for (std::size_t i = 0; i < orbit.members.size(); ++i) {
      std::cout << (i ? " " : "") << orbit.members[i];
    }
    std::cout << "}" << (orbit.members.size() == 1 ? "  <- electable" : "") << '\n';
  }
  std::cout << "quotient graph: " << report.quotient.node_count() << " orbit(s), "
            << report.quotient.edge_count() << " edge(s)\n";
  return report.feasible() ? 0 : 1;
}

int cmd_validate(const support::Args& args) {
  const config::Configuration c = read_configuration(args, 1);
  const auto schedule = core::make_schedule(c, parse_model(args));
  const core::CanonicalDrip drip(schedule);
  radio::ExecutionRecorder recorder;
  radio::SimulatorOptions options;
  options.trace = &recorder;
  options.history_window = 0;
  options.channel_model = schedule->model;
  const radio::RunResult run = radio::simulate(c, drip, options);
  const radio::ValidationReport report =
      radio::validate_execution(c, recorder, run, schedule->model);
  if (report.ok) {
    std::cout << "execution valid (" << report.checks << " checks)\n";
    return 0;
  }
  std::cout << "execution INVALID: " << report.error << '\n';
  return 1;
}

/// One `arl` subcommand: its handler and every flag it reads.  main()
/// rejects any other flag as a usage error (exit 2), so a misspelt or
/// retired flag fails instead of being silently ignored.
struct Command {
  std::string_view name;
  int (*run)(const support::Args&);
  std::vector<std::string_view> flags;
};

}  // namespace

int main(int argc, char** argv) {
  const support::Args args(argc, argv);
  // `arl`, `arl help` and `arl --help` are all requests for the reference,
  // not mistakes: print it to stdout and exit 0.
  if (args.has("help") || args.positional().empty() || args.positional().front() == "help") {
    print_usage(std::cout);
    return 0;
  }
  const std::vector<Command> commands = {
      {"gen", cmd_gen, {"family", "m", "n", "sigma", "p", "seed"}},
      {"classify", cmd_classify, {"model"}},
      {"elect", cmd_elect, {"model"}},
      {"sweep", cmd_sweep,
       {"workload", "family", "n", "sigma", "p", "model", "protocol", "classify-only",
        "seed", "fault", "count", "shard", "threads", "cache", "store", "workers", "out",
        "metrics-out", "trace"}},
      {"merge", cmd_merge, {"missing"}},
      {"serve", cmd_serve, {"socket", "threads", "cache", "store", "queue"}},
      {"submit", cmd_submit,
       {"workload", "family", "n", "sigma", "p", "model", "protocol", "classify-only",
        "seed", "fault", "count", "shard", "socket", "timeout", "ping", "threads", "cache",
        "out"}},
      {"stats", cmd_stats, {"socket", "timeout"}},
      {"workloads", cmd_workloads, {}},
      {"faults", cmd_faults, {}},
      {"trace", cmd_trace, {"model", "verbose"}},
      {"schedule", cmd_schedule, {"model"}},
      {"dot", cmd_dot, {}},
      {"orbits", cmd_orbits, {}},
      {"validate", cmd_validate, {"model"}},
  };
  const std::string& command = args.positional().front();
  const auto found = std::find_if(commands.begin(), commands.end(),
                                  [&](const Command& c) { return c.name == command; });
  if (found == commands.end()) {
    std::cerr << "error: unknown command '" << command << "' (see `arl help`)\n";
    return 2;
  }
  if (const auto flag = args.unknown_flag(found->flags)) {
    std::cerr << "error: unknown flag --" << *flag << " for `arl " << command
              << "` (see `arl help`)\n";
    return 2;
  }
  try {
    return found->run(args);
  } catch (const support::ContractViolation& error) {
    // Contract violations are misuse — bad flag values, unreadable input —
    // and exit 2 like every other usage error; runtime failures exit 1.
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
