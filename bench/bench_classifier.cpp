/// \file bench_classifier.cpp
/// E1 (Theorem 3.17) + E2 (Lemma 3.5): Classifier correctness agreement and
/// O(n³Δ) scaling.
///
/// Table 1 — agreement: Classifier vs canonical-DRIP simulation over
/// exhaustive small configurations (the bench-time version of
/// tests/test_exhaustive.cpp).
/// Table 2 — scaling: measured time and instrumented step counts against the
/// n³Δ envelope on paths (Δ=2) and complete graphs (Δ=n-1).

#include <vector>

#include "bench_common.hpp"
#include "config/families.hpp"
#include "core/election.hpp"
#include "graph/enumeration.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace arl;

void print_agreement_table() {
  support::Table table(
      {"n", "configs (graphs x tags)", "simulation valid", "feasible", "feasible %"});
  for (graph::NodeId n = 1; n <= 4; ++n) {
    std::uint64_t configs = 0;
    std::uint64_t valid = 0;
    std::uint64_t feasible = 0;
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      std::vector<config::Tag> tags(n, 0);
      for (;;) {
        const config::Configuration c(g, tags);
        ++configs;
        const auto report = core::elect(c);
        valid += report.valid ? 1 : 0;
        feasible += report.feasible ? 1 : 0;
        graph::NodeId position = 0;
        while (position < n && tags[position] == 2) {
          tags[position] = 0;
          ++position;
        }
        if (position == n) {
          break;
        }
        ++tags[position];
      }
    });
    table.add_row({static_cast<std::int64_t>(n), static_cast<std::int64_t>(configs),
                   static_cast<std::int64_t>(valid),
                   static_cast<std::int64_t>(feasible),
                   100.0 * static_cast<double>(feasible) / static_cast<double>(configs)});
  }
  benchsupport::print_table(
      "E1 — Classifier agreement (exhaustive configurations, tags in {0,1,2})", table);
}

void print_scaling_table() {
  support::Table table(
      {"family", "n", "Delta", "steps", "steps/(n^3*Delta)", "time_ms", "iterations"});
  support::Rng rng(7);
  auto row = [&](const std::string& family, config::Configuration c) {
    const auto n = static_cast<double>(c.size());
    const auto delta = static_cast<double>(c.graph().max_degree());
    support::Stopwatch watch;
    const auto result = core::Classifier{}.run(c);
    const double ms = watch.millis();
    table.add_row({family, static_cast<std::int64_t>(c.size()),
                   static_cast<std::int64_t>(c.graph().max_degree()),
                   static_cast<std::int64_t>(result.steps),
                   static_cast<double>(result.steps) / (n * n * n * delta), ms,
                   static_cast<std::int64_t>(result.iterations)});
  };
  for (const graph::NodeId n : {17u, 33u, 65u, 129u, 257u}) {
    // G_m-style hard paths exercise the full ceil(n/2)-iteration depth.
    const config::Tag m = (n - 1) / 4;
    row("path G_m", config::family_g(m));
  }
  for (const graph::NodeId n : {16u, 32u, 64u, 128u}) {
    std::vector<config::Tag> tags(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      tags[v] = v % 2;  // two-valued tags keep iterations interesting
    }
    row("complete", config::Configuration(graph::complete(n), tags));
  }
  for (const graph::NodeId n : {16u, 32u, 64u, 128u}) {
    row("gnp(0.1)", config::random_tags(graph::gnp_connected(n, 0.1, rng), 3, rng));
  }
  benchsupport::print_table("E2 — Classifier scaling against the O(n^3*Delta) envelope", table);
}

void print_tables() {
  print_agreement_table();
  print_scaling_table();
}

// ------------------------------------------------------------- timed series

void BM_ClassifierOnFamilyG(benchmark::State& state) {
  const auto m = static_cast<config::Tag>(state.range(0));
  const config::Configuration c = config::family_g(m);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto result = core::Classifier{}.run(c);
    benchmark::DoNotOptimize(result.verdict);
    steps = result.steps;
  }
  state.counters["n"] = static_cast<double>(c.size());
  state.counters["steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_ClassifierOnFamilyG)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ClassifierOnComplete(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  std::vector<config::Tag> tags(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    tags[v] = v % 2;
  }
  const config::Configuration c(graph::complete(n), tags);
  for (auto _ : state) {
    const auto result = core::Classifier{}.run(c);
    benchmark::DoNotOptimize(result.verdict);
  }
}
BENCHMARK(BM_ClassifierOnComplete)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

}  // namespace

ARL_BENCH_MAIN(print_tables)
