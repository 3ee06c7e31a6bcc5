/// \file bench_hardness.cpp
/// E13 (extension): how extremal are the paper's hand-built families?
/// For each topology, search for the tag assignment that maximizes
/// Classifier iterations (the refinement depth).  Lemma 3.4 caps the depth
/// at ceil(n/2); Proposition 4.1's G_m construction reaches ~n/4 on paths.
/// The tables compare the found worst cases against both yardsticks, and a
/// second table shows which topologies are "deep" at all (complete graphs
/// collapse in O(1) iterations; paths can be driven linearly deep).

#include "bench_common.hpp"
#include "config/families.hpp"
#include "core/classifier.hpp"
#include "graph/generators.hpp"
#include "lowerbounds/hardness.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;

void print_tables() {
  {
    // Exhaustive binary-tag hardness on paths vs the G_m pattern.
    support::Table table({"path n", "hardest iterations (exhaustive, tags {0,1})",
                          "G_m iterations (m=(n-1)/4)", "ceil(n/2) cap"});
    for (const graph::NodeId n : {5u, 9u, 13u, 17u}) {
      const auto hardest = lowerbounds::hardest_tags_exhaustive(graph::path(n), 1);
      std::int64_t gm_iterations = 0;
      if ((n - 1) % 4 == 0 && (n - 1) / 4 >= 2) {
        gm_iterations = static_cast<std::int64_t>(
            core::Classifier{}.run(config::family_g((n - 1) / 4)).iterations);
      }
      table.add_row({static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(hardest.iterations), gm_iterations,
                     static_cast<std::int64_t>((n + 1) / 2)});
    }
    benchsupport::print_table(
        "E13a — worst-case refinement depth on paths (exhaustive search)", table);
  }
  {
    // Hill-climbing hardness across topologies.
    support::Table table({"topology", "n", "max_tag", "hardest iterations found",
                          "feasible", "evaluations"});
    support::Rng rng(77);
    auto row = [&](const std::string& name, const graph::Graph& g, config::Tag max_tag) {
      support::Rng search_rng = rng.split(g.node_count() ^ (max_tag << 8));
      const auto result =
          lowerbounds::hardest_tags_search(g, max_tag, search_rng, 3000);
      table.add_row({name, static_cast<std::int64_t>(g.node_count()),
                     static_cast<std::int64_t>(max_tag),
                     static_cast<std::int64_t>(result.iterations),
                     std::string(result.feasible ? "yes" : "no"),
                     static_cast<std::int64_t>(result.evaluated)});
    };
    row("path", graph::path(25), 1);
    row("path", graph::path(25), 3);
    row("cycle", graph::cycle(24), 1);
    row("grid 5x5", graph::grid(5, 5), 1);
    row("complete", graph::complete(25), 3);
    row("star", graph::star(25), 3);
    row("binary tree", graph::binary_tree(25), 1);
    benchsupport::print_table(
        "E13b — hardest tag assignments by topology (hill climbing, 3000 evals)", table);
  }
}

void BM_ExhaustiveHardness(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::path(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lowerbounds::hardest_tags_exhaustive(g, 1).iterations);
  }
}
BENCHMARK(BM_ExhaustiveHardness)->Arg(9)->Arg(13)->Arg(17);

void BM_SearchHardness(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::path(n);
  support::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lowerbounds::hardest_tags_search(g, 1, rng, 500).iterations);
  }
}
BENCHMARK(BM_SearchHardness)->Arg(17)->Arg(33)->Arg(65);

}  // namespace

ARL_BENCH_MAIN(print_tables)
