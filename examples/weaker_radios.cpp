/// \file weaker_radios.cpp
/// What does collision detection buy?  (Extension beyond the paper.)
///
/// The paper's model lets listeners distinguish noise (∗) from silence.
/// This demo re-evaluates feasibility when that capability is removed —
/// collisions become inaudible, as in classic no-CD radio networks:
///   1. a hand-checkable witness where CD is essential (a star whose hub is
///      only distinguishable through the collision of its leaves),
///   2. exhaustive small-n counts of configurations that lose feasibility,
///   3. a full no-CD election on a configuration that stays feasible.
///
/// Usage: weaker_radios [--max-n=4]

#include <iostream>

#include "config/families.hpp"
#include "core/classifier.hpp"
#include "core/election.hpp"
#include "graph/enumeration.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

using namespace arl;

void witness() {
  std::cout << "== A witness: K_{1,3} with tags 0,1,1,0 ==\n\n";
  const config::Configuration c(graph::star(4), {0, 1, 1, 0});
  const bool cd = core::Classifier{}.run(c).feasible();
  const bool nocd =
      core::Classifier(radio::ChannelModel::NoCollisionDetection).run(c).feasible();
  std::cout << "with collision detection:    " << (cd ? "feasible" : "infeasible") << '\n';
  std::cout << "without collision detection: " << (nocd ? "feasible" : "infeasible") << '\n';
  std::cout << "\nWhy: the two tag-1 leaves always transmit together, so the hub only\n"
               "ever hears their *collision*.  With CD that noise separates the hub\n"
               "from the silent tag-0 leaf; without CD the hub and that leaf hear\n"
               "identical silence forever and stay interchangeable.\n\n";
}

void census(graph::NodeId max_n) {
  std::cout << "== Exhaustive census: feasibility under weaker feedback ==\n\n";
  support::Table table({"n", "configs", "feasible (CD)", "feasible (no CD)", "lost %"});
  table.set_precision(3);
  for (graph::NodeId n = 1; n <= max_n; ++n) {
    std::uint64_t configs = 0;
    std::uint64_t cd_count = 0;
    std::uint64_t nocd_count = 0;
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      std::vector<config::Tag> tags(n, 0);
      for (;;) {
        const config::Configuration c(g, tags);
        ++configs;
        cd_count += core::Classifier{}.run(c).feasible() ? 1 : 0;
        nocd_count += core::Classifier(radio::ChannelModel::NoCollisionDetection)
                              .run(c)
                              .feasible()
                          ? 1
                          : 0;
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
                   static_cast<std::int64_t>(cd_count), static_cast<std::int64_t>(nocd_count),
                   cd_count == 0 ? 0.0
                                 : 100.0 * static_cast<double>(cd_count - nocd_count) /
                                       static_cast<double>(cd_count)});
  }
  table.print_markdown(std::cout);
  std::cout << "\nEvery no-CD-feasible configuration is CD-feasible (weaker feedback\n"
               "never helps); the converse fails on the witnesses counted above.\n\n";
}

void nocd_election() {
  std::cout << "== A complete election without collision detection ==\n\n";
  const config::Configuration c = config::family_h(3);
  core::ElectionOptions options;
  options.channel_model = radio::ChannelModel::NoCollisionDetection;
  const core::ElectionReport report = core::elect(c, options);
  std::cout << "configuration: H_3 (path a-b-c-d, tags 3,0,0,4)\n";
  std::cout << "feasible without CD: " << (report.feasible ? "yes" : "no") << '\n';
  if (report.leader) {
    std::cout << "leader: node " << *report.leader << '\n';
  }
  std::cout << "rounds: " << report.local_rounds << ", verified: "
            << (report.valid ? "ok" : "FAILED") << '\n';
  std::cout << "\nH_m never relies on collisions (every slot has at most one\n"
               "transmitter), so the canonical machinery carries over verbatim.\n"
               "Caveat recorded in DESIGN.md: under no-CD the classifier's \"No\" is\n"
               "a conjecture — the paper's optimality proof (Lemma 3.14) uses CD.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const support::Args args(argc, argv);
  witness();
  census(static_cast<graph::NodeId>(args.get_int("max-n", 4)));
  nocd_election();
  return 0;
}
