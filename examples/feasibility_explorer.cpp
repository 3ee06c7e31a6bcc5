/// \file feasibility_explorer.cpp
/// Survey the landscape of feasible configurations.
///
/// Part 1 exhaustively classifies every connected configuration up to a
/// small size (the same sweep the paper's characterization makes tractable:
/// Classifier runs in polynomial time, so millions of configurations are
/// cheap).  Part 2 estimates feasibility rates for larger random networks
/// across a span sweep.  Both parts are plain workload-registry specs —
/// `exhaustive:n=N,tau=T` and `random:n=N,p=X,sigma=S` — instantiated and
/// handed to the batch election engine, which fans the work out over all
/// cores.
///
/// Usage: feasibility_explorer [--max-n=4] [--max-tag=2] [--samples=500]
///                             [--random-n=20] [--p=0.3]

#include <algorithm>
#include <iostream>

#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

using namespace arl;

void exhaustive_census(std::uint32_t max_n, std::uint32_t max_tag) {
  engine::BatchRunner runner;
  support::Table table({"n", "configurations", "feasible", "infeasible", "feasible %",
                        "max iterations", "time_ms"});
  for (std::uint32_t n = 1; n <= max_n; ++n) {
    // Self-counting lazy workload: only the graphs are materialized, so a
    // large census never holds more than one configuration per worker.
    const engine::WorkloadSpec census = engine::WorkloadSpec::exhaustive(n, max_tag);
    const engine::CountedSweep sweep =
        census.instantiate(0, {core::ProtocolSpec::classify_only()});
    const engine::BatchReport report = runner.run(sweep.count, sweep.source);
    std::uint32_t max_iterations = 0;
    for (const engine::JobOutcome& outcome : report.jobs) {
      max_iterations = std::max(max_iterations, outcome.classifier_iterations);
    }
    const auto configs = static_cast<std::int64_t>(report.jobs.size());
    table.add_row({static_cast<std::int64_t>(n), configs,
                   static_cast<std::int64_t>(report.feasible_count),
                   configs - static_cast<std::int64_t>(report.feasible_count),
                   100.0 * static_cast<double>(report.feasible_count) /
                       static_cast<double>(report.jobs.size()),
                   static_cast<std::int64_t>(max_iterations), report.wall_millis});
  }
  std::cout << "\n## Exhaustive census (tags 0.." << max_tag << ")\n\n";
  table.print_markdown(std::cout);
}

void random_survey(std::uint32_t n, double p, std::size_t samples) {
  engine::BatchRunner runner;
  support::Table table({"sigma", "feasible %", "avg iterations"});
  table.set_precision(3);
  for (const std::uint32_t sigma : {1u, 2u, 3u, 5u, 8u, 13u}) {
    const engine::WorkloadSpec survey = engine::WorkloadSpec::random(n, p, sigma);
    const engine::CountedSweep sweep = survey.instantiate(
        0xCAFE + sigma, {core::ProtocolSpec::classify_only()}, {.count = samples});
    const engine::BatchReport report = runner.run(sweep.count, sweep.source);
    std::uint64_t iterations = 0;
    for (const engine::JobOutcome& outcome : report.jobs) {
      iterations += outcome.classifier_iterations;
    }
    table.add_row({static_cast<std::int64_t>(sigma),
                   100.0 * static_cast<double>(report.feasible_count) /
                       static_cast<double>(samples),
                   static_cast<double>(iterations) / static_cast<double>(samples)});
  }
  std::cout << "\n## Random survey: G(n=" << n << ", p=" << p << "), " << samples
            << " samples per span, " << runner.threads() << " worker thread(s)\n\n";
  table.print_markdown(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const support::Args args(argc, argv);
  const auto max_n = static_cast<std::uint32_t>(args.get_int("max-n", 4));
  const auto max_tag = static_cast<std::uint32_t>(args.get_int("max-tag", 2));
  const auto samples = static_cast<std::size_t>(args.get_int("samples", 500));
  const auto random_n = static_cast<std::uint32_t>(args.get_int("random-n", 20));
  const double p = args.get_double("p", 0.3);

  exhaustive_census(max_n, max_tag);
  random_survey(random_n, p, samples);

  std::cout << "\nReading the numbers: feasibility requires wakeup asymmetry.  With a\n"
               "larger span the adversary has fewer ways to keep nodes symmetric, so\n"
               "the feasible fraction climbs toward 1; configurations with all-equal\n"
               "tags are never feasible (n >= 2), which bounds the rate away from 1\n"
               "for small spans.\n";
  return 0;
}
