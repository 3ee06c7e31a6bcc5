/// \file quickstart.cpp
/// Five-minute tour of the library: build a configuration, decide whether a
/// leader can be elected on it at all (Classifier), and — when it can — run
/// the canonical distributed protocol on the radio simulator and watch one
/// node elect itself.
///
/// Usage: quickstart [--m=3]

#include <iostream>

#include "config/families.hpp"
#include "config/io.hpp"
#include "core/election.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace arl;
  const support::Args args(argc, argv);
  const auto m = static_cast<config::Tag>(args.get_int("m", 3));

  // The paper's 4-node family H_m: a path a-b-c-d with wakeup tags
  // m, 0, 0, m+1.  Lemma 4.2 proves it feasible.
  const config::Configuration configuration = config::family_h(m);
  std::cout << "Configuration H_" << m << " (n=" << configuration.size()
            << ", span=" << configuration.span() << "):\n"
            << config::to_text_string(configuration) << '\n';

  // One call does everything: runs Classifier (Theorem 3.17), compiles the
  // canonical DRIP (§3.3.1), executes it on the simulator, verifies the
  // outcome.
  const core::ElectionReport report = core::elect(configuration);

  std::cout << "feasible:      " << (report.feasible ? "yes" : "no") << '\n';
  std::cout << "iterations:    " << report.classification->iterations << '\n';
  if (report.leader) {
    std::cout << "leader:        node " << *report.leader << '\n';
  }
  std::cout << "local rounds:  " << report.local_rounds << " (bound O(n^2*sigma))\n";
  std::cout << "global rounds: " << report.global_rounds << '\n';
  std::cout << "verified:      " << (report.valid ? "ok" : "FAILED") << '\n';
  return report.valid ? 0 : 1;
}
