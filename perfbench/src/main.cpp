/// \file main.cpp
/// The sweep benchmark program.
///
///   arl_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--run-dir DIR] [--spans-out FILE] [--tiny] [--corrupt-reference]
///
/// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1)
/// the per-layer ledger.  Human-readable rows come first; the last line of
/// standard output is one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value": V, "unit": U}}}
///
/// Exit codes: 0 after a completed run (correct or not), 2 on bad arguments,
/// 1 when the run itself failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

#include <unistd.h>

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "arl_perfbench: " << why << "\n"
            << "usage: arl_perfbench --workload sparse-sim|dense-classify|store-preloaded|served"
               " --seed N --seconds S --trace 0|1 [--run-dir DIR] [--spans-out FILE] [--tiny]"
               " [--corrupt-reference]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(flag + " needs a value");
      }
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") {
          usage("--trace takes 0 or 1");
        }
        args.trace = trace == "1";
      } else if (flag == "--run-dir") {
        args.run_dir = value();
      } else if (flag == "--spans-out") {
        args.spans_out = value();
      } else if (flag == "--tiny") {
        args.tiny = true;
      } else if (flag == "--corrupt-reference") {
        args.corrupt_reference = true;
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(args.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  if (args.run_dir.empty()) {
    args.run_dir = "perfbench-run-" + std::to_string(::getpid());
  }
  return args;
}

/// A JSON number with every digit the double carries.
std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

void print(const Args& args, const Result& result) {
  std::cout << "workload " << args.workload << " seed " << args.seed
            << (args.trace ? " (traced)" : "") << "\n";
  const auto row = [](const Metric& metric) {
    std::cout << "  " << metric.name << " = " << number(metric.value) << " " << metric.unit
              << "\n";
  };
  for (const Metric& metric : result.metrics) {
    row(metric);
  }
  const double fail_frac = result.attempted == 0 ? 0.0
                                                 : static_cast<double>(result.failed) /
                                                       static_cast<double>(result.attempted);
  row({"fail_frac", fail_frac, "ratio"});
  for (const Metric& metric : result.extra) {
    row(metric);
  }
  if (!result.exact.empty()) {
    std::cout << "  exact_counters =";
    for (const std::string& name : result.exact) {
      std::cout << " " << name;
    }
    std::cout << "\n";
  }
  std::cout << "{\"correct\": " << (result.correct && result.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << metric.name << "\": {\"value\": "
              << number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::filesystem::path run_dir = args.run_dir;
  int status = 0;
  try {
    std::filesystem::create_directories(run_dir);
    Result result;
    if (args.workload == "served") {
      perfbench::run_served(args, result);
    } else if (!perfbench::run_local(args, result)) {
      std::filesystem::remove_all(run_dir);
      usage("unknown workload " + args.workload);
    }
    if (result.attempted == 0) {
      throw std::runtime_error("no job was attempted");
    }
    print(args, result);
  } catch (const std::exception& failure) {
    std::cerr << "arl_perfbench: " << failure.what() << "\n";
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(run_dir, ignored);
  return status;
}
