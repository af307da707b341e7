// perfbench: the layer-attributed benchmark of the SCAN platform.
//
//   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//             [--tiny] [--out-dir=DIR]
//
// Runs one workload's timed loop for S wall seconds, checks its outputs,
// and prints human-readable notes followed by one JSON result line:
// end-to-end metrics with --trace=0, per-layer metrics with --trace=1.
// Exits 1 when a correctness check fails, 2 on bad arguments.
// perfbench/run.py builds this binary and is the entry point to use.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

struct WorkloadEntry {
  const char* name;
  Outcome (*run)(const RunOptions&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"serve_mixed", perfbench::RunServeMixed},
    {"serve_overload", perfbench::RunServeOverload},
    {"sim_fig4", perfbench::RunSimFig4},
    {"broker_feedback", perfbench::RunBrokerFeedback},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME [--seed=N] "
               "[--seconds=S] [--trace=0|1] [--tiny] [--out-dir=DIR]\n",
               why.c_str());
  std::exit(2);
}

double ParseNumber(std::string_view flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0') {
    Usage("bad value for --" + std::string(flag) + ": " + text);
  }
  return v;
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") Usage("unknown argument " + std::string(arg));
    const std::size_t eq = arg.find('=');
    const std::string_view key =
        arg.substr(2, eq == arg.npos ? arg.npos : eq - 2);
    const std::string value =
        eq == arg.npos ? std::string() : std::string(arg.substr(eq + 1));
    if (key == "workload") {
      opts.workload = value;
    } else if (key == "seed") {
      const double seed = ParseNumber(key, value);
      if (seed < 0) Usage("seed must be non-negative");
      opts.seed = static_cast<std::uint64_t>(seed);
    } else if (key == "seconds") {
      opts.seconds = ParseNumber(key, value);
      if (!(opts.seconds > 0)) Usage("seconds must be positive");
    } else if (key == "trace") {
      opts.trace = ParseNumber(key, value) != 0.0;
    } else if (key == "tiny") {
      opts.tiny = true;
    } else if (key == "out-dir") {
      opts.out_dir = value;
    } else {
      Usage("unknown flag --" + std::string(key));
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opts = ParseArgs(argc, argv);
  for (const WorkloadEntry& entry : kWorkloads) {
    if (opts.workload != entry.name) continue;
    try {
      Outcome out = entry.run(opts);
      out.Set("peak_rss_mb", perfbench::PeakRssMb());
      perfbench::RecordHost(out);
      const bool complete = out.Print(opts.trace);
      return complete && out.correct() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", entry.name, e.what());
      return 1;
    }
  }
  Usage("unknown workload '" + opts.workload + "'");
}
