// Reproduces the Table I experiment grid: "We explored all permutations of
// resource allocation algorithm, horizontal scaling algorithm, reward
// scheme and workload" (§IV-B), across the public-tier core costs.
//
// The paper reports the qualitative outcome: the proposed algorithms often
// beat their baselines, SCAN outperforms the best-constant baseline in
// many circumstances, and predictive scaling is a useful compromise
// between always- and never-scale. This binary runs the grid and prints
// per-cell mean profit, plus the summary comparisons.
//
// The full grid is 4 x 3 x 11 x 2 x 4 = 1056 configurations x 10
// repetitions; on a small machine that takes tens of minutes, so the
// default is a representative sub-grid (intervals {2.0, 2.5, 3.0}, public
// costs {20, 110}, 3 repetitions). Pass --full for the paper's grid.
//
// Flags: --full, --reps=N, --duration=TU, --csv=PATH, --json=PATH,
//        --verify
//
// --verify attaches the testkit invariant oracle to every run of the
// sweep (scan::testkit::RunSweepVerified): the same aggregates come back,
// plus a conservation-law audit of every simulation event. Non-zero
// violations exit 1.

#include <cstdio>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "scan/core/experiment.hpp"
#include "scan/testkit/scenario.hpp"

using namespace scan;
using namespace scan::core;

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto obs_session = bench::MakeObsSession(flags);
  const bool full = flags.Has("full");
  const bool verify = flags.Has("verify");
  const int reps = flags.GetInt("reps", full ? 10 : 3);
  const double duration = flags.GetDouble("duration", full ? 10000.0 : 2000.0);
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  Table1Grid grid;
  if (!full) {
    grid.mean_intervals = {2.0, 2.5, 3.0};
    grid.public_costs = {20.0, 110.0};
  }
  SimulationConfig base;
  base.duration = SimTime{duration};
  const auto configs = grid.Expand(base);

  std::cout << "Table I sweep: " << configs.size() << " configurations x "
            << reps << " repetitions (duration " << duration << " TU)"
            << (full ? " [--full]" : " [sampled grid; --full for the paper's]")
            << (verify ? " [--verify: invariant oracle attached]" : "")
            << "\n\n";

  ThreadPool pool;
  std::vector<AggregateMetrics> results;
  int verify_exit = 0;
  if (verify) {
    const testkit::VerifiedSweep sweep =
        testkit::RunSweepVerified(configs, reps, pool);
    results = sweep.aggregates;
    std::cout << "verify: " << sweep.events_checked << " events checked over "
              << sweep.runs << " runs, " << sweep.violation_count
              << " invariant violations\n";
    for (const std::string& violation : sweep.violations) {
      std::cout << "  " << violation << "\n";
    }
    std::cout << "\n";
    if (!sweep.ok()) verify_exit = 1;
  } else {
    results = RunSweep(configs, reps, pool);
  }

  CsvTable table({"allocation", "scaling", "interval", "reward", "pub_cost",
                  "profit_per_run", "profit_sd", "reward_to_cost",
                  "jobs_completed"});
  for (const AggregateMetrics& agg : results) {
    const SimulationConfig& c = agg.config;
    table.AddRow({AllocationAlgorithmName(c.allocation),
                  ScalingAlgorithmName(c.scaling),
                  CsvTable::Num(c.mean_interarrival_tu),
                  workload::RewardSchemeName(c.reward_scheme),
                  CsvTable::Num(c.public_cost_per_core_tu),
                  CsvTable::Num(agg.profit_per_run.mean()),
                  CsvTable::Num(agg.profit_per_run.stddev()),
                  CsvTable::Num(agg.reward_to_cost.mean()),
                  CsvTable::Num(agg.jobs_completed.mean())});
  }
  bench::Emit(table, output);

  // Summary claims. Group by (interval, reward, cost) cell.
  struct CellBest {
    double best_constant = -1e300;
    double best_dynamic = -1e300;    // greedy / long-term / adaptive
    double predictive = -1e300;
    double always = -1e300;
    double never = -1e300;
  };
  std::map<std::string, CellBest> cells;
  for (const AggregateMetrics& agg : results) {
    const SimulationConfig& c = agg.config;
    const std::string key =
        StrFormat("%.1f/%d/%.0f", c.mean_interarrival_tu,
                  static_cast<int>(c.reward_scheme), c.public_cost_per_core_tu);
    CellBest& cell = cells[key];
    const double profit = agg.profit_per_run.mean();
    if (c.allocation == AllocationAlgorithm::kBestConstant) {
      cell.best_constant = std::max(cell.best_constant, profit);
    } else {
      cell.best_dynamic = std::max(cell.best_dynamic, profit);
    }
    if (c.scaling == ScalingAlgorithm::kPredictive) {
      cell.predictive = std::max(cell.predictive, profit);
    } else if (c.scaling == ScalingAlgorithm::kAlwaysScale) {
      cell.always = std::max(cell.always, profit);
    } else {
      cell.never = std::max(cell.never, profit);
    }
  }
  int dynamic_wins = 0;
  int predictive_compromise = 0;
  for (const auto& [key, cell] : cells) {
    if (cell.best_dynamic >= cell.best_constant) ++dynamic_wins;
    if (cell.predictive >= std::min(cell.always, cell.never)) {
      ++predictive_compromise;
    }
  }
  std::cout << "\nsummary (paper: 'SCAN outperforms the best-constant "
               "baseline in many circumstances'):\n"
            << "  dynamic allocation >= best-constant in " << dynamic_wins
            << " of " << cells.size() << " workload cells\n"
            << "  predictive >= min(always, never) in "
            << predictive_compromise << " of " << cells.size()
            << " workload cells\n";
  return verify_exit;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
