// Reproduces Figure 4: "Profit vs. mean arrival interval for various
// horizontal scaling functions".
//
// Paper setup: time-based reward, public-tier hire cost 50 CU/TU,
// best-constant resource allocation; mean inter-arrival interval swept
// 2.0 .. 3.0 TU; 10 repetitions; error bars = 1 standard deviation.
//
// Expected shape (paper §IV-B): the predictive algorithm mimics never-scale
// under a light workload (large interval) and always-scale under heavy
// load (small interval); at intermediate loads it is marginally better
// than either baseline.
//
// Flags: --reps=N (default 10), --duration=TU (default 10000),
//        --quick (reps=3, duration=2000), --csv=PATH, --json=PATH

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "scan/core/experiment.hpp"

using namespace scan;
using namespace scan::core;

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto obs_session = bench::MakeObsSession(flags);
  const bool quick = flags.Has("quick");
  const int reps = flags.GetInt("reps", quick ? 3 : 10);
  const double duration = flags.GetDouble("duration", quick ? 2000.0 : 10000.0);
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  std::cout << "Figure 4: profit vs. mean arrival interval "
               "(time-based reward, public cost 50, best-constant plan)\n"
            << "repetitions=" << reps << " duration=" << duration << " TU\n\n";

  const std::vector<ScalingAlgorithm> scalings = {
      ScalingAlgorithm::kPredictive, ScalingAlgorithm::kAlwaysScale,
      ScalingAlgorithm::kNeverScale};
  const std::vector<double> intervals = {2.0, 2.1, 2.2, 2.3, 2.4, 2.5,
                                         2.6, 2.7, 2.8, 2.9, 3.0};

  std::vector<SimulationConfig> configs;
  for (const double interval : intervals) {
    for (const ScalingAlgorithm scaling : scalings) {
      SimulationConfig config;
      config.duration = SimTime{duration};
      config.reward_scheme = workload::RewardScheme::kTimeBased;
      config.public_cost_per_core_tu = 50.0;
      config.allocation = AllocationAlgorithm::kBestConstant;
      config.mean_interarrival_tu = interval;
      config.scaling = scaling;
      configs.push_back(std::move(config));
    }
  }

  ThreadPool pool;
  const auto results = RunSweep(configs, reps, pool);

  CsvTable table({"interval_tu", "predictive", "always_scale", "never_scale",
                  "predictive_sd", "always_sd", "never_sd"});
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const auto& predictive = results[i * 3 + 0].profit_per_run;
    const auto& always = results[i * 3 + 1].profit_per_run;
    const auto& never = results[i * 3 + 2].profit_per_run;
    table.AddRow({CsvTable::Num(intervals[i]), CsvTable::Num(predictive.mean()),
                  CsvTable::Num(always.mean()), CsvTable::Num(never.mean()),
                  CsvTable::Num(predictive.stddev()),
                  CsvTable::Num(always.stddev()),
                  CsvTable::Num(never.stddev())});
  }
  bench::Emit(table, output);

  // Shape checks reported alongside the series.
  const auto profit = [&](std::size_t interval_idx, std::size_t scaling_idx) {
    return results[interval_idx * 3 + scaling_idx].profit_per_run.mean();
  };
  const std::size_t last = intervals.size() - 1;
  std::cout << "\nshape: heavy-load (2.0) never-scale is worst: "
            << (profit(0, 2) < profit(0, 0) && profit(0, 2) < profit(0, 1)
                    ? "yes"
                    : "NO")
            << "\nshape: light-load (3.0) predictive tracks never-scale "
               "within 1 sd: "
            << (std::abs(profit(last, 0) - profit(last, 2)) <=
                        results[last * 3 + 0].profit_per_run.stddev() +
                            results[last * 3 + 2].profit_per_run.stddev() +
                            50.0
                    ? "yes"
                    : "NO")
            << "\nshape: light-load (3.0) always-scale is lowest: "
            << (profit(last, 1) < profit(last, 0) &&
                        profit(last, 1) < profit(last, 2)
                    ? "yes"
                    : "NO")
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
