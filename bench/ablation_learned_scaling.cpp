// Extension bench: the paper's future work — "we plan to adopt learning
// algorithms to guide the Scheduler" — implemented as an epsilon-greedy
// bandit that re-selects among {never-scale, always-scale, predictive}
// every epoch based on the realized profit rate.
//
// The interesting question: without being told the load, does the learned
// policy track the best static policy across the whole load range? (The
// static best flips from always/predictive at heavy load to
// never/predictive at light load.)
//
// Flags: --reps=N (default 5), --duration=TU (default 5000),
//        --epoch=TU (default 50), --csv=PATH

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "scan/core/experiment.hpp"

using namespace scan;
using namespace scan::core;

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto obs_session = bench::MakeObsSession(flags);
  const int reps = flags.GetInt("reps", 5);
  const double duration = flags.GetDouble("duration", 5000.0);
  const double epoch = flags.GetDouble("epoch", 50.0);
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  std::cout << "Extension: learned (bandit) scaling vs. static policies\n"
            << "epoch " << epoch << " TU, epsilon 0.1, " << reps << " reps x "
            << duration << " TU\n\n";

  const std::vector<double> intervals = {2.0, 2.2, 2.4, 2.6, 2.8, 3.0};
  const std::vector<ScalingAlgorithm> scalings = {
      ScalingAlgorithm::kNeverScale, ScalingAlgorithm::kAlwaysScale,
      ScalingAlgorithm::kPredictive, ScalingAlgorithm::kLearnedBandit};

  std::vector<SimulationConfig> configs;
  for (const double interval : intervals) {
    for (const ScalingAlgorithm scaling : scalings) {
      SimulationConfig config;
      config.duration = SimTime{duration};
      config.mean_interarrival_tu = interval;
      config.scaling = scaling;
      config.bandit_epoch = SimTime{epoch};
      configs.push_back(std::move(config));
    }
  }
  ThreadPool pool;
  const auto results = RunSweep(configs, reps, pool);

  CsvTable table({"interval", "never", "always", "predictive", "bandit",
                  "bandit_vs_best_static"});
  double total_regret = 0.0;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const double never = results[i * 4 + 0].profit_per_run.mean();
    const double always = results[i * 4 + 1].profit_per_run.mean();
    const double predictive = results[i * 4 + 2].profit_per_run.mean();
    const double bandit = results[i * 4 + 3].profit_per_run.mean();
    const double best_static = std::max({never, always, predictive});
    total_regret += best_static - bandit;
    table.AddRow({CsvTable::Num(intervals[i]), CsvTable::Num(never),
                  CsvTable::Num(always), CsvTable::Num(predictive),
                  CsvTable::Num(bandit),
                  CsvTable::Num(bandit - best_static)});
  }
  bench::Emit(table, output);

  std::cout << "\nmean regret vs. best static policy: "
            << CsvTable::Num(total_regret /
                             static_cast<double>(intervals.size()))
            << " CU/run (lower is better; the bandit pays exploration and "
               "an adaptation lag)\n";
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
