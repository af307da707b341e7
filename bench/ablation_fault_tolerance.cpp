// Ablation: value of per-stage checkpointing under worker crashes.
//
// `ablation_failure_rate` shows what crashes cost; this sweep shows how
// much of that cost checkpointing buys back. Each crash restarts the
// interrupted stage from its last checkpoint (floor(served/interval) x
// interval of execution credit, capped at 95% of the stage), so a shorter
// interval wastes less rework — and the predictive policy prices the
// residual risk into its hire decisions via the expected-rework factor
// (DESIGN.md §10). The grid is crash rate x checkpoint interval under the
// predictive scaler, with retries uncapped and immediate.
//
// Flags: --reps=N (default 5), --duration=TU (default 3000),
//        --interval=TU (default 2.4), --csv=PATH, --json=PATH

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
  const double duration = flags.GetDouble("duration", 3000.0);
  const double interval = flags.GetDouble("interval", 2.4);
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  std::cout << "Ablation: checkpoint interval x crash rate (interval "
            << interval << " TU, " << reps << " reps x " << duration
            << " TU, predictive scaling)\n\n";

  const std::vector<double> rates = {0.0, 0.02, 0.05, 0.1};
  // 0 = checkpointing off (full restart on every crash).
  const std::vector<double> ckpt_intervals = {0.0, 2.0, 0.5};

  std::vector<SimulationConfig> configs;
  for (const double rate : rates) {
    for (const double ckpt : ckpt_intervals) {
      SimulationConfig config;
      config.duration = SimTime{duration};
      config.mean_interarrival_tu = interval;
      config.scaling = ScalingAlgorithm::kPredictive;
      config.worker_failure_rate = rate;
      config.fault.checkpoint_interval = SimTime{ckpt};
      configs.push_back(std::move(config));
    }
  }
  ThreadPool pool;
  const auto results = RunSweep(configs, reps, pool);

  CsvTable table({"failures_per_worker_tu", "ckpt_off", "ckpt_2tu",
                  "ckpt_half_tu", "ckpt_off_latency", "ckpt_half_tu_latency"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    table.AddRow(
        {CsvTable::Num(rates[i]),
         CsvTable::Num(results[i * 3 + 0].profit_per_run.mean()),
         CsvTable::Num(results[i * 3 + 1].profit_per_run.mean()),
         CsvTable::Num(results[i * 3 + 2].profit_per_run.mean()),
         CsvTable::Num(results[i * 3 + 0].mean_latency.mean()),
         CsvTable::Num(results[i * 3 + 2].mean_latency.mean())});
  }
  bench::Emit(table, output);

  const std::size_t worst = (rates.size() - 1) * 3;
  std::cout << "\nprofit at rate " << rates.back() << ": no checkpoints "
            << CsvTable::Num(results[worst + 0].profit_per_run.mean())
            << " CU/run vs 0.5 TU checkpoints "
            << CsvTable::Num(results[worst + 2].profit_per_run.mean())
            << " CU/run\n";
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
