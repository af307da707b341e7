// Ablation: robustness to worker crashes (failure injection).
//
// The paper assumes a reliable cloud; real elastic deployments lose VMs.
// This ablation sweeps the per-worker crash rate and compares policies: a
// crash bills the lost VM up to the crash instant and restarts the
// interrupted stage from its queue, so failures both waste money and add
// latency. Scale-out policies can buy the lost throughput back; a
// capacity-bound private tier cannot.
//
// Flags: --reps=N (default 5), --duration=TU (default 3000),
//        --interval=TU (default 2.4), --csv=PATH

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

  std::cout << "Ablation: worker failure rate sweep (interval " << interval
            << " TU, " << reps << " reps x " << duration << " TU)\n\n";

  const std::vector<double> rates = {0.0, 0.01, 0.02, 0.05, 0.1};
  const std::vector<ScalingAlgorithm> scalings = {
      ScalingAlgorithm::kNeverScale, ScalingAlgorithm::kAlwaysScale,
      ScalingAlgorithm::kPredictive};

  std::vector<SimulationConfig> configs;
  for (const double rate : rates) {
    for (const ScalingAlgorithm scaling : scalings) {
      SimulationConfig config;
      config.duration = SimTime{duration};
      config.mean_interarrival_tu = interval;
      config.scaling = scaling;
      config.worker_failure_rate = rate;
      configs.push_back(std::move(config));
    }
  }
  ThreadPool pool;
  const auto results = RunSweep(configs, reps, pool);

  CsvTable table({"failures_per_worker_tu", "never", "always", "predictive",
                  "never_latency", "predictive_latency"});
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

  const double clean = results[2].profit_per_run.mean();
  const double worst = results[(rates.size() - 1) * 3 + 2].profit_per_run.mean();
  std::cout << "\npredictive profit at rate 0 -> " << rates.back() << ": "
            << CsvTable::Num(clean) << " -> " << CsvTable::Num(worst)
            << " CU/run\n";
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
