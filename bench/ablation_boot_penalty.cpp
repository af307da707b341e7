// Ablation: sensitivity to the worker boot / reconfiguration penalty.
//
// The paper pays a 30-second (0.5 TU) penalty whenever CELAR resizes a
// worker's VCPU count. This ablation sweeps that penalty and shows how
// each horizontal scaling algorithm degrades: always-scale churns through
// freshly-booted public workers so it should suffer most; never-scale
// mostly reuses warm private workers.
//
// Flags: --reps=N (default 5), --duration=TU (default 3000),
//        --interval=TU (default 2.2), --csv=PATH

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
  const double interval = flags.GetDouble("interval", 2.2);
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  std::cout << "Ablation: boot/reconfiguration penalty sweep "
               "(interval " << interval << " TU, " << reps
            << " reps x " << duration << " TU)\n\n";

  const std::vector<double> penalties = {0.0, 0.25, 0.5, 1.0, 2.0};
  const std::vector<ScalingAlgorithm> scalings = {
      ScalingAlgorithm::kNeverScale, ScalingAlgorithm::kAlwaysScale,
      ScalingAlgorithm::kPredictive};

  std::vector<SimulationConfig> configs;
  for (const double penalty : penalties) {
    for (const ScalingAlgorithm scaling : scalings) {
      SimulationConfig config;
      config.duration = SimTime{duration};
      config.mean_interarrival_tu = interval;
      config.scaling = scaling;
      config.boot_penalty = SimTime{penalty};
      configs.push_back(std::move(config));
    }
  }
  ThreadPool pool;
  const auto results = RunSweep(configs, reps, pool);

  CsvTable table({"boot_penalty_tu", "never_scale", "always_scale",
                  "predictive", "never_latency", "always_latency",
                  "predictive_latency"});
  for (std::size_t i = 0; i < penalties.size(); ++i) {
    const auto& never = results[i * 3 + 0];
    const auto& always = results[i * 3 + 1];
    const auto& predictive = results[i * 3 + 2];
    table.AddRow({CsvTable::Num(penalties[i]),
                  CsvTable::Num(never.profit_per_run.mean()),
                  CsvTable::Num(always.profit_per_run.mean()),
                  CsvTable::Num(predictive.profit_per_run.mean()),
                  CsvTable::Num(never.mean_latency.mean()),
                  CsvTable::Num(always.mean_latency.mean()),
                  CsvTable::Num(predictive.mean_latency.mean())});
  }
  bench::Emit(table, output);

  const double always_drop = results[1].profit_per_run.mean() -
                             results[(penalties.size() - 1) * 3 + 1]
                                 .profit_per_run.mean();
  const double never_drop = results[0].profit_per_run.mean() -
                            results[(penalties.size() - 1) * 3 + 0]
                                .profit_per_run.mean();
  std::cout << "\nprofit drop from penalty 0 -> " << penalties.back()
            << " TU: always-scale " << CsvTable::Num(always_drop)
            << " CU/run, never-scale " << CsvTable::Num(never_drop)
            << " CU/run\n";
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
