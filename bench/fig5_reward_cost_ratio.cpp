// Reproduces Figure 5: "Reward-to-cost ratio vs. cores for
// horizontally-scaled, heterogeneous simulation".
//
// Paper setup: dynamic horizontal scaling plus heterogeneous workers —
// different stages use different degrees of multithreading and (simulated)
// CELAR resizes worker pools, paying the 30-second reconfiguration penalty
// whenever a worker moves between thread configurations. The x axis is the
// total core-stages per pipeline run (sum of per-stage thread counts); the
// paper's best configuration achieves a ratio of 3.11.
//
// We sweep thread plans of increasing width, upgrading the most
// parallelizable stages first (by Amdahl fraction c), and report the
// reward-to-cost ratio per plan. Expected shape: unimodal — rising from
// the all-sequential plan, peaking at a moderate width, then collapsing
// once core cost dominates.
//
// Flags: --reps=N (default 10), --duration=TU (default 5000),
//        --interval=TU (default 2.5), --quick, --csv=PATH

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "scan/core/experiment.hpp"

using namespace scan;
using namespace scan::core;

namespace {

/// Plans of increasing total core-stages: upgrade stages in descending
/// Amdahl-fraction order through the instance sizes.
std::vector<ThreadPlan> WideningPlans(int max_core_stages) {
  const auto model = gatk::PipelineModel::PaperGatk();
  std::vector<std::size_t> order(model.stage_count());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return model.stage(a).c > model.stage(b).c;
  });

  std::vector<ThreadPlan> plans;
  ThreadPlan plan(model.stage_count(), 1);
  plans.push_back(plan);
  for (const int width : {2, 4, 8, 16}) {
    for (const std::size_t stage : order) {
      plan[stage] = width;
      if (TotalCoreStages(plan) > max_core_stages) return plans;
      plans.push_back(plan);
    }
  }
  return plans;
}

}  // namespace

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto obs_session = bench::MakeObsSession(flags);
  const bool quick = flags.Has("quick");
  const int reps = flags.GetInt("reps", quick ? 3 : 10);
  const double duration = flags.GetDouble("duration", quick ? 1500.0 : 5000.0);
  const double interval = flags.GetDouble("interval", 2.5);
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  std::cout << "Figure 5: reward-to-cost ratio vs. total core-stages per "
               "pipeline run\n"
            << "(predictive scaling, heterogeneous workers, 30 s "
               "reconfiguration penalty)\n"
            << "repetitions=" << reps << " duration=" << duration
            << " TU, interval=" << interval << " TU\n\n";

  const auto plans = WideningPlans(28);
  CsvTable table({"core_stages", "reward_to_cost", "rc_sd", "profit_per_run",
                  "mean_latency_tu", "reconfig_per_job"});
  double best_ratio = 0.0;
  int best_width = 0;
  for (const ThreadPlan& plan : plans) {
    SimulationConfig config;
    config.duration = SimTime{duration};
    config.mean_interarrival_tu = interval;
    config.scaling = ScalingAlgorithm::kPredictive;
    SchedulerOptions options;
    options.forced_plan = plan;

    // Repetitions of a single config can't share a pool usefully on this
    // sweep shape; run them via the harness (serial or pooled by size).
    ThreadPool pool;
    const AggregateMetrics agg = RunRepetitions(config, reps, options, &pool);
    const double ratio = agg.reward_to_cost.mean();
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_width = TotalCoreStages(plan);
    }
    // Reconfigurations per completed job, from the public-hire proxy
    // (reported as an extra diagnostic column).
    table.AddRow({std::to_string(TotalCoreStages(plan)),
                  CsvTable::Num(ratio), CsvTable::Num(agg.reward_to_cost.stddev()),
                  CsvTable::Num(agg.profit_per_run.mean()),
                  CsvTable::Num(agg.mean_latency.mean()),
                  CsvTable::Num(agg.public_hires.mean() /
                                std::max(1.0, agg.jobs_completed.mean()))});
  }
  bench::Emit(table, output);

  std::cout << "\npeak ratio " << bench::MeanStd(best_ratio, 0.0)
            << " at core-stages=" << best_width
            << "  (paper: 3.11 at its best configuration)\n"
            << "shape: unimodal rise-then-fall expected; ratio collapses "
               "below 1.0 for very wide plans\n";
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
