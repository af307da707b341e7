// runtime_serve: run the live execution runtime instead of the simulator.
//
//   $ ./runtime_serve                # virtual clock, deterministic
//   $ ./runtime_serve --wall        # wall clock, real CPU burn
//   $ ./runtime_serve --wall --duration=100 --ms-per-tu=2 --threads=8
//
// The runtime reuses the simulator's scheduling policy but executes every
// stage task on real OS threads, reporting completions over a bounded
// MPSC queue. Under the (default) virtual clock the run is bit-identical
// to the discrete-event simulator for the same seed — that parity is
// enforced by the testkit. Under --wall, stage tasks burn actual CPU for
// their modeled duration scaled by --ms-per-tu, so the workload must fit
// the physical pool: this demo uses a light arrival process and a
// one-thread-per-stage plan.

#include <cstdio>

#include "bench_util.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/runtime/runtime_platform.hpp"

using namespace scan;
using namespace scan::runtime;

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const bool wall = flags.Has("wall");
  const double duration = flags.GetDouble("duration", wall ? 150.0 : 2000.0);
  const double ms_per_tu = flags.GetDouble("ms-per-tu", 2.0);
  const int threads = flags.GetInt("threads", 8);
  const auto seed = static_cast<std::uint64_t>(flags.GetDouble("seed", 42));

  // Observability: --trace=PATH --metrics=PATH --audit=PATH
  // --trace-capacity=N.
  const auto obs_session = bench::MakeObsSession(flags);

  core::SimulationConfig config;
  config.duration = SimTime{duration};
  config.scaling = core::ScalingAlgorithm::kPredictive;
  config.allocation = core::AllocationAlgorithm::kBestConstant;
  // Chaos knobs (all default off — see DESIGN.md §10): --crash-rate=R
  // --flap-rate=R --straggle-rate=R --checkpoint-interval=TU
  // --backoff-base=TU.
  config.worker_failure_rate = flags.GetDouble("crash-rate", 0.0);
  config.fault.flap_rate = flags.GetDouble("flap-rate", 0.0);
  config.fault.straggle_rate = flags.GetDouble("straggle-rate", 0.0);
  config.fault.checkpoint_interval =
      SimTime{flags.GetDouble("checkpoint-interval", 0.0)};
  config.fault.backoff_base =
      SimTime{flags.GetDouble("backoff-base", 0.0)};
  flags.RejectUnread();
  if (wall) {
    // Real CPU is the scarce resource now: lighten the modeled load so the
    // physical pool can keep pace (see DESIGN.md, "Live runtime").
    config.mean_interarrival_tu = 8.0;
    config.mean_jobs_per_arrival = 1.0;
    config.jobs_per_arrival_variance = 0.0;
  } else {
    config.mean_interarrival_tu = 2.4;
  }

  RuntimeOptions options;
  options.clock = wall ? ClockMode::kWall : ClockMode::kVirtual;
  options.wall_seconds_per_tu = ms_per_tu / 1000.0;
  options.exec_threads = threads;
  if (wall) {
    options.forced_plan = core::ThreadPlan(
        gatk::PipelineModel::PaperGatk().stage_count(), 1);
  }

  std::printf("serving %.0f TU on the %s clock (seed %llu, %d exec threads)\n",
              duration, ClockModeName(options.clock),
              static_cast<unsigned long long>(seed), threads);

  RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(), seed,
                           options);
  const RuntimeReport report = platform.Serve();
  const core::RunMetrics& m = report.metrics;

  std::printf("\nrun finished in %.3f s wall:\n", report.wall_seconds);
  std::printf("  pipeline runs completed : %zu of %zu arrived  (%.1f jobs/s)\n",
              m.jobs_completed, m.jobs_arrived, report.jobs_per_second());
  std::printf("  mean latency            : %.1f TU\n", m.latency.mean());
  std::printf("  profit per pipeline run : %.1f CU\n", m.profit_per_run());
  std::printf("  cloud bill              : %.0f CU  (private %.0f + public %.0f)\n",
              m.total_cost, m.cost_report.private_tier.value(),
              m.cost_report.public_tier.value());
  std::printf("  stage tasks dispatched  : %llu  (%llu slices on the pool, "
              "peak queue depth %zu)\n",
              static_cast<unsigned long long>(report.stage_tasks_dispatched),
              static_cast<unsigned long long>(report.pool_tasks_executed),
              report.peak_pool_queue_depth);
  std::printf("  dispatch decision time  : %.1f us mean, %.1f us max "
              "(%zu decisions)\n",
              report.dispatch_micros.mean(), report.dispatch_micros.max(),
              report.dispatch_micros.count());
  std::printf("  worker churn            : %zu private hires, %zu public "
              "hires, %zu reconfigurations, %zu failures\n",
              m.private_hires, m.public_hires, m.reconfigurations,
              m.worker_failures);
  if (m.worker_failures > 0 || m.worker_flaps > 0 ||
      m.straggles_injected > 0 || m.task_retries > 0) {
    std::printf("  fault recovery          : %zu retries, %zu checkpoints, "
                "%zu flaps, %zu straggles, %zu speculative (%zu wasted), "
                "%zu abandoned\n",
                m.task_retries, m.checkpoints_saved, m.worker_flaps,
                m.straggles_injected, m.speculative_launches,
                m.speculative_wasted, m.jobs_abandoned);
  }
  return m.jobs_completed > 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
