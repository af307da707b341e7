// Live-runtime throughput microbenchmark: jobs/second and dispatch
// decision latency for RuntimePlatform under both clocks.
//
// Virtual-clock rows measure pure coordination overhead (stage tasks are
// token work, so the jobs/s figure is how fast the event loop + worker
// machinery can push modeled work through). Wall-clock rows burn real CPU
// for the modeled stage durations, so jobs/s is bounded by the physical
// pool; the row sweeps the exec-thread count to show the scaling.
//
// Flags: --duration=TU (virtual horizon, default 2000),
//        --wall-duration=TU (wall horizon, default 150),
//        --ms-per-tu=MS (default 2), --csv=PATH, --json=PATH

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/runtime/runtime_platform.hpp"

using namespace scan;
using namespace scan::runtime;

namespace {

struct Row {
  std::string clock;
  std::size_t exec_threads = 0;
  RuntimeReport report;
};

Row RunOnce(core::SimulationConfig config, RuntimeOptions options,
            std::uint64_t seed) {
  RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(), seed,
                           options);
  Row row;
  row.clock = ClockModeName(options.clock);
  row.report = platform.Serve();
  row.exec_threads = row.report.exec_threads;
  return row;
}

}  // namespace

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto obs_session = bench::MakeObsSession(flags);
  const double virtual_tu = flags.GetDouble("duration", 2000.0);
  const double wall_tu = flags.GetDouble("wall-duration", 150.0);
  const double ms_per_tu = flags.GetDouble("ms-per-tu", 2.0);
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  std::cout << "runtime throughput: virtual " << virtual_tu << " TU, wall "
            << wall_tu << " TU at " << ms_per_tu << " ms/TU\n\n";

  std::vector<Row> rows;

  // Virtual clock: coordination-bound. The paper-scale workload.
  {
    core::SimulationConfig config;
    config.duration = SimTime{virtual_tu};
    config.scaling = core::ScalingAlgorithm::kPredictive;
    config.allocation = core::AllocationAlgorithm::kBestConstant;
    config.mean_interarrival_tu = 2.4;
    for (const int threads : {2, 8}) {
      RuntimeOptions options;
      options.exec_threads = threads;
      rows.push_back(RunOnce(config, options, 0xBE7C));
    }
  }

  // Wall clock: CPU-bound. Light load + one-thread plan so the modeled
  // demand fits the physical pool (see DESIGN.md, "Live runtime").
  {
    core::SimulationConfig config;
    config.duration = SimTime{wall_tu};
    config.scaling = core::ScalingAlgorithm::kPredictive;
    config.allocation = core::AllocationAlgorithm::kBestConstant;
    config.mean_interarrival_tu = 8.0;
    config.mean_jobs_per_arrival = 1.0;
    config.jobs_per_arrival_variance = 0.0;
    for (const int threads : {2, 4, 8}) {
      RuntimeOptions options;
      options.clock = ClockMode::kWall;
      options.wall_seconds_per_tu = ms_per_tu / 1000.0;
      options.exec_threads = threads;
      options.forced_plan = core::ThreadPlan(
          gatk::PipelineModel::PaperGatk().stage_count(), 1);
      rows.push_back(RunOnce(config, options, 0xBE7C));
    }
  }

  CsvTable table({"clock", "exec_threads", "jobs_completed", "jobs_arrived",
                  "jobs_per_sec", "wall_s", "dispatch_us_mean",
                  "dispatch_us_max", "stage_tasks", "pool_slices",
                  "peak_queue_depth"});
  for (const Row& row : rows) {
    const RuntimeReport& r = row.report;
    table.AddRow({row.clock,
                  CsvTable::Num(static_cast<double>(row.exec_threads)),
                  CsvTable::Num(static_cast<double>(r.metrics.jobs_completed)),
                  CsvTable::Num(static_cast<double>(r.metrics.jobs_arrived)),
                  CsvTable::Num(r.jobs_per_second()),
                  CsvTable::Num(r.wall_seconds),
                  CsvTable::Num(r.dispatch_micros.mean()),
                  CsvTable::Num(r.dispatch_micros.max()),
                  CsvTable::Num(static_cast<double>(r.stage_tasks_dispatched)),
                  CsvTable::Num(static_cast<double>(r.pool_tasks_executed)),
                  CsvTable::Num(static_cast<double>(r.peak_pool_queue_depth))});
  }
  bench::Emit(table, output);
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
