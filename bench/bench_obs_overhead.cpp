// bench_obs_overhead: what does scan_obs cost the scheduler hot path?
//
// Runs the same pinned-seed Scheduler scenario repeatedly in four modes —
// observability fully off, tracing only, tracing + metrics (with the
// DDSketch quantile instruments) + decision audit, and the full v2
// pipeline (everything on, plus deriving the span-graph critical paths
// and the profile ledger from the collected stream) — and reports wall
// time per run. The "off" mode is the headline: every instrumentation
// site then pays one relaxed atomic load and a branch, so its mean must
// sit within noise of the pre-scan_obs baseline.
//
// The rel_throughput column (off_mean_ms / mode_mean_ms) is machine
// independent and is what CI gates on: "off" is 1.0 by construction, and
// each instrumented mode reports the fraction of uninstrumented
// throughput it retains.
//
// Flags: --runs=N (default 9)  --duration=TU (default 2000)
//        --csv=PATH  --json=PATH

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scan/common/stats.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/audit.hpp"
#include "scan/obs/ledger.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/span_graph.hpp"
#include "scan/obs/trace.hpp"

using namespace scan;

namespace {

struct Mode {
  const char* name;
  bool trace;
  bool metrics;
  bool audit;
  bool derive;  ///< build SpanGraph + ProfileLedger from the stream
};

double TimedRun(const core::SimulationConfig& config, std::uint64_t seed,
                bool derive, std::size_t* jobs_completed) {
  core::Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), seed);
  const auto start = std::chrono::steady_clock::now();
  const core::RunMetrics metrics = scheduler.Run();
  if (derive) {
    const std::vector<obs::TraceEvent> events =
        obs::TraceRecorder::Global().Collect();
    const obs::SpanGraph graph = obs::SpanGraph::Build(events);
    const obs::ProfileLedger ledger = obs::ProfileLedger::FromEvents(events);
    // Keep the artifacts alive until after the clock stops.
    if (graph.jobs().size() + ledger.rows().size() == 0) std::abort();
  }
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  *jobs_completed = metrics.jobs_completed;
  return elapsed.count();
}

}  // namespace

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int runs = flags.GetInt("runs", 9);
  const double duration = flags.GetDouble("duration", 2000.0);
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  core::SimulationConfig config;
  config.duration = SimTime{duration};
  config.scaling = core::ScalingAlgorithm::kPredictive;

  const Mode modes[] = {
      {"off", false, false, false, false},
      {"trace", true, false, false, false},
      {"trace+metrics+audit", true, true, true, false},
      {"full", true, true, true, true},
  };

  std::printf("scan_obs overhead: %d pinned-seed runs of %.0f TU per mode\n\n",
              runs, config.duration.value());
  CsvTable table({"mode", "runs", "mean_ms", "stddev_ms", "min_ms",
                  "runs_per_sec", "rel_throughput", "events_recorded",
                  "jobs_completed"});
  double off_mean_ms = 0.0;
  for (const Mode& mode : modes) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    RunningStats ms;
    std::size_t jobs = 0;
    std::uint64_t events = 0;
    for (int run = 0; run < runs; ++run) {
      recorder.Clear();
      obs::DecisionAudit::Global().Clear();
      obs::MetricsRegistry::Global().ResetAll();
      if (mode.trace) recorder.Enable();
      if (mode.metrics) obs::EnableMetrics();
      if (mode.audit) obs::DecisionAudit::Global().Enable();
      ms.Add(TimedRun(config, /*seed=*/42 + static_cast<std::uint64_t>(run),
                      mode.derive, &jobs));
      events = recorder.stats().events_recorded;
      recorder.Disable();
      obs::DisableMetrics();
      obs::DecisionAudit::Global().Disable();
    }
    if (mode.name == modes[0].name) off_mean_ms = ms.mean();
    const double rel = ms.mean() > 0.0 ? off_mean_ms / ms.mean() : 0.0;
    const double rps = ms.mean() > 0.0 ? 1000.0 / ms.mean() : 0.0;
    table.AddRow({mode.name, CsvTable::Num(runs), CsvTable::Num(ms.mean()),
                  CsvTable::Num(ms.stddev()), CsvTable::Num(ms.min()),
                  CsvTable::Num(rps), CsvTable::Num(rel),
                  CsvTable::Num(static_cast<double>(events)),
                  CsvTable::Num(static_cast<double>(jobs))});
  }
  bench::Emit(table, output);
  std::printf(
      "\nthe \"off\" row is the always-on cost: one relaxed load + branch "
      "per site.\nrel_throughput = off_mean_ms / mode_mean_ms (1.0 = free); "
      "\"full\" adds span-graph\n+ ledger derivation from the collected "
      "stream.\n");
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
