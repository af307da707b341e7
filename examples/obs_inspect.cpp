// obs_inspect: read a scan_obs trace (Chrome trace JSON or JSONL) and
// summarize it — per-stage queue-wait totals and the *exact* span-graph
// critical path (queued / boot / run per causal hop) of the slowest
// jobs.
//
//   $ ./table1_sweep --trace=run.json          # record a trace
//   $ ./obs_inspect run.json                   # inspect it
//   $ ./obs_inspect                            # self-check (see below)
//
// With no argument the binary runs its self-check: a pinned-seed
// Scheduler run with tracing AND metrics enabled, exported to JSONL, read
// back exactly as files are, and cross-checked three ways — (1) per-stage
// queue-wait totals recovered from the trace must match the scheduler's
// own stage_queue_wait accumulators, (2) the span-graph critical path of
// every completed job must telescope to its recorded latency, in memory
// and through the file round trip, and (3) the decision-latency quantile
// sketch must have observed every dispatch round. Files are read by
// obs::ParseTrace, the reader beside the exporters. This is registered as
// a ctest, so the exporters, the reader, and the causal span layer cannot
// drift from the instrumentation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scan/common/status.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/span_graph.hpp"
#include "scan/obs/trace.hpp"

using namespace scan;

namespace {

/// Reads a trace file in either export format.
Result<std::vector<obs::TraceEvent>> ReadTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return obs::ParseTrace(text.str());
}

struct TraceSummary {
  std::map<std::uint64_t, double> stage_queue_wait;  ///< stage -> total TU
  std::map<std::uint64_t, std::uint64_t> stage_dequeues;
  /// Fault-recovery instants (DESIGN.md §10), kind -> count. Empty for a
  /// fault-free trace, so the recovery block only prints on chaos runs.
  std::map<std::string, std::uint64_t> recovery;
  std::size_t events = 0;
};

bool IsRecovery(obs::EventKind kind) {
  using K = obs::EventKind;
  for (const K recovery :
       {K::kWorkerFailure, K::kWorkerFlap, K::kTaskRetry, K::kRetryBackoff,
        K::kCheckpoint, K::kStraggle, K::kBreakerOpen, K::kSpeculativeLaunch,
        K::kSpeculativeWasted, K::kJobAbandoned}) {
    if (kind == recovery) return true;
  }
  return false;
}

TraceSummary Summarize(const std::vector<obs::TraceEvent>& events) {
  TraceSummary s;
  s.events = events.size();
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind == obs::EventKind::kQueueDequeue) {
      s.stage_queue_wait[ev.b] += ev.value;
      ++s.stage_dequeues[ev.b];
    } else if (IsRecovery(ev.kind)) {
      ++s.recovery[obs::EventKindName(ev.kind)];
    }
  }
  return s;
}

void PrintSummary(const TraceSummary& s, const obs::SpanGraph& graph) {
  std::printf("%zu events, %zu spans, %zu causal edges\n", s.events,
              graph.span_count(), graph.edge_count());
  std::printf("\nqueue-wait breakdown per stage:\n");
  std::printf("  %-6s %10s %12s %12s\n", "stage", "dequeues", "total TU",
              "mean TU");
  for (const auto& [stage, total] : s.stage_queue_wait) {
    const auto n = s.stage_dequeues.at(stage);
    std::printf("  %-6llu %10llu %12.2f %12.3f\n",
                static_cast<unsigned long long>(stage),
                static_cast<unsigned long long>(n), total,
                n > 0 ? total / static_cast<double>(n) : 0.0);
  }

  // Exact span-graph critical paths of the slowest completed jobs: the
  // causal walk from completion back to arrival splits latency into
  // queued + boot + run with event-instant precision (no heuristic).
  std::vector<std::pair<double, const obs::JobCriticalPath*>> slowest;
  for (const obs::JobCriticalPath& path : graph.jobs()) {
    slowest.emplace_back(path.latency_tu, &path);
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::printf("\nspan-graph critical path of the %zu slowest jobs (TU):\n",
              std::min<std::size_t>(slowest.size(), 5));
  std::printf("  %-8s %5s %10s %10s %10s %10s\n", "job", "hops", "latency",
              "queued", "boot", "run");
  for (std::size_t i = 0; i < slowest.size() && i < 5; ++i) {
    const obs::JobCriticalPath& p = *slowest[i].second;
    std::printf("  %-8llu %5zu %10.2f %10.2f %10.2f %10.2f%s\n",
                static_cast<unsigned long long>(p.job_id), p.hops.size(),
                p.latency_tu, p.total_queued_tu(), p.total_boot_tu(),
                p.total_run_tu(), p.complete_chain ? "" : "  (partial)");
  }

  if (!s.recovery.empty()) {
    std::printf("\nfault recovery events:\n");
    for (const auto& [kind, count] : s.recovery) {
      std::printf("  %-20s %8llu\n", kind.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
}

/// The critical-path exactness law: every completed job's telescoping
/// segments must sum to its recorded latency.
bool CheckPathsExact(const obs::SpanGraph& graph, const char* label) {
  bool pass = true;
  for (const obs::JobCriticalPath& path : graph.jobs()) {
    if (!path.complete_chain || path.hops.empty()) {
      std::fprintf(stderr, "self-check(%s): job %llu has a broken chain\n",
                   label, static_cast<unsigned long long>(path.job_id));
      pass = false;
      continue;
    }
    const double sum =
        path.total_queued_tu() + path.total_boot_tu() + path.total_run_tu();
    const double tol = 1e-9 * std::max(1.0, std::fabs(path.latency_tu));
    if (std::fabs(sum - path.latency_tu) > tol) {
      std::fprintf(stderr,
                   "self-check(%s): job %llu segments %.12g != latency "
                   "%.12g\n",
                   label, static_cast<unsigned long long>(path.job_id), sum,
                   path.latency_tu);
      pass = false;
    }
  }
  return pass;
}

/// Self-check: trace a pinned Scheduler run with metrics on, export +
/// re-parse, and compare against RunMetrics, the span-graph law, and the
/// decision-latency sketch.
int SelfCheck() {
  core::SimulationConfig config;
  config.duration = SimTime{2000.0};
  config.scaling = core::ScalingAlgorithm::kPredictive;

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  obs::MetricsRegistry::Global().ResetAll();
  obs::EnableMetrics();
  core::Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 42);
  const core::RunMetrics metrics = scheduler.Run();
  recorder.Disable();
  obs::DisableMetrics();

  const obs::SpanGraph live_graph =
      obs::SpanGraph::Build(recorder.Collect());

  const std::string path = "obs_inspect_selfcheck.jsonl";
  if (!recorder.ExportJsonl(path)) {
    std::fprintf(stderr, "self-check: JSONL export failed\n");
    return 1;
  }
  const Result<std::vector<obs::TraceEvent>> parsed = ReadTraceFile(path);
  std::remove(path.c_str());
  if (!parsed.ok() || parsed->empty()) {
    std::fprintf(stderr, "self-check: could not read back %s: %s\n",
                 path.c_str(), parsed.status().ToString().c_str());
    return 1;
  }
  const TraceSummary summary = Summarize(*parsed);
  const obs::SpanGraph file_graph = obs::SpanGraph::Build(*parsed);
  PrintSummary(summary, file_graph);

  // Every stage's recovered total must match the scheduler's own Welford
  // accumulator (sum = mean * count) to float round-trip precision.
  bool pass = metrics.jobs_completed > 0;
  for (std::size_t stage = 0; stage < metrics.stage_queue_wait.size();
       ++stage) {
    const auto& stats = metrics.stage_queue_wait[stage];
    const double expect = stats.mean() * static_cast<double>(stats.count());
    const auto it = summary.stage_queue_wait.find(stage);
    const double got = it == summary.stage_queue_wait.end() ? 0.0 : it->second;
    const double tol = 1e-6 * std::max(1.0, std::fabs(expect));
    if (std::fabs(got - expect) > tol) {
      std::fprintf(stderr,
                   "self-check: stage %zu queue-wait mismatch "
                   "(trace %.9g vs metrics %.9g)\n",
                   stage, got, expect);
      pass = false;
    }
    const auto n = summary.stage_dequeues.count(stage)
                       ? summary.stage_dequeues.at(stage)
                       : 0;
    if (n != stats.count()) {
      std::fprintf(stderr,
                   "self-check: stage %zu dequeue count mismatch "
                   "(trace %llu vs metrics %zu)\n",
                   stage, static_cast<unsigned long long>(n), stats.count());
      pass = false;
    }
  }

  // Span-graph law, in memory and through the JSONL round trip; the two
  // graphs must also agree job for job.
  pass = CheckPathsExact(live_graph, "live") && pass;
  pass = CheckPathsExact(file_graph, "file") && pass;
  if (live_graph.jobs().size() != file_graph.jobs().size() ||
      live_graph.jobs().size() !=
          static_cast<std::size_t>(metrics.jobs_completed)) {
    std::fprintf(stderr,
                 "self-check: path counts live=%zu file=%zu completed=%llu\n",
                 live_graph.jobs().size(), file_graph.jobs().size(),
                 static_cast<unsigned long long>(metrics.jobs_completed));
    pass = false;
  }

  // Sketch-backed decision-latency quantiles: every dispatch round must
  // have fed the SLO's sketch, and quantiles must be ordered.
  const obs::PlatformMetrics pm = obs::PlatformMetrics::Resolve();
  const double p50 = pm.decision_latency_us->Quantile(0.50);
  const double p95 = pm.decision_latency_us->Quantile(0.95);
  const double p99 = pm.decision_latency_us->Quantile(0.99);
  std::printf("\ndecision latency (wall us, DDSketch n=%llu): "
              "p50=%.3f p95=%.3f p99=%.3f\n",
              static_cast<unsigned long long>(pm.decision_latency_us->count()),
              p50, p95, p99);
  std::printf("decision SLO (p99 <= %.0f us): %s, budget burn %.3f\n",
              pm.decision_latency_slo->spec().threshold,
              pm.decision_latency_slo->Met() ? "met" : "BREACHED",
              pm.decision_latency_slo->BudgetBurn());
  if (pm.decision_latency_us->count() == 0 || p50 > p95 || p95 > p99) {
    std::fprintf(stderr, "self-check: decision-latency sketch inconsistent\n");
    pass = false;
  }

  std::printf("\nself-check (trace vs RunMetrics, span graph, sketch): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return SelfCheck();
  const Result<std::vector<obs::TraceEvent>> events = ReadTraceFile(argv[1]);
  if (!events.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[1],
                 events.status().message().c_str());
    return 1;
  }
  std::printf("%s: ", argv[1]);
  PrintSummary(Summarize(*events), obs::SpanGraph::Build(*events));
  return 0;
}
