#include "scan/testkit/parity.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <utility>

#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/audit.hpp"
#include "scan/obs/ledger.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/span_graph.hpp"
#include "scan/obs/trace.hpp"

namespace scan::testkit {

namespace {

constexpr std::size_t kMaxReportedMismatches = 12;

void Note(std::vector<std::string>& mismatches, std::string message) {
  if (mismatches.size() < kMaxReportedMismatches) {
    mismatches.push_back(std::move(message));
  }
}

/// Exact (bitwise for doubles) comparison of the recorded schedules.
void CompareSchedules(const core::RunMetrics& sim,
                      const core::RunMetrics& live,
                      std::vector<std::string>& mismatches) {
  if (sim.stage_schedule.size() != live.stage_schedule.size()) {
    Note(mismatches,
         "stage_schedule size: sim=" + std::to_string(sim.stage_schedule.size()) +
             " runtime=" + std::to_string(live.stage_schedule.size()));
  }
  const std::size_t n =
      std::min(sim.stage_schedule.size(), live.stage_schedule.size());
  for (std::size_t i = 0; i < n; ++i) {
    const core::StageRecord& a = sim.stage_schedule[i];
    const core::StageRecord& b = live.stage_schedule[i];
    if (a.job_id != b.job_id || a.stage != b.stage ||
        a.worker_key != b.worker_key || a.threads != b.threads ||
        a.dispatched != b.dispatched || a.start != b.start ||
        a.end != b.end || a.preempted_by_failure != b.preempted_by_failure) {
      std::ostringstream oss;
      oss << "stage_schedule[" << i << "]: sim(job " << a.job_id << " stage "
          << a.stage << " worker " << a.worker_key << " x" << a.threads
          << " @" << a.start.value() << ".." << a.end.value()
          << (a.preempted_by_failure ? " CRASH" : "") << ") != runtime(job "
          << b.job_id << " stage " << b.stage << " worker " << b.worker_key
          << " x" << b.threads << " @" << b.start.value() << ".."
          << b.end.value() << (b.preempted_by_failure ? " CRASH" : "") << ")";
      Note(mismatches, oss.str());
    }
  }

  if (sim.job_completions.size() != live.job_completions.size()) {
    Note(mismatches,
         "job_completions size: sim=" + std::to_string(sim.job_completions.size()) +
             " runtime=" + std::to_string(live.job_completions.size()));
  }
  const std::size_t m =
      std::min(sim.job_completions.size(), live.job_completions.size());
  for (std::size_t i = 0; i < m; ++i) {
    const core::JobCompletionRecord& a = sim.job_completions[i];
    const core::JobCompletionRecord& b = live.job_completions[i];
    if (a.job_id != b.job_id || a.finished != b.finished ||
        a.latency != b.latency || a.reward != b.reward) {
      std::ostringstream oss;
      oss << "job_completions[" << i << "]: sim(job " << a.job_id << " @"
          << a.finished.value() << " latency " << a.latency.value()
          << " reward " << a.reward << ") != runtime(job " << b.job_id << " @"
          << b.finished.value() << " latency " << b.latency.value()
          << " reward " << b.reward << ")";
      Note(mismatches, oss.str());
    }
  }
}

/// SCAN_OBS_FULL=1: run both engines with every obs subsystem on (trace
/// + metric sketches + audit), derive the span-graph critical paths and
/// the profile ledger from each side's event stream, and require both
/// artifacts to agree exactly (bitwise for doubles). Subsumes
/// SCAN_OBS_TRACE and additionally proves the causal layer itself is
/// engine-independent.
bool ObsFullEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("SCAN_OBS_FULL");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return enabled;
}

/// Collected obs artifacts of one engine's run.
struct ObsArtifacts {
  obs::SpanGraph graph;
  obs::ProfileLedger ledger;
  std::vector<obs::HireDecisionRecord> hires;
  std::vector<obs::PlanDecisionRecord> plans;
};

/// Takes the run's trace and decision audit, leaving both cleared for
/// the next engine.
ObsArtifacts CollectObsArtifacts() {
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Collect();
  ObsArtifacts artifacts;
  artifacts.graph = obs::SpanGraph::Build(events);
  artifacts.ledger = obs::ProfileLedger::FromEvents(events);
  artifacts.hires = obs::DecisionAudit::Global().hires();
  artifacts.plans = obs::DecisionAudit::Global().plans();
  obs::TraceRecorder::Global().Clear();
  obs::DecisionAudit::Global().Clear();
  return artifacts;
}

/// Bitwise double equality (the audit's unpriced cost fields are NaN).
bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameHire(const obs::HireDecisionRecord& a,
              const obs::HireDecisionRecord& b) {
  return SameBits(a.time_tu, b.time_tu) && a.job_id == b.job_id &&
         a.stage == b.stage && a.threads == b.threads &&
         a.choice == b.choice &&
         std::string_view(a.scaling) == std::string_view(b.scaling) &&
         a.queue_length == b.queue_length &&
         SameBits(a.head_size_du, b.head_size_du) &&
         SameBits(a.delay_cost, b.delay_cost) &&
         SameBits(a.hire_cost, b.hire_cost) &&
         SameBits(a.next_free_delay_tu, b.next_free_delay_tu) &&
         SameBits(a.boot_penalty_tu, b.boot_penalty_tu) &&
         SameBits(a.public_core_price, b.public_core_price) &&
         SameBits(a.rework_factor, b.rework_factor);
}

bool SamePlan(const obs::PlanDecisionRecord& a,
              const obs::PlanDecisionRecord& b) {
  return SameBits(a.time_tu, b.time_tu) && a.job_id == b.job_id &&
         SameBits(a.size_du, b.size_du) &&
         std::string_view(a.allocation) == std::string_view(b.allocation) &&
         a.plan == b.plan && SameBits(a.price_hint, b.price_hint) &&
         SameBits(a.predicted_exec_tu, b.predicted_exec_tu) &&
         SameBits(a.predicted_reward, b.predicted_reward);
}

/// The decision audit of both engines, record by record in order: every
/// hire-vs-wait evaluation (including each kWait a dispatch round
/// re-prices) and every admission plan.
template <class Record, class Same>
void CompareAudit(const char* what, const std::vector<Record>& sim,
                  const std::vector<Record>& live, Same same,
                  ParityResult& result) {
  if (sim.size() != live.size()) {
    Note(result.mismatches, std::string(what) + " records: sim=" +
                                std::to_string(sim.size()) +
                                " runtime=" + std::to_string(live.size()));
  }
  const std::size_t n = std::min(sim.size(), live.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same(sim[i], live[i])) {
      Note(result.mismatches,
           std::string(what) + " record[" + std::to_string(i) + "] (job " +
               std::to_string(sim[i].job_id) + " @" +
               std::to_string(sim[i].time_tu) + ") differs between engines");
      return;
    }
  }
}

void CompareObsArtifacts(const ObsArtifacts& sim, const ObsArtifacts& live,
                         ParityResult& result) {
  const auto& sim_jobs = sim.graph.jobs();
  const auto& live_jobs = live.graph.jobs();
  if (sim_jobs.size() != live_jobs.size()) {
    Note(result.mismatches,
         "critical paths: sim=" + std::to_string(sim_jobs.size()) +
             " runtime=" + std::to_string(live_jobs.size()));
  }
  const std::size_t n = std::min(sim_jobs.size(), live_jobs.size());
  result.critical_paths_compared = n;
  for (std::size_t i = 0; i < n; ++i) {
    const obs::JobCriticalPath& a = sim_jobs[i];
    const obs::JobCriticalPath& b = live_jobs[i];
    bool equal = a.job_id == b.job_id && a.arrival_tu == b.arrival_tu &&
                 a.complete_tu == b.complete_tu &&
                 a.latency_tu == b.latency_tu &&
                 a.complete_chain == b.complete_chain &&
                 a.hops.size() == b.hops.size();
    for (std::size_t h = 0; equal && h < a.hops.size(); ++h) {
      const obs::SpanHop& ha = a.hops[h];
      const obs::SpanHop& hb = b.hops[h];
      equal = ha.span == hb.span && ha.enqueue_tu == hb.enqueue_tu &&
              ha.dequeue_tu == hb.dequeue_tu && ha.exec_tu == hb.exec_tu &&
              ha.end_tu == hb.end_tu;
    }
    if (!equal) {
      Note(result.mismatches,
           "critical path[" + std::to_string(i) + "] (job " +
               std::to_string(a.job_id) + "): sim and runtime span-graph "
               "walks differ");
    }
  }

  const auto& sim_rows = sim.ledger.rows();
  const auto& live_rows = live.ledger.rows();
  if (sim_rows.size() != live_rows.size()) {
    Note(result.mismatches,
         "ledger rows: sim=" + std::to_string(sim_rows.size()) +
             " runtime=" + std::to_string(live_rows.size()));
  }
  const std::size_t m = std::min(sim_rows.size(), live_rows.size());
  result.ledger_rows_compared = m;
  for (std::size_t i = 0; i < m; ++i) {
    const obs::ProfileRow& a = sim_rows[i];
    const obs::ProfileRow& b = live_rows[i];
    if (a.stage != b.stage || a.tier != b.tier || a.threads != b.threads ||
        a.observations != b.observations ||
        a.total_runtime_tu != b.total_runtime_tu || a.crashes != b.crashes ||
        a.flaps != b.flaps || a.retries != b.retries ||
        a.straggles != b.straggles) {
      std::ostringstream oss;
      oss << "ledger row[" << i << "]: sim(stage " << a.stage << " "
          << obs::LedgerTierName(a.tier) << " x" << a.threads << " n="
          << a.observations << " rt=" << a.total_runtime_tu
          << ") != runtime(stage " << b.stage << " "
          << obs::LedgerTierName(b.tier) << " x" << b.threads << " n="
          << b.observations << " rt=" << b.total_runtime_tu << ")";
      Note(result.mismatches, oss.str());
    }
  }

  CompareAudit("audit hire", sim.hires, live.hires, SameHire, result);
  CompareAudit("audit plan", sim.plans, live.plans, SamePlan, result);
}

}  // namespace

std::string ParityResult::Describe() const {
  std::ostringstream oss;
  oss << "parity seed=" << seed << " records=" << stage_records << "/"
      << job_records;
  if (ok()) {
    oss << " OK (digest " << sim_fingerprint.digest << ")";
    return oss.str();
  }
  oss << " MISMATCH:";
  for (const std::string& m : mismatches) oss << "\n  " << m;
  return oss.str();
}

ParityResult CheckSimRuntimeParity(const core::SimulationConfig& config,
                                   const gatk::PipelineModel& model,
                                   std::uint64_t seed,
                                   runtime::RuntimeOptions runtime_options) {
  // SCAN_OBS_TRACE=1 turns every scan_obs subsystem on for the whole
  // process: running the parity suite this way proves observability cannot
  // perturb the schedule (the digests must match the untraced run bit for
  // bit). Checked once; enabling mid-suite would violate the recorder's
  // quiescence contract.
  static const bool obs_forced = [] {
    const char* env = std::getenv("SCAN_OBS_TRACE");
    if (env == nullptr || env[0] == '\0' || env[0] == '0') return false;
    obs::TraceRecorder::Global().Enable();
    obs::EnableMetrics();
    obs::DecisionAudit::Global().Enable();
    return true;
  }();
  (void)obs_forced;

  runtime_options.clock = runtime::ClockMode::kVirtual;
  runtime_options.record_schedule = true;

  const core::SchedulerOptions sim_options =
      runtime::EngineOptions(runtime_options);

  // Per-check artifact capture under SCAN_OBS_FULL: each engine runs
  // against a cleared recorder and audit (quiescent here — no run is in
  // flight) with trace + metrics + audit all on.
  const bool obs_full = ObsFullEnabled();
  if (obs_full) {
    obs::TraceRecorder::Global().Clear();
    obs::DecisionAudit::Global().Clear();
    obs::TraceRecorder::Global().Enable();
    obs::EnableMetrics();
    obs::DecisionAudit::Global().Enable();
  }

  core::Scheduler scheduler(config, model, seed, sim_options);
  const core::RunMetrics sim_metrics = scheduler.Run();

  ObsArtifacts sim_artifacts;
  if (obs_full) sim_artifacts = CollectObsArtifacts();

  runtime::RuntimePlatform platform(config, model, seed, runtime_options);
  const runtime::RuntimeReport report = platform.Serve();

  ObsArtifacts runtime_artifacts;
  if (obs_full) runtime_artifacts = CollectObsArtifacts();

  ParityResult result;
  result.seed = seed;
  result.sim_fingerprint = MetricsFingerprint::Of(sim_metrics);
  result.runtime_fingerprint = MetricsFingerprint::Of(report.metrics);
  result.stage_records = sim_metrics.stage_schedule.size();
  result.job_records = sim_metrics.job_completions.size();

  CompareSchedules(sim_metrics, report.metrics, result.mismatches);
  if (obs_full) {
    CompareObsArtifacts(sim_artifacts, runtime_artifacts, result);
  }
  if (result.sim_fingerprint.digest != result.runtime_fingerprint.digest) {
    for (std::string& diff :
         result.sim_fingerprint.DiffAgainst(result.runtime_fingerprint)) {
      Note(result.mismatches, "fingerprint " + std::move(diff));
    }
    Note(result.mismatches,
         "fingerprint digest: sim=" +
             std::to_string(result.sim_fingerprint.digest) +
             " runtime=" + std::to_string(result.runtime_fingerprint.digest));
  }
  return result;
}

ParityResult CheckSimRuntimeParity(const core::SimulationConfig& config,
                                   std::uint64_t seed,
                                   runtime::RuntimeOptions runtime_options) {
  return CheckSimRuntimeParity(config, gatk::PipelineModel::PaperGatk(), seed,
                               std::move(runtime_options));
}

}  // namespace scan::testkit
