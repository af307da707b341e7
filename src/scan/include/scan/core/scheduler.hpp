#pragma once

// The SCAN Scheduler (§III-A-2): per-stage work queues, a pool of worker
// VMs hired from the hybrid cloud, reward-driven hire-or-wait decisions,
// and per-stage thread sizing via the resource allocation algorithms.
//
// Mechanics of one simulated run:
//  - Jobs arrive in batches (workload::ArrivalGenerator) and receive a
//    per-stage thread plan from the configured allocation algorithm.
//  - Each pipeline stage has a FIFO queue. A queued task is dispatched to
//    (in order of preference) an idle worker already configured with the
//    required thread count; an idle worker reconfigured to it (30 s
//    penalty); or a freshly hired worker — private tier when capacity
//    remains, public tier subject to the horizontal scaling algorithm:
//      * never-scale:  never hire public capacity;
//      * always-scale: hire public immediately when private is full;
//      * predictive:   hire iff the delay cost (Eq. 1) of holding the
//        queue until the next worker frees exceeds the hire cost.
//  - Workers execute one task to completion (T_i(t, d) of the pipeline
//    model); idle workers are released after a timeout.
//  - A completed pipeline run earns R(d, latency); profit is total reward
//    minus the cloud bill.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "scan/cloud/cloud_manager.hpp"
#include "scan/common/stats.hpp"
#include "scan/core/allocation.hpp"
#include "scan/core/config.hpp"
#include "scan/core/policy.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/workload/trace.hpp"

namespace scan::core {

class Engine;

/// One sampled point of the run's time series (enabled via
/// SchedulerOptions::timeline_sample_period).
struct TimelinePoint {
  SimTime time{0.0};
  std::size_t queued_jobs = 0;   ///< waiting tasks across all stage queues
  std::size_t busy_workers = 0;
  std::size_t idle_workers = 0;
  std::size_t private_cores = 0; ///< cores hired on the private tier
  std::size_t public_cores = 0;
  double cost_rate = 0.0;        ///< CU per TU burn rate
};

/// One task assignment, recorded when record_schedule is enabled. This is
/// the parity payload between the simulator and the live runtime: for
/// pinned seeds under the runtime's virtual clock, both must produce the
/// identical sequence of StageRecords.
struct StageRecord {
  std::uint64_t job_id = 0;
  std::size_t stage = 0;
  std::uint64_t worker_key = 0;
  int threads = 0;
  SimTime dispatched{0.0};  ///< the dispatch decision instant
  SimTime start{0.0};       ///< includes any boot/reconfiguration delay
  SimTime end{0.0};         ///< planned completion (actual, virtual clock)
  /// The assignment ends in an injected worker crash instead of completing
  /// (known at assignment time: the failure draw precedes the finish).
  bool preempted_by_failure = false;
};

/// One completed pipeline run, recorded when record_schedule is enabled.
struct JobCompletionRecord {
  std::uint64_t job_id = 0;
  SimTime finished{0.0};
  SimTime latency{0.0};
  double reward = 0.0;
};

/// Metrics of one simulation run.
struct RunMetrics {
  std::size_t jobs_arrived = 0;
  std::size_t jobs_completed = 0;
  double total_reward = 0.0;
  double total_cost = 0.0;
  cloud::CostReport cost_report;
  RunningStats latency;        ///< completed-job latencies (TU)
  RunningStats queue_wait;     ///< per-dispatch queue waits (TU)
  /// Queue waits split per pipeline stage (index = 0-based stage).
  std::vector<RunningStats> stage_queue_wait;
  /// Per-worker lifetime utilization (busy time / hired time), recorded
  /// when a worker is released — the paper's worker feedback signal.
  RunningStats worker_utilization;
  RunningStats core_stages;    ///< TotalCoreStages of completed jobs' plans
  std::size_t private_hires = 0;
  std::size_t public_hires = 0;
  std::size_t reconfigurations = 0;
  std::size_t releases = 0;
  std::size_t worker_failures = 0;  ///< injected crashes (failure model)
  std::size_t task_retries = 0;     ///< tasks re-enqueued after a loss
  // --- fault-model counters (all zero with fault injection off) --------
  std::size_t worker_flaps = 0;         ///< task dropped, worker survived
  std::size_t breaker_opens = 0;        ///< circuit-breaker openings
  std::size_t checkpoints_saved = 0;    ///< losses resumed from checkpoint
  std::size_t speculative_launches = 0; ///< straggler copies enqueued
  std::size_t speculative_wasted = 0;   ///< stale duplicate completions
  std::size_t straggles_injected = 0;   ///< assignments slowed down
  std::size_t jobs_abandoned = 0;       ///< retry budget exhausted
  SimTime duration{0.0};
  /// Sampled time series; empty unless timeline sampling was enabled.
  std::vector<TimelinePoint> timeline;
  /// Every task assignment / completed job, in event order; empty unless
  /// record_schedule was enabled (the sim<->runtime parity payload).
  std::vector<StageRecord> stage_schedule;
  std::vector<JobCompletionRecord> job_completions;

  [[nodiscard]] double profit() const { return total_reward - total_cost; }
  [[nodiscard]] double profit_per_run() const {
    return jobs_completed == 0 ? 0.0
                               : profit() / static_cast<double>(jobs_completed);
  }
  [[nodiscard]] double reward_to_cost() const {
    return total_cost <= 0.0 ? 0.0 : total_reward / total_cost;
  }
};

/// One RunMetrics count exported as a Prometheus counter: when metrics are
/// on, Engine::Finish adds the field to the counter of that name.
struct RunCounter {
  const char* name;
  const char* help;
  std::size_t RunMetrics::*field;
};

/// The platform's counters; each count lives only in its RunMetrics field.
inline constexpr RunCounter kRunCounters[] = {
    {"scan_jobs_arrived_total", "Jobs admitted to the platform",
     &RunMetrics::jobs_arrived},
    {"scan_jobs_completed_total", "Pipeline runs completed",
     &RunMetrics::jobs_completed},
    {"scan_private_hires_total", "Workers hired on the private tier",
     &RunMetrics::private_hires},
    {"scan_public_hires_total", "Workers hired on the public tier",
     &RunMetrics::public_hires},
    {"scan_reconfigurations_total", "Idle workers reconfigured (30s penalty)",
     &RunMetrics::reconfigurations},
    {"scan_worker_releases_total",
     "Workers released (idle timeout or compaction)", &RunMetrics::releases},
    {"scan_worker_failures_total", "Injected worker crashes",
     &RunMetrics::worker_failures},
    {"scan_task_retries_total", "Tasks re-enqueued after a crash",
     &RunMetrics::task_retries},
    {"scan_worker_flaps_total", "Workers that dropped a task but survived",
     &RunMetrics::worker_flaps},
    {"scan_breaker_opens_total", "Circuit-breaker openings on flapping workers",
     &RunMetrics::breaker_opens},
    {"scan_checkpoints_saved_total",
     "Lost assignments resumed from a checkpoint",
     &RunMetrics::checkpoints_saved},
    {"scan_speculative_launches_total",
     "Speculative copies enqueued for stragglers",
     &RunMetrics::speculative_launches},
    {"scan_speculative_wasted_total",
     "Completions discarded as stale duplicates",
     &RunMetrics::speculative_wasted},
    {"scan_straggles_total", "Assignments injected with a slowdown",
     &RunMetrics::straggles_injected},
    {"scan_jobs_abandoned_total",
     "Jobs dropped after exhausting their retry budget",
     &RunMetrics::jobs_abandoned},
};

/// Read-only view of one worker for inspection hooks (testkit oracle).
struct WorkerView {
  std::uint64_t key = 0;
  cloud::Tier tier = cloud::Tier::kPrivate;
  int cores = 0;
  int threads = 0;
  bool busy = false;
  /// Job executing on this worker; meaningful only while busy.
  std::uint64_t current_job = 0;
  /// Pipeline stage of the current assignment; meaningful only while busy.
  std::size_t current_stage = 0;
  SimTime busy_until{0.0};
  SimTime busy_accumulated{0.0};
  SimTime hired_at{0.0};
  /// Busy, but the assignment's job already moved on (completed via a
  /// speculative sibling, was retried, or was abandoned) — the result
  /// will be discarded on arrival. Always false without fault injection.
  bool stale = false;
};

/// Read-only view of one queued task.
struct QueuedTaskView {
  std::uint64_t job_id = 0;
  std::size_t stage = 0;
  SimTime enqueued_at{0.0};
};

/// Consistent snapshot of the scheduler between two simulation events,
/// handed to SchedulerOptions::inspection_hook. Building one is O(live
/// state), so the hook is meant for verification harnesses, not sweeps.
struct SchedulerView {
  SimTime now{0.0};
  std::uint64_t event_seq = 0;
  /// Per-stage FIFO queues, front first.
  std::vector<std::vector<QueuedTaskView>> queues;
  /// Live workers, ascending key (deterministic order).
  std::vector<WorkerView> workers;
  std::size_t private_cores = 0;  ///< cores hired on the private tier
  std::size_t public_cores = 0;
  std::size_t private_capacity = 0;
  double cost_rate = 0.0;  ///< CU per TU burn rate right now
  /// Jobs sitting out a retry backoff (neither queued nor executing).
  std::size_t backoff_jobs = 0;
  /// Ids of the jobs with a stage in retry backoff, ascending (the oracle
  /// unions these with the queued/executing sets for job conservation).
  std::vector<std::uint64_t> backoff_job_ids;
  /// The pipeline DAG is the legacy linear chain; the oracle keeps its
  /// strict one-place-per-job invariants only in this mode (a DAG job
  /// legitimately occupies several queues/workers at once).
  bool linear_pipeline = true;
  /// Metrics accumulated so far (owned by the running scheduler).
  const RunMetrics* metrics = nullptr;
};

/// Extra knobs that are not part of the paper's parameter tables.
struct SchedulerOptions {
  /// Overrides the allocation algorithm with a fixed plan (used by the
  /// Figure 5 core-stage sweep).
  std::optional<ThreadPlan> forced_plan;
  /// When positive, sample a TimelinePoint every this many TU.
  SimTime timeline_sample_period{0.0};
  /// Replay this recorded workload instead of the synthetic arrival
  /// process (batches beyond config.duration are ignored).
  std::optional<workload::JobTrace> trace;
  /// Invoked before every simulation event with the event's (time,
  /// sequence) — feed it to a testkit::TraceDigest for bit-level run
  /// comparison. Must not mutate the scheduler.
  std::function<void(SimTime, std::uint64_t)> trace_hook;
  /// Invoked before every simulation event with a consistent SchedulerView
  /// (the testkit invariant oracle). Snapshot construction is O(state) per
  /// event; enable for verification runs only.
  std::function<void(const SchedulerView&)> inspection_hook;
  /// Record every task assignment and job completion into
  /// RunMetrics::stage_schedule / job_completions (the parity payload the
  /// live runtime is cross-validated against).
  bool record_schedule = false;
};

/// One simulated SCAN deployment: the mechanics core (engine.hpp) run on
/// its own calendar with no live host. Construct, then Run() exactly once.
class Scheduler {
 public:
  Scheduler(const SimulationConfig& config, gatk::PipelineModel model,
            std::uint64_t seed, SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Runs the simulation for config.duration and returns the metrics.
  /// Jobs still in flight at the horizon are not counted as completed, and
  /// cloud cost is settled exactly at the horizon.
  [[nodiscard]] RunMetrics Run();

  /// The thread plan the allocation algorithm produces for a job of the
  /// given size at the current knowledge state (exposed for tests and the
  /// experiment harness).
  [[nodiscard]] ThreadPlan PlanFor(DataSize size) const;

 private:
  std::unique_ptr<Engine> engine_;
  bool ran_ = false;
};

}  // namespace scan::core
