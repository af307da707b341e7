#pragma once

// The platform mechanics of §III-A-2, written once: admission, per-stage
// FIFO queues, worker books, dispatch, completion, fault recovery,
// speculation, idle release, compaction and the bandit epoch, all
// scheduled on one sim::Simulator calendar whose clock is the engine's
// clock. Two hosts drive it:
//  - core::Scheduler, the discrete-event simulator, runs it with no host:
//    every assignment's terminal event is a plain calendar event.
//  - runtime::RuntimePlatform, the live runtime, is an EngineHost: it
//    executes each assignment on real threads and gates or delivers its
//    completion. Under the virtual clock the terminal event waits for the
//    assignment's completion ticket; under the wall clock the completion
//    arrives as a message and only crash/flap timers are calendar events.
// The engine's worker books are the only ones either host keeps: a host
// learns of a worker only through the assignments it is handed. The host
// seam is touched only where the two differ, so the simulator pays a
// null-pointer branch there and nothing per event.
//
// The run types (RunMetrics, SchedulerOptions, SchedulerView) are the
// simulator's public ones, declared in scheduler.hpp.

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_set>
#include <vector>

#include "scan/cloud/cloud_manager.hpp"
#include "scan/common/slot_table.hpp"
#include "scan/core/config.hpp"
#include "scan/core/ingest.hpp"
#include "scan/core/policy.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/core/worker_index.hpp"
#include "scan/fault/health.hpp"
#include "scan/fault/injector.hpp"
#include "scan/fault/retry.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/audit.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/sim/simulator.hpp"
#include "scan/workload/arrivals.hpp"

namespace scan::core {

/// One task assignment handed to the host for physical execution.
struct Assignment {
  /// Unique per assignment (the engine's assignment sequence number);
  /// the terminal event claims the assignment by it.
  std::uint64_t ticket = 0;
  std::uint64_t job_id = 0;
  std::size_t stage = 0;
  std::uint64_t worker_key = 0;
  /// Task epoch the assignment started under (stale-result detection).
  std::uint64_t epoch = 0;
  /// The worker's thread configuration: the live host runs the task as
  /// this many parallel slices.
  int threads = 0;
  SimTime start{0.0};       ///< includes any boot/reconfiguration delay
  SimTime actual_end{0.0};  ///< straggle-extended completion instant
  /// Straggle overrun beyond the planned end (0 normally).
  SimTime extra{0.0};
  /// The exec attempt span (trace bookkeeping).
  std::uint64_t span = 0;
};

/// What the live runtime does differently from the simulator. The engine
/// never owns its host.
class EngineHost {
 public:
  /// Launches one assignment's physical execution.
  virtual void Execute(const Assignment& assignment) = 0;
  /// True when completions arrive as host messages (delivered through
  /// Engine::OnTaskComplete) instead of as calendar events at their
  /// modeled instant; crash and flap stay calendar events either way.
  [[nodiscard]] virtual bool DeliversCompletions() const = 0;
  /// Runs first in every terminal (completion, crash, flap) event of the
  /// assignment `ticket`; false means the assignment already ended
  /// physically and the event is moot.
  [[nodiscard]] virtual bool Claim(std::uint64_t ticket) = 0;

  /// Wall-clock cost of one dispatch round, microseconds.
  virtual void OnDispatchRound(double micros) = 0;

 protected:
  ~EngineHost() = default;
};

/// The mechanics core. Construct, Start(), advance calendar() to the
/// horizon, then Finish() exactly once.
class Engine {
 public:
  /// `host` and `ingest` are not owned and must outlive the engine. With
  /// an ingest source, arrivals come from it instead of the synthetic
  /// generator or options.trace, and every retired job is reported back.
  Engine(const SimulationConfig& config, gatk::PipelineModel model,
         std::uint64_t seed, SchedulerOptions options,
         EngineHost* host = nullptr, IngestSource* ingest = nullptr);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Seeds the calendar (first arrival, bandit epochs, timeline samples)
  /// and installs the options' trace and inspection hooks.
  void Start();

  /// The shared calendar the host advances; its clock is the run's clock.
  [[nodiscard]] sim::Simulator& calendar() { return sim_; }
  [[nodiscard]] const SimulationConfig& config() const { return config_; }

  /// Settles the cloud bill exactly at the horizon and hands over the
  /// metrics. Jobs still in flight are not counted as completed.
  [[nodiscard]] RunMetrics Finish();

  /// The thread plan the allocation algorithm produces for a job of the
  /// given size at the current knowledge state.
  [[nodiscard]] ThreadPlan PlanFor(DataSize size) const {
    return policy_.PlanFor(size);
  }

  /// The assignment on `worker_key` finished (a completion event, or a
  /// host-delivered message). `epoch` is the task epoch the assignment
  /// started under (stale completions free the worker but do not advance
  /// the task); `extra` is the straggle overrun beyond the planned end.
  void OnTaskComplete(std::uint64_t job_id, std::size_t stage,
                      std::uint64_t worker_key, std::uint64_t epoch,
                      SimTime extra);

 private:
  /// Per-stage readiness and recovery state of one job. DAG-readiness:
  /// a task joins its stage queue when remaining_deps reaches zero, and
  /// the job completes when every task has. For a linear chain exactly one
  /// task is live at a time, reproducing the legacy single-cursor walk.
  struct StageTask {
    SimTime enqueued_at{0.0};
    /// Predecessor stages not yet completed; ready at zero.
    std::size_t remaining_deps = 0;
    bool completed = false;
    /// Planned thread count (the job's plan, fixed at admission).
    int threads = 0;
    // --- recovery bookkeeping (inert without fault injection) ----------
    /// Fraction of the stage already checkpointed; a new assignment only
    /// executes the remaining (1 - stage_done) share.
    double stage_done = 0.0;
    /// Bumped on completion and on every retry: in-flight events carrying
    /// an older epoch are stale and must not advance the task.
    std::uint64_t epoch = 0;
    /// Same-epoch assignments currently executing (2 with a live
    /// speculative copy).
    int active = 0;
    /// Sitting out a retry backoff (not queued, not executing).
    bool in_backoff = false;
    /// A speculation check was already scheduled for this epoch.
    bool speculated = false;
    /// Causal parent recorded at the latest enqueue (span.hpp id of the
    /// predecessor attempt / job / retried attempt that made this task
    /// ready); read back when the dispatch emits its exec span. Pure
    /// bookkeeping for the trace — never feeds a decision.
    std::uint64_t enqueue_parent_span = 0;
  };

  /// The pricing fields (size, arrival, per-stage modeled time) are the
  /// PricedJob base, filled once at admission; stage queues point here.
  struct JobState : PricedJob {
    std::uint64_t id = 0;
    /// Times one of this job's tasks was lost and re-enqueued (the retry
    /// budget is per job across stages).
    int retries = 0;
    /// Cores x stages of the plan (TotalCoreStages), for the metrics.
    int core_stages = 0;
    /// Tasks not yet completed; the job settles its reward at zero.
    std::size_t stages_remaining = 0;
    std::vector<StageTask> tasks;  ///< one per pipeline stage
  };

  struct WorkerBook {
    cloud::WorkerId id{};
    cloud::Tier tier = cloud::Tier::kPrivate;  ///< fixed at hire
    int cores = 0;    ///< instance size (fixed at hire)
    int threads = 0;  ///< current software configuration (<= cores)
    bool busy = false;
    std::uint64_t current_job = 0;  ///< meaningful only while busy
    SimTime busy_until{0.0};
    SimTime idle_since{0.0};
    SimTime busy_accumulated{0.0};  ///< total task-execution time served
    std::uint64_t idle_epoch = 0;
    /// Stage of the current assignment; meaningful only while busy.
    std::size_t current_stage = 0;
    /// Epoch of the task when the current assignment started (staleness
    /// detection for speculative duplicates).
    std::uint64_t assignment_epoch = 0;
    /// Unique id of the current assignment (distinguishes the original
    /// from a speculative copy on re-assignment of the same worker).
    std::uint64_t assignment_seq = 0;
  };

  /// Worker feedback (§III-A-3): fold the released worker's lifetime
  /// utilization into the run metrics.
  void RecordWorkerUtilization(const WorkerBook& worker, SimTime now);
  /// Bills and drops a worker leaving the pool (crash, idle timeout or
  /// compaction). A release the cloud refuses throws std::logic_error.
  void RetireWorker(std::uint64_t worker_key, SimTime now);
  /// Releases one idle worker (idle timeout or compaction).
  void ReleaseIdleWorker(std::uint64_t worker_key, SimTime now);

  /// Pulls the next arrival batch (ingest source, trace cursor or
  /// synthetic generator) and schedules it; each fired batch pulls its
  /// successor, so the horizon is never materialized up front. The
  /// generator draws from its own RNG streams in the same order the eager
  /// path did, so schedules are bit-identical.
  void PumpArrivals();
  /// Admits jobs (plans, audits, enqueues their ready stages) without
  /// dispatching: every event ends in exactly one dispatch round.
  void Admit(const std::vector<workload::Job>& jobs);
  /// Reports a retired job to the ingest source and admits whatever it
  /// releases into the freed capacity. No-op without a source.
  void NotifyOutcome(std::uint64_t job_id, bool completed, SimTime latency,
                     DataSize size, double reward);
  /// Enqueues one ready stage task of a job onto its stage queue.
  /// `parent_span` is the causal origin of the readiness (job span on
  /// admission, completing predecessor's attempt span on a dependency
  /// release, the lost attempt's span on a retry, the running attempt's
  /// span for a speculative copy); recorded on the trace event and kept
  /// for the eventual exec span.
  void EnqueueTask(std::uint64_t job_id, std::size_t stage,
                   std::uint64_t parent_span);
  void TryDispatchAll();
  /// Attempts to dispatch the head of one stage queue; true on success.
  bool TryDispatchHead(std::size_t stage);
  void AssignTask(JobState& job, std::size_t stage, WorkerBook& worker,
                  SimTime start_time);
  /// Failure-injection: the worker crashed mid-task; bill and discard it,
  /// then run recovery for the interrupted assignment (checkpoint resume,
  /// retry budget, backoff). `start_time`/`planned_exec` describe the
  /// interrupted assignment for checkpoint accounting.
  void OnWorkerFailure(std::uint64_t job_id, std::size_t stage,
                       std::uint64_t worker_key, std::uint64_t epoch,
                       SimTime start_time, SimTime planned_exec);
  /// Flap-injection: the worker drops its task but survives and returns
  /// to the idle pool; feeds the per-worker circuit breaker.
  void OnWorkerFlap(std::uint64_t job_id, std::size_t stage,
                    std::uint64_t worker_key, std::uint64_t epoch,
                    SimTime start_time, SimTime planned_exec);
  /// Shared recovery path for a valid-epoch task loss (crash or flap):
  /// checkpoint credit, sibling check, retry budget, backoff scheduling.
  void HandleTaskLoss(JobState& job, std::size_t stage, SimTime served,
                      SimTime planned_exec);
  /// Retry budget exhausted: purge the job's queued tasks (a DAG job may
  /// have parallel branches queued), drop it, and report the outcome.
  void AbandonJob(std::uint64_t job_id);
  /// Straggler detection: fires at start + slowdown * modeled_exec; if
  /// the same assignment is still running, enqueues a speculative copy.
  void OnSpeculationCheck(std::uint64_t job_id, std::size_t stage,
                          std::uint64_t epoch, std::uint64_t worker_key,
                          std::uint64_t assignment_seq);
  void ScheduleIdleRelease(std::uint64_t worker_key);

  /// Key of one (job, stage) task for the speculative-copy ledger. Stage
  /// indices fit 8 bits (PipelineModel::kMaxStages).
  [[nodiscard]] static std::uint64_t TaskKey(std::uint64_t job_id,
                                             std::size_t stage) {
    return (job_id << 8) | static_cast<std::uint64_t>(stage);
  }

  /// The predictive hire-or-wait inequality for the head of `stage`'s
  /// queue; true = hire public capacity now. Delegates to the shared
  /// SchedulingPolicy, which prices the stage queue in place. `eval` (may
  /// be null) receives the priced inputs for the decision audit.
  [[nodiscard]] bool PredictiveShouldHire(std::size_t stage, int threads,
                                          DataSize head_size,
                                          HireEvaluation* eval = nullptr);

  /// Records one hire-vs-wait decision into the scan_obs audit log and
  /// trace (no-op unless one of them is enabled).
  void AuditHire(obs::HireChoice choice, std::size_t stage,
                 const JobState& job, int threads, std::size_t queue_length,
                 const HireEvaluation* eval);

  /// Records the thread-allocation decision for a newly admitted job
  /// (no-op unless the decision audit is enabled).
  void AuditPlan(std::uint64_t job_id, DataSize size, const ThreadPlan& plan);
  /// Earliest time an existing busy worker frees; nullopt if none busy.
  [[nodiscard]] std::optional<SimTime> NextWorkerFreeTime() const;

  /// The candidate-index view of one worker (key derives from its id).
  [[nodiscard]] static WorkerIndex::IdleEntry IdleEntryFor(
      const WorkerBook& worker);

  /// Oracle check (SCAN_TESTKIT_VERIFY_CANDIDATES): recomputes the
  /// candidate sets from the worker book with the legacy O(workers) scan
  /// and throws std::logic_error if the incremental index diverges.
  void VerifyCandidateIndex() const;

  /// Builds the inspection snapshot for the event about to execute.
  [[nodiscard]] SchedulerView BuildView(SimTime when, std::uint64_t seq) const;

  /// Compaction: releases idle private-tier workers (smallest first) until
  /// the private tier can fit `needed_cores` more. Returns true on
  /// success. Prevents fragmentation stalls where small idle workers pin
  /// capacity a larger queued task needs.
  bool TryFreePrivateCapacity(int needed_cores);

  /// Bandit epoch boundary: settle the bill and hand the totals to the
  /// policy's arm-selection step.
  void BanditEpoch();
  /// The queues, workers and cloud right now, as one timeline point.
  [[nodiscard]] TimelinePoint Snapshot() const;

  SimulationConfig config_;
  SchedulerOptions options_;
  EngineHost* host_;      ///< null for the simulator
  IngestSource* ingest_;  ///< null unless the host streams arrivals
  SchedulingPolicy policy_;  ///< the shared decision core
  cloud::CloudManager cloud_;
  workload::ArrivalGenerator arrivals_;
  sim::Simulator sim_;

  /// Trace replay batches + cursor (options_.trace only; the trace is
  /// already materialized, so streaming it costs nothing extra).
  std::vector<workload::ArrivalBatch> trace_batches_;
  std::size_t next_trace_batch_ = 0;

  /// Per-stage FIFO queues of jobs_ slots. A slot keeps its address, so an
  /// entry stays valid while its job lives, and a job is released only
  /// when no queue refers to it: AbandonJob purges its entries first, and
  /// a completed job has none (a queued speculative copy is removed when
  /// its task completes).
  std::vector<std::deque<JobState*>> queues_;
  /// The live jobs by id and the hired workers by key. A released slot is
  /// reused as the last holder left it, so a reused JobState's vectors
  /// keep their capacity.
  SlotTable<JobState> jobs_;
  SlotTable<WorkerBook> workers_;
  /// Incremental candidate index over workers_ (see worker_index.hpp);
  /// updated on every idle/busy transition, replacing per-decision scans.
  WorkerIndex index_;
  /// TryFreePrivateCapacity's release list, kept for its capacity.
  std::vector<std::uint64_t> compaction_victims_;
  /// Admit's plan for the job it is admitting, refilled in place.
  ThreadPlan plan_;

  fault::FaultInjector injector_;      ///< owns the "worker-failures" RNG
  fault::RetryPolicy retry_;
  fault::WorkerHealthTracker health_;  ///< circuit breaker (off by default)
  /// TaskKeys whose queue entry is a speculative straggler copy (at most
  /// one per task); consumed by AssignTask, cancelled on valid completion.
  std::unordered_set<std::uint64_t> speculative_queued_;
  std::uint64_t next_assignment_seq_ = 1;

  RunMetrics metrics_;
  /// The per-sample scan_obs instruments, resolved once; updates are gated
  /// on obs::MetricsEnabled() so the disabled cost is one load + branch.
  obs::PlatformMetrics pmetrics_ = obs::PlatformMetrics::Resolve();
  /// kRunCounters' counters (table order) and the two level gauges,
  /// registered at construction and written only by Finish.
  std::array<obs::Counter*, std::size(kRunCounters)> run_counters_{};
  obs::Gauge* queued_gauge_ = nullptr;
  obs::Gauge* busy_gauge_ = nullptr;
  /// Cached SCAN_TESTKIT_VERIFY_CANDIDATES; when set, every dispatch
  /// round cross-checks index_ against a from-scratch rescan.
  bool verify_candidates_ = false;
};

}  // namespace scan::core
