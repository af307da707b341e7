#pragma once

// The live SCAN platform: the paper's scheduler executing against real OS
// threads instead of simulated workers.
//
// Architecture (one coordinator, many executors):
//  - The coordinator thread runs the mechanics core (scan/core/engine.hpp)
//    — the same per-stage queues, worker books, fault recovery and shared
//    SchedulingPolicy the simulator runs — on its sim::Simulator calendar
//    (ladder queue, inline events, (time, sequence) FIFO tie-breaking).
//    RuntimePlatform is the engine's live host.
//  - Each hired worker VM is represented by a LiveWorker that physically
//    executes its stage task as `threads` parallel slices on a shared
//    execution ThreadPool and reports completion over a bounded MPSC
//    CompletionQueue.
//  - Under the virtual clock the calendar's clock is the run's clock: each
//    assignment's terminal event sits at its modeled instant and *gates on
//    the physical completion message* (the worker's ticket) before the
//    books are updated. Decisions therefore happen in exactly the
//    simulator's event order — with pinned seeds a run produces the
//    identical schedule, which scan_testkit's parity oracle checks bit
//    for bit.
//  - Under the wall clock the runtime is a real concurrent system: stage
//    tasks burn CPU for their modeled duration (mapped onto wall seconds),
//    the calendar fires events as their instants pass on the wall clock,
//    and completions are put on the calendar at their physical arrival.
//    Runs are not deterministic; this mode measures dispatch latency and
//    throughput and gives ThreadSanitizer real interleavings.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "scan/common/stats.hpp"
#include "scan/concurrency/thread_pool.hpp"
#include "scan/core/config.hpp"
#include "scan/core/engine.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/runtime/clock.hpp"
#include "scan/runtime/completion_queue.hpp"
#include "scan/runtime/ingest.hpp"
#include "scan/runtime/live_worker.hpp"
#include "scan/workload/trace.hpp"

namespace scan::runtime {

/// Knobs of one live run (the runtime analogue of SchedulerOptions).
struct RuntimeOptions {
  ClockMode clock = ClockMode::kVirtual;
  /// WallClock only: real seconds per simulated TU. The default maps a
  /// 200 TU smoke run onto ~0.4 s of wall time.
  double wall_seconds_per_tu = 0.002;
  /// Execution pool size (0 = hardware concurrency).
  std::size_t exec_threads = 0;
  /// Completion channel bound (producer backpressure threshold).
  std::size_t completion_capacity = 1024;
  std::optional<core::ThreadPlan> forced_plan;
  std::optional<double> allocation_price_hint;
  /// Replay this recorded workload instead of the synthetic arrivals.
  std::optional<workload::JobTrace> trace;
  /// Streaming ingest source (not owned; must outlive the platform).
  /// When set it replaces both the synthetic generator and `trace`: the
  /// platform pulls batches one at a time and reports every job outcome
  /// back, so a front end can meter admission against completions.
  IngestSource* ingest = nullptr;
  /// Record the parity payload (RunMetrics::stage_schedule et al.).
  bool record_schedule = false;
  /// When positive, sample a TimelinePoint every this many TU.
  SimTime timeline_sample_period{0.0};
};

/// What one live run produced: the simulator-shaped metrics plus the
/// runtime-only measurements (wall time, dispatch latency, pool load).
struct RuntimeReport {
  core::RunMetrics metrics;
  double wall_seconds = 0.0;
  /// Coordinator time per dispatch round (TryDispatchAll), microseconds.
  RunningStats dispatch_micros;
  std::uint64_t stage_tasks_dispatched = 0;
  /// Pool-level slice tasks executed over the run.
  std::uint64_t pool_tasks_executed = 0;
  std::size_t peak_pool_queue_depth = 0;
  std::size_t exec_threads = 0;
  ClockMode clock = ClockMode::kVirtual;

  [[nodiscard]] double jobs_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(metrics.jobs_completed) / wall_seconds;
  }
};

/// The engine options a live run implies: everything but the host's own
/// knobs (clock, pool, ingest). The runtime has no trace or inspection
/// hooks; the parity oracle runs the simulator with exactly these.
[[nodiscard]] core::SchedulerOptions EngineOptions(
    const RuntimeOptions& options);

/// One live SCAN deployment. Construct, then Serve() exactly once.
class RuntimePlatform : private core::EngineHost {
 public:
  RuntimePlatform(const core::SimulationConfig& config,
                  gatk::PipelineModel model, std::uint64_t seed,
                  RuntimeOptions options = {});
  ~RuntimePlatform();

  RuntimePlatform(const RuntimePlatform&) = delete;
  RuntimePlatform& operator=(const RuntimePlatform&) = delete;

  /// Runs the platform for config.duration (modeled TU) and returns the
  /// report. Cloud cost is settled exactly at the horizon, as in the
  /// simulator. An exception from the run (e.g. a broken IngestSource
  /// contract) propagates after every in-flight task has reported back.
  [[nodiscard]] RuntimeReport Serve();

  /// The plan the shared policy produces right now (exposed for tests).
  [[nodiscard]] core::ThreadPlan PlanFor(DataSize size) const {
    return engine_.PlanFor(size);
  }

 private:
  /// A dispatched assignment whose completion message is still owed.
  /// `orphaned` marks one whose worker crashed or flapped (wall clock):
  /// its eventual message is drained and discarded.
  struct InFlight {
    core::Assignment assignment;
    bool orphaned = false;
  };

  // --- core::EngineHost ---
  void OnHire(std::uint64_t worker_key, int threads) override;
  void OnReconfigure(std::uint64_t worker_key, int threads) override;
  void OnRelease(std::uint64_t worker_key) override;
  void Execute(const core::Assignment& assignment) override;
  [[nodiscard]] bool DeliversCompletions() const override {
    return wall_.has_value();
  }
  [[nodiscard]] bool Claim(std::uint64_t ticket) override;
  void OnDispatchRound(double micros) override;

  /// Wall clock: fires calendar events as their instants pass and puts
  /// each completion message on the calendar at its arrival instant.
  void RunWall();
  /// Schedules the completion of `ticket`, which arrived at `arrived`.
  void DeliverCompletion(std::uint64_t ticket, SimTime arrived);
  /// Blocks until the worker message for `ticket` has been consumed,
  /// draining (and stashing) other tickets that arrive first. Virtual
  /// clock only: this is the gate that makes real threads replay the
  /// modeled timeline.
  void WaitForTicket(std::uint64_t ticket);
  /// Consumes every message still owed by dispatched tasks (end of run).
  void DrainInFlight();

  RuntimeOptions options_;
  core::Engine engine_;
  SpinKernel kernel_;
  /// Set for the run's duration under ClockMode::kWall.
  std::optional<WallClock> wall_;
  CompletionQueue completions_;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  std::unordered_set<std::uint64_t> reaped_;  ///< popped ahead of their gate
  std::size_t unconsumed_ = 0;  ///< tickets dispatched, message not popped
  bool ran_ = false;

  // --- runtime-only measurements ---
  RunningStats dispatch_micros_;
  obs::Histogram* dispatch_micros_hist_ = nullptr;  ///< resolved in ctor
  std::uint64_t stage_tasks_dispatched_ = 0;
  std::size_t peak_pool_queue_depth_ = 0;

  std::unordered_map<std::uint64_t, std::unique_ptr<LiveWorker>>
      live_workers_;
  /// Declared last: its destructor joins executor threads that may still
  /// touch completions_ / live worker slice groups.
  std::unique_ptr<ThreadPool> exec_pool_;
};

}  // namespace scan::runtime
