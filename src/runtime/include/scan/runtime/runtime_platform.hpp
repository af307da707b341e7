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
//  - The engine's worker book is the only one: a worker VM has no object
//    here. Each dispatched assignment is booked in the platform's
//    TicketBook and executed as `threads` parallel slices on a shared
//    execution ThreadPool (LaunchSlices), the last of which reports the
//    ticket over a bounded MPSC CompletionQueue. The slices read their
//    ticket's slot, which is reused only after the coordinator has
//    consumed that ticket's completion and run its terminal event, and the
//    coordinator drains every queued completion under one lock: a warm
//    handoff allocates nothing on either side.
//  - Under the virtual clock the calendar's clock is the run's clock: each
//    assignment's terminal event sits at its modeled instant and *gates on
//    the physical completion message* (the worker's ticket) before the
//    books are updated. Decisions therefore happen in exactly the
//    simulator's event order — with pinned seeds a run produces the
//    identical schedule, which scan_testkit's parity oracle checks bit
//    for bit. The gate helps instead of sleeping: while its ticket is
//    unreported the coordinator runs queued slices itself
//    (ThreadPool::TryRunOne), draining before each, and blocks only when
//    none is queued. It is the completion queue's bound consumer, so the
//    ring keeps a slot for the message its own slice may push.
//  - Under the wall clock the runtime is a real concurrent system: stage
//    tasks burn CPU for their modeled duration (mapped onto wall seconds),
//    the calendar fires events as their instants pass on the wall clock,
//    and completions are put on the calendar at their physical arrival.
//    Runs are not deterministic; this mode measures dispatch latency and
//    throughput and gives ThreadSanitizer real interleavings.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "scan/common/stats.hpp"
#include "scan/concurrency/thread_pool.hpp"
#include "scan/core/config.hpp"
#include "scan/core/engine.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/runtime/clock.hpp"
#include "scan/runtime/completion_queue.hpp"
#include "scan/runtime/ingest.hpp"
#include "scan/runtime/ticket_book.hpp"

namespace scan::runtime {

/// Knobs of one live run: the engine's (core::SchedulerOptions, which the
/// engine reads exactly as the simulator does) plus the host's own. The
/// engine's trace_hook and inspection_hook run on the coordinator thread,
/// before each calendar event, under either clock.
struct RuntimeOptions : core::SchedulerOptions {
  ClockMode clock = ClockMode::kVirtual;
  /// WallClock only: real seconds per simulated TU, finite and > 0. The
  /// default maps a 200 TU smoke run onto ~0.4 s of wall time.
  double wall_seconds_per_tu = 0.002;
  /// Execution pool size (0 = hardware concurrency).
  std::size_t exec_threads = 0;
  /// Streaming ingest source (not owned; must outlive the platform).
  /// When set it replaces both the synthetic generator and `trace`: the
  /// platform pulls batches one at a time and reports every job outcome
  /// back, so a front end can meter admission against completions.
  IngestSource* ingest = nullptr;
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
  /// Most tickets outstanding at once (dispatched, terminal event not yet
  /// run) and the slots the ticket book held for them: the book is bounded
  /// by the former, not by the run's length.
  std::size_t peak_tickets_outstanding = 0;
  std::size_t ticket_slots = 0;
  std::size_t exec_threads = 0;
  ClockMode clock = ClockMode::kVirtual;

  [[nodiscard]] double jobs_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(metrics.jobs_completed) / wall_seconds;
  }
};

/// One live SCAN deployment. Construct, then Serve() exactly once.
class RuntimePlatform : private core::EngineHost {
 public:
  /// Throws std::invalid_argument, before anything is built, when the wall
  /// clock is selected with a wall_seconds_per_tu that is not finite and
  /// > 0.
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
  // --- core::EngineHost ---
  void Execute(const core::Assignment& assignment) override;
  [[nodiscard]] bool DeliversCompletions() const override {
    return wall_.has_value();
  }
  [[nodiscard]] bool Claim(std::uint64_t ticket) override;
  void OnDispatchRound(double micros) override;

  /// Wall clock: fires calendar events as their instants pass and puts
  /// each completion message on the calendar at its arrival instant.
  void RunWall();
  /// Schedules the terminal event of `ticket`'s completion, which arrived
  /// at `arrived`: it runs the engine's bookkeeping and frees the slot.
  void DeliverCompletion(std::uint64_t ticket, SimTime arrived);
  /// Marks the slots of the first `n` messages of the drain buffer
  /// reported. Virtual clock only: Claim drains until the claimed ticket
  /// is reported, the gate that makes real threads replay the modeled
  /// timeline.
  void MarkReported(std::size_t n);
  /// Consumes every message still owed by dispatched tasks (end of run).
  void DrainInFlight();
  /// The slot of a ticket that must be booked (std::logic_error if not).
  TicketBook::Slot& BookedSlot(std::uint64_t ticket);

  RuntimeOptions options_;
  core::Engine engine_;
  SpinKernel kernel_;
  /// Set for the run's duration under ClockMode::kWall.
  std::optional<WallClock> wall_;
  CompletionQueue completions_;
  std::vector<TaskCompletion> drained_;  ///< drain buffer, the ring's size
  std::size_t unconsumed_ = 0;  ///< tickets dispatched, message not drained
  bool ran_ = false;

  // --- runtime-only measurements ---
  RunningStats dispatch_micros_;
  std::uint64_t stage_tasks_dispatched_ = 0;
  std::size_t peak_pool_queue_depth_ = 0;

  /// Every dispatched ticket's slot (see ticket_book.hpp).
  TicketBook book_;
  /// Declared last: its destructor joins executor threads that may still
  /// touch kernel_, completions_ or the book's slots.
  std::unique_ptr<ThreadPool> exec_pool_;
};

}  // namespace scan::runtime
