#pragma once

// A live worker VM stand-in: the physical side of one of the engine's
// worker books. Where the simulator merely schedules a completion event, a
// LiveWorker physically executes the stage task as `threads` parallel
// slices on the runtime's shared execution pool — modeling the paper's
// multithreaded stage execution (T_i(t, d)) with real concurrency — and
// the last slice to finish reports the task's ticket over the bounded
// completion queue. A task's slices are built straight into the pool's
// home queues in one batch submit, so the coordinator pays the pool's
// locks and wake-ups once per task and allocates nothing.
//
// The coordinator owns all scheduling state; a LiveWorker holds only what
// execution needs. What a task's slices share while they run is a
// SliceGroup the caller owns (in the runtime, a TicketBook slot held until
// the ticket's completion has been consumed): slices point at the group
// and copy nothing, and they never touch the worker object after launch,
// so it is safe to destroy a LiveWorker while its slices are still running
// (the failure-injection path does exactly this).

#include <atomic>
#include <cstdint>

#include "scan/concurrency/thread_pool.hpp"
#include "scan/runtime/clock.hpp"
#include "scan/runtime/completion_queue.hpp"

namespace scan::runtime {

/// One stage task handed to a worker for physical execution.
struct StageTask {
  std::uint64_t ticket = 0;
  /// Parallel slices to execute (= the worker's thread configuration).
  int slices = 1;
  /// Real seconds each slice sleeps before starting (boot/reconfiguration
  /// delay under the wall clock; 0 under the virtual clock).
  double pre_delay_seconds = 0.0;
  /// Real seconds of CPU each slice burns (the task's modeled duration
  /// mapped to wall time; 0 = token burn under the virtual clock).
  double burn_seconds = 0.0;
  /// Modeled start instant and duration (TU) — carried along so executor
  /// threads can stamp their kStageSlice trace spans with simulation time
  /// (the scan_obs determinism contract forbids wall-time stamps).
  double sim_start_tu = 0.0;
  double sim_exec_tu = 0.0;
  /// The exec attempt span this task belongs to: each kStageSlice event
  /// mints SliceSpan(ticket, slice) and points its parent here, stitching
  /// executor-thread slices into the causal span graph.
  std::uint64_t parent_span = 0;
};

/// What one stage task's slices share while they run: the task, the
/// kernel, the completion channel, and the countdown whose last decrement
/// reports the ticket. LiveWorker::Execute fills it; its owner must keep it
/// alive and unused until the ticket's completion message has been drained
/// (every slice's last access happens before that push).
struct SliceGroup {
  StageTask task;
  SpinKernel kernel;
  CompletionQueue* completions = nullptr;
  std::atomic<int> remaining{0};
};

/// One hired worker VM executing stage tasks on the shared pool.
class LiveWorker {
 public:
  LiveWorker(std::uint64_t key, int threads, ThreadPool& pool,
             CompletionQueue& completions, SpinKernel kernel)
      : key_(key),
        threads_(threads),
        pool_(&pool),
        completions_(&completions),
        kernel_(kernel) {}

  LiveWorker(const LiveWorker&) = delete;
  LiveWorker& operator=(const LiveWorker&) = delete;

  [[nodiscard]] std::uint64_t key() const { return key_; }
  [[nodiscard]] int threads() const { return threads_; }

  /// Software reconfiguration (the coordinator pays the boot penalty in
  /// modeled time; physically this just resizes the slice fan-out).
  void Configure(int threads) { threads_ = threads; }

  /// Launches the task's slices on the pool in one handoff, sharing
  /// `group` (see SliceGroup for its lifetime). The coordinator guarantees
  /// one task at a time per worker (the engine's worker book). Throws
  /// std::invalid_argument, before anything is queued, when task.slices < 1
  /// (its ticket could never be reported).
  void Execute(const StageTask& task, SliceGroup& group);

 private:
  std::uint64_t key_ = 0;
  int threads_ = 1;
  ThreadPool* pool_ = nullptr;
  CompletionQueue* completions_ = nullptr;
  SpinKernel kernel_;
};

}  // namespace scan::runtime
