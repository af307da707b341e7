#pragma once

// Work-stealing thread pool used to parallelize SCAN's host-side work:
// the experiment driver fans parameter points × repetitions across workers,
// the data sharders split large files in parallel, the GATK profiler
// runs its input-size × thread-count sweep concurrently, and the live
// runtime runs its stage tasks' slices.
//
// Design (per the C++ Core Guidelines CP rules and common HPC practice):
//  - per-worker home queues with stealing from the back of victims, which
//    keeps the common case (own work) contention-free;
//  - a task is an InplaceFunction<void(), kTaskCapacity>: move-only, and
//    any callable of up to kTaskCapacity bytes (a stage task's slice, a
//    ParallelFor chunk, a packaged_task) is stored inline, so wrapping a
//    task allocates nothing;
//  - Submit returns a future only through the typed helper, so hot paths
//    that don't need results avoid promise/future overhead;
//  - each home queue is a ring that keeps its capacity: a warm submit
//    writes into storage the queue already owns and a pop moves out of
//    it, so no heap block is allocated on the submitting thread and freed
//    on the executing one;
//  - an executor pops a batch per lock into its own buffer (which also
//    keeps its capacity) and runs it outside the lock: at most half of its
//    home queue, for every pool size, so the rest stays where thieves or
//    a helping caller can take it;
//  - a thread waiting on the pool's work may help instead of blocking:
//    TryRunOne runs the oldest queued task on the calling thread, with a
//    worker's accounting (one body shared with the worker loop);
//  - one Submit body, over a batch: a caller fanning out N tasks (a stage
//    task's slices, ParallelFor's chunks) pays each home queue's lock,
//    the shared counters and the wake-ups once per batch, not once per
//    task, and a single task is the batch of one;
//  - the pool joins its threads in the destructor (RAII; no detached
//    threads anywhere).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "scan/common/function_ref.hpp"
#include "scan/common/inplace_function.hpp"

namespace scan {

/// Inline bytes of a pool task: a 64-byte task, one cache line.
inline constexpr std::size_t kTaskCapacity = 48;

/// Move-only type-erased task (std::function requires copyability, which
/// packaged_task lacks). Callables above kTaskCapacity bytes still work;
/// they fall back to one heap block.
using UniqueTask = InplaceFunction<void(), kTaskCapacity>;

/// Fixed-size work-stealing thread pool.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues `n` fire-and-forget tasks, task k being make(k), built
  /// straight into the home queues (no staging in caller storage). Task k
  /// goes to home queue (c + k) mod thread_count() for a shared round-robin
  /// cursor c, exactly where one Submit per task would put it, so a batch
  /// still spreads over every worker. Each home queue's lock is taken once
  /// and at most min(n, thread_count()) workers are woken. `make` must
  /// return non-empty tasks.
  void Submit(std::size_t n, FunctionRef<UniqueTask(std::size_t)> make);

  /// Enqueues one fire-and-forget task (the batch of one). An empty task
  /// throws std::invalid_argument before anything is enqueued.
  void Submit(UniqueTask task);

  /// Enqueues a task and returns a future for its result.
  template <class F>
  auto SubmitWithResult(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    std::packaged_task<R()> pt(std::forward<F>(f));
    auto fut = pt.get_future();
    Submit(UniqueTask(std::move(pt)));
    return fut;
  }

  /// Blocks until every submitted task (including tasks submitted by other
  /// tasks during the wait) has finished.
  void WaitIdle();

  /// Runs the oldest task of the first non-empty home queue (the pool's
  /// oldest task when it has one thread) on the calling thread, counted
  /// exactly as if a worker had run it: tasks_executed(), queue_depth(),
  /// pending(), the pool's executed-task counter and WaitIdle() all see
  /// it. Returns false, running nothing, when no task is queued. A thread
  /// that waits for the pool's work calls it to help instead of sleeping.
  /// As on a worker, a task that throws terminates the program.
  bool TryRunOne();

  /// Tasks executed since construction (approximate; for tests/benches).
  [[nodiscard]] std::uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Tasks submitted but not yet picked up by a worker — the backlog the
  /// runtime's utilization feedback watches. A task counts as picked up
  /// once a worker has popped it into its batch or TryRunOne has taken it.
  /// Instantaneous and approximate under concurrency (monitoring only,
  /// never for synchronization).
  [[nodiscard]] std::size_t queue_depth() const {
    return queued_.load(std::memory_order_relaxed);
  }

  /// Tasks submitted but not yet finished (queued + executing).
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

 private:
  /// Initial ring size of a home queue, and of a worker's batch buffer.
  static constexpr std::size_t kRingStart = 16;

  /// One worker's home queue: a ring over `ring` (its size a power of two,
  /// grown by doubling when full and never shrunk) holding `size` tasks
  /// from `head` on; every other slot is empty.
  struct WorkerQueue {
    std::mutex mutex;
    std::vector<UniqueTask> ring = std::vector<UniqueTask>(kRingStart);
    std::size_t head = 0;
    std::size_t size = 0;

    void Push(UniqueTask&& task);
    /// Moves the oldest task out.
    UniqueTask PopFront();
    /// Moves the `n` oldest tasks onto the end of `out`.
    void PopFront(std::size_t n, std::vector<UniqueTask>& out);
    /// Moves the newest task onto the end of `out`.
    void PopBack(std::vector<UniqueTask>& out);
  };

  void WorkerLoop(std::size_t index);
  /// Pops a batch from the worker's own queue (see the header comment).
  bool PopBatch(std::size_t index, std::vector<UniqueTask>& batch);
  /// Steals one task from the cold end of another worker's queue.
  bool Steal(std::size_t thief, std::vector<UniqueTask>& batch);
  /// Runs popped tasks and settles their accounting: each task is
  /// destroyed before pending() falls (what it captured must not outlive
  /// a WaitIdle that returns), then the executed counts rise and the last
  /// pending task wakes the idle waiters. Worker batches and TryRunOne
  /// both run through it.
  void RunPopped(std::span<UniqueTask> tasks) noexcept;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> pending_{0};  // submitted but not yet finished
  std::atomic<std::size_t> queued_{0};   // submitted but not yet popped
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
};

/// Shared default pool sized to the machine. Created on first use;
/// intentionally leaked (per Core Guidelines advice on function-local
/// statics with nontrivial destruction order concerns this is safe because
/// the pool's destructor only joins threads).
[[nodiscard]] ThreadPool& DefaultPool();

/// Runs fn(i) for i in [begin, end) across the pool, blocking until done.
/// Chunks the range to amortize scheduling overhead; `grain` is the minimum
/// indices per task (0 = choose automatically).
void ParallelFor(ThreadPool& pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t grain = 0);

/// ParallelFor over the default pool.
inline void ParallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)>& fn,
                        std::size_t grain = 0) {
  ParallelFor(DefaultPool(), begin, end, fn, grain);
}

}  // namespace scan
