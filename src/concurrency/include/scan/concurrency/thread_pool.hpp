#pragma once

// Work-stealing thread pool used to parallelize SCAN's host-side work:
// the experiment driver fans parameter points × repetitions across workers,
// the data sharders split large files in parallel, and the GATK profiler
// runs its input-size × thread-count sweep concurrently.
//
// Design (per the C++ Core Guidelines CP rules and common HPC practice):
//  - per-worker deques with stealing from the back of victims, which keeps
//    the common case (own work) contention-free;
//  - tasks are type-erased move-only callables;
//  - Submit returns a future only through the typed helper, so hot paths
//    that don't need results avoid promise/future overhead;
//  - one Submit body, over a batch: a caller fanning out N tasks (a live
//    worker's slices, ParallelFor's chunks) pays each home queue's lock,
//    the shared counters and the wake-ups once per batch, not once per
//    task, and a single task is the batch of one;
//  - the pool joins its threads in the destructor (RAII; no detached
//    threads anywhere).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

namespace scan {

/// Move-only wrapper for arbitrary callables (std::function requires
/// copyability, which packaged_task lacks).
class UniqueTask {
 public:
  UniqueTask() = default;

  template <class F,
            class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, UniqueTask> &&
                                     std::is_invocable_v<std::decay_t<F>&>>>
  UniqueTask(F&& f)  // NOLINT(google-explicit-constructor)
      : impl_(std::make_unique<Model<std::decay_t<F>>>(std::forward<F>(f))) {}

  UniqueTask(UniqueTask&&) noexcept = default;
  UniqueTask& operator=(UniqueTask&&) noexcept = default;

  explicit operator bool() const { return impl_ != nullptr; }
  void operator()() { impl_->Invoke(); }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void Invoke() = 0;
  };
  template <class F>
  struct Model final : Concept {
    explicit Model(F f) : fn(std::move(f)) {}
    void Invoke() override { fn(); }
    F fn;
  };
  std::unique_ptr<Concept> impl_;
};

/// Fixed-size work-stealing thread pool.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues fire-and-forget tasks, moving each out of `tasks`. Task k
  /// goes to home queue (n + k) mod thread_count() for a shared round-robin
  /// cursor n, exactly where one Submit per task would put it, so a batch
  /// still spreads over every worker. Each home queue's lock is taken once
  /// and at most min(tasks.size(), thread_count()) workers are woken. An
  /// empty task throws std::invalid_argument before anything is enqueued.
  void Submit(std::span<UniqueTask> tasks);

  /// Enqueues one fire-and-forget task (the batch of one).
  void Submit(UniqueTask task) { Submit(std::span<UniqueTask>(&task, 1)); }

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

  /// Tasks executed since construction (approximate; for tests/benches).
  [[nodiscard]] std::uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Tasks submitted but not yet picked up by a worker — the backlog the
  /// runtime's utilization feedback watches. Instantaneous and approximate
  /// under concurrency (monitoring only, never for synchronization).
  [[nodiscard]] std::size_t queue_depth() const {
    return queued_.load(std::memory_order_relaxed);
  }

  /// Tasks submitted but not yet finished (queued + executing).
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<UniqueTask> deque;
  };

  void WorkerLoop(std::size_t index);
  bool TryPop(std::size_t index, UniqueTask& out);
  bool TrySteal(std::size_t thief, UniqueTask& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> pending_{0};  // submitted but not yet finished
  std::atomic<std::size_t> queued_{0};   // submitted but not yet started
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
