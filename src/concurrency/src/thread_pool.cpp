#include "scan/concurrency/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "scan/obs/metrics.hpp"

namespace scan {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  WaitIdle();
  stopping_.store(true, std::memory_order_release);
  {
    // Pair the notify with the sleep mutex so no worker misses the flag
    // between its predicate check and its wait.
    const std::scoped_lock lock(sleep_mutex_);
  }
  work_available_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::Submit(UniqueTask task) {
  // Checked before any counter or queue changes: an empty task would be
  // called through a null pointer on a worker thread.
  if (!task) throw std::invalid_argument("ThreadPool::Submit: empty task");
  Submit(1, [&task](std::size_t) { return std::move(task); });
}

void ThreadPool::Submit(std::size_t n,
                        FunctionRef<UniqueTask(std::size_t)> make) {
  if (n == 0) return;
  pending_.fetch_add(n, std::memory_order_acq_rel);
  const std::size_t depth = queued_.fetch_add(n, std::memory_order_relaxed) + n;
  if (obs::MetricsEnabled()) {
    obs::PoolMetrics& pm = obs::PoolMetrics::Global();
    pm.tasks_submitted->Increment(n);
    pm.queue_depth->Set(static_cast<double>(depth));
  }
  // Task k's home is (first + k) mod queues, the round-robin order of one
  // Submit per task; each home takes its tasks under a single lock.
  const std::size_t queues = queues_.size();
  const std::size_t first =
      queues == 1 ? 0 : next_queue_.fetch_add(n, std::memory_order_relaxed);
  for (std::size_t h = 0; h < std::min(n, queues); ++h) {
    WorkerQueue& home = *queues_[(first + h) % queues];
    const std::scoped_lock lock(home.mutex);
    for (std::size_t k = h; k < n; k += queues) home.Push(make(k));
  }
  if (n >= workers_.size()) {
    work_available_.notify_all();
  } else {
    for (std::size_t i = 0; i < n; ++i) work_available_.notify_one();
  }
}

void ThreadPool::WorkerQueue::Push(UniqueTask&& task) {
  if (size == ring.size()) {
    std::vector<UniqueTask> grown(2 * ring.size());
    for (std::size_t i = 0; i < size; ++i) {
      grown[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
    }
    ring.swap(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = std::move(task);
  ++size;
}

UniqueTask ThreadPool::WorkerQueue::PopFront() {
  UniqueTask task = std::move(ring[head]);
  head = (head + 1) & (ring.size() - 1);
  --size;
  return task;
}

void ThreadPool::WorkerQueue::PopFront(std::size_t n,
                                       std::vector<UniqueTask>& out) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(PopFront());
}

void ThreadPool::WorkerQueue::PopBack(std::vector<UniqueTask>& out) {
  --size;
  out.push_back(std::move(ring[(head + size) & (ring.size() - 1)]));
}

bool ThreadPool::PopBatch(std::size_t index, std::vector<UniqueTask>& batch) {
  WorkerQueue& q = *queues_[index];
  const std::scoped_lock lock(q.mutex);
  if (q.size == 0) return false;
  // Half, even with one thread: the rest is left for thieves and helpers.
  const std::size_t take = std::max<std::size_t>(1, q.size / 2);
  // No batch outgrows the ring, so the buffer grows only when a ring has.
  batch.reserve(q.ring.size());
  q.PopFront(take, batch);
  queued_.fetch_sub(take, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::Steal(std::size_t thief, std::vector<UniqueTask>& batch) {
  const std::size_t n = queues_.size();
  for (std::size_t offset = 1; offset < n; ++offset) {
    WorkerQueue& q = *queues_[(thief + offset) % n];
    const std::scoped_lock lock(q.mutex);
    if (q.size > 0) {
      q.PopBack(batch);  // steal from the cold end
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool ThreadPool::TryRunOne() {
  UniqueTask task;
  for (const auto& queue : queues_) {
    WorkerQueue& q = *queue;
    const std::scoped_lock lock(q.mutex);
    if (q.size == 0) continue;
    task = q.PopFront();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    break;
  }
  if (!task) return false;
  RunPopped(std::span<UniqueTask>(&task, 1));
  return true;
}

void ThreadPool::RunPopped(std::span<UniqueTask> tasks) noexcept {
  // Tasks must not throw across the pool boundary; a throwing
  // fire-and-forget task is a programming error -> terminate (noexcept),
  // matching std::thread semantics. packaged_task-based submissions
  // capture exceptions into the future before reaching here.
  for (UniqueTask& task : tasks) task();
  for (UniqueTask& task : tasks) task = UniqueTask();
  const std::size_t ran = tasks.size();
  tasks_executed_.fetch_add(ran, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    obs::PoolMetrics::Global().tasks_executed->Increment(ran);
  }
  if (pending_.fetch_sub(ran, std::memory_order_acq_rel) == ran) {
    const std::scoped_lock lock(sleep_mutex_);
    idle_.notify_all();
  }
}

void ThreadPool::WorkerLoop(std::size_t index) {
  std::vector<UniqueTask> batch;  // keeps its capacity from round to round
  batch.reserve(kRingStart);
  for (;;) {
    if (PopBatch(index, batch) || Steal(index, batch)) {
      RunPopped(batch);
      batch.clear();
      continue;
    }
    std::unique_lock lock(sleep_mutex_);
    if (stopping_.load(std::memory_order_acquire)) return;
    if (pending_.load(std::memory_order_acquire) == 0) {
      idle_.notify_all();
    }
    // Re-check queues under the sleep mutex is unnecessary: a submitter
    // enqueues before notifying, and notify_one is called after release of
    // the queue mutex, so a missed notify leaves pending_ > 0 and the
    // timed wait below recovers promptly.
    work_available_.wait_for(lock, std::chrono::milliseconds(1), [this] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_.load(std::memory_order_acquire)) return;
  }
}

void ThreadPool::WaitIdle() {
  std::unique_lock lock(sleep_mutex_);
  idle_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

ThreadPool& DefaultPool() {
  static auto* pool = new ThreadPool();  // intentionally leaked; joins on exit not needed
  return *pool;
}

void ParallelFor(ThreadPool& pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (grain == 0) {
    // Aim for ~4 chunks per worker to smooth imbalance without flooding the
    // queues with tiny tasks.
    const std::size_t target_chunks = pool.thread_count() * 4;
    grain = std::max<std::size_t>(1, n / std::max<std::size_t>(1, target_chunks));
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // The completion state must be heap-owned and shared with every task:
  // with it on this frame's stack, the waiter can wake between the last
  // worker's counter update and its notify, see the work complete, and
  // return — destroying the mutex/cv while that worker still touches them
  // (a use-after-return ThreadSanitizer catches). Keeping a shared_ptr in
  // each task makes any interleaving safe, and mutating `remaining` only
  // under the mutex closes the wake-before-notify window.
  struct CompletionState {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t remaining = 0;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<CompletionState>();
  state->remaining = chunks;

  pool.Submit(chunks, [&](std::size_t c) -> UniqueTask {
    const std::size_t chunk_begin = begin + c * grain;
    const std::size_t chunk_end = std::min(end, chunk_begin + grain);
    // `fn` by reference is safe: the waiter cannot return before
    // `remaining` hits zero, which happens only after every chunk has
    // finished calling `fn`.
    return [state, &fn, chunk_begin, chunk_end] {
      std::exception_ptr error;
      try {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      const std::scoped_lock lock(state->mutex);
      if (error && !state->first_error) state->first_error = error;
      if (--state->remaining == 0) state->done_cv.notify_all();
    };
  });
  std::unique_lock lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->remaining == 0; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace scan
