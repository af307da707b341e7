#include "scan/concurrency/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace scan {
namespace {

TEST(UniqueTaskTest, InvokesWrappedCallable) {
  int calls = 0;
  UniqueTask task([&] { ++calls; });
  ASSERT_TRUE(static_cast<bool>(task));
  task();
  EXPECT_EQ(calls, 1);
}

TEST(UniqueTaskTest, EmptyIsFalse) {
  const UniqueTask task;
  EXPECT_FALSE(static_cast<bool>(task));
}

TEST(UniqueTaskTest, WrapsMoveOnlyCallable) {
  auto ptr = std::make_unique<int>(5);
  int seen = 0;
  UniqueTask task([p = std::move(ptr), &seen] { seen = *p; });
  task();
  EXPECT_EQ(seen, 5);
}

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit(UniqueTask([&] { counter.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_GE(pool.tasks_executed(), 100u);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit(UniqueTask([&] { counter.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SubmitWithResultReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.SubmitWithResult([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, CountersSettleAfterWaitIdle) {
  ThreadPool pool(4);
  const std::uint64_t executed_before = pool.tasks_executed();
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit(UniqueTask([&] { counter.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 200);
  EXPECT_EQ(pool.tasks_executed() - executed_before, 200u);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, QueueDepthSeesBacklogBehindBlockedWorkers) {
  // One worker, blocked on a latch: everything submitted behind it must be
  // visible as queue depth, and pending must count the executing task too.
  ThreadPool pool(1);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> first_running{false};
  pool.Submit(UniqueTask([&] {
    first_running.store(true);
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  }));
  while (!first_running.load()) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) {
    pool.Submit(UniqueTask([] {}));
  }
  EXPECT_EQ(pool.queue_depth(), 5u);
  EXPECT_EQ(pool.pending(), 6u);
  {
    const std::scoped_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  pool.WaitIdle();
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, SubmitWithResultPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.SubmitWithResult(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit(UniqueTask([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit(UniqueTask([&] { counter.fetch_add(1); }));
    }
  }));
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.Submit(UniqueTask([&] { counter.fetch_add(1); }));
    }
  }  // destructor waits
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, DefaultPoolIsShared) {
  ThreadPool& a = DefaultPool();
  ThreadPool& b = DefaultPool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
}

TEST(ParallelForTest, CoversEntireRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(pool, 0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(pool, 5, 5, [&](std::size_t) { ++calls; });
  ParallelFor(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, SmallRangeRunsInline) {
  ThreadPool pool(4);
  std::vector<std::size_t> seen;
  // grain larger than range -> single chunk, executed inline.
  ParallelFor(pool, 0, 3, [&](std::size_t i) { seen.push_back(i); }, 100);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParallelForTest, ParallelSumMatchesSequential) {
  ThreadPool pool(4);
  const std::size_t n = 100'000;
  std::atomic<long long> total{0};
  ParallelFor(pool, 0, n, [&](std::size_t i) {
    total.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ParallelForTest, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(pool, 0, 1000,
                  [&](std::size_t i) {
                    if (i == 537) throw std::logic_error("boom");
                  }),
      std::logic_error);
  // Pool must remain usable afterwards.
  std::atomic<int> counter{0};
  ParallelFor(pool, 0, 10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelForTest, ExplicitGrainRespected) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ParallelFor(pool, 0, 64, [&](std::size_t) { counter.fetch_add(1); }, 16);
  EXPECT_EQ(counter.load(), 64);
}

// Parameterized stress: many pool sizes handle the same fan-out correctly.
class PoolSizeProperty : public testing::TestWithParam<int> {};

TEST_P(PoolSizeProperty, FanOutSumsCorrectly) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  std::atomic<long long> sum{0};
  constexpr int kTasks = 500;
  for (int i = 1; i <= kTasks; ++i) {
    pool.Submit(UniqueTask(
        [&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(sum.load(), static_cast<long long>(kTasks) * (kTasks + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolSizeProperty, testing::Values(1, 2, 4, 8));

// ---- Batch submit ----------------------------------------------------------

/// A batch of `n` tasks, task k marking seen[k]; each mark is counted.
std::vector<UniqueTask> MarkingBatch(std::vector<std::atomic<int>>& seen) {
  std::vector<UniqueTask> batch;
  for (std::size_t k = 0; k < seen.size(); ++k) {
    batch.emplace_back([&seen, k] { seen[k].fetch_add(1); });
  }
  return batch;
}

/// Submits `batch` as one batch, moving every task out of it.
void SubmitAll(ThreadPool& pool, std::vector<UniqueTask>& batch) {
  pool.Submit(batch.size(),
              [&batch](std::size_t k) { return std::move(batch[k]); });
}

class BatchSubmitProperty : public testing::TestWithParam<int> {};

TEST_P(BatchSubmitProperty, EveryTaskRunsExactlyOnce) {
  const auto threads = static_cast<std::size_t>(GetParam());
  ThreadPool pool(threads);
  std::uint64_t expected_executed = 0;
  // Empty, single, fewer than threads, equal, and more than threads.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, threads - 1, threads, threads + 1,
        3 * threads + 2, std::size_t{257}}) {
    std::vector<std::atomic<int>> seen(n);
    std::vector<UniqueTask> batch = MarkingBatch(seen);
    SubmitAll(pool, batch);
    for (const UniqueTask& task : batch) {
      EXPECT_FALSE(static_cast<bool>(task)) << "tasks are moved out";
    }
    pool.WaitIdle();
    expected_executed += n;
    EXPECT_EQ(pool.tasks_executed(), expected_executed) << "batch " << n;
    EXPECT_EQ(pool.pending(), 0u) << "batch " << n;
    EXPECT_EQ(pool.queue_depth(), 0u) << "batch " << n;
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(seen[k].load(), 1) << "task " << k << " of batch " << n;
    }
  }
}

TEST_P(BatchSubmitProperty, BatchesFromManySubmittersAllRun) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  constexpr int kSubmitters = 3;
  constexpr int kBatches = 40;
  std::atomic<long long> sum{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &sum] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<UniqueTask> batch;
        for (int k = 1; k <= b % 7; ++k) {
          batch.emplace_back([&sum, k] { sum.fetch_add(k); });
        }
        SubmitAll(pool, batch);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.WaitIdle();
  long long expected = 0;
  for (int b = 0; b < kBatches; ++b) expected += (b % 7) * (b % 7 + 1) / 2;
  EXPECT_EQ(sum.load(), kSubmitters * expected);
  EXPECT_EQ(pool.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchSubmitProperty, testing::Values(1, 2, 4));

TEST(ThreadPoolTest, BatchSpreadsOverEveryWorker) {
  // One batch of `threads` tasks that can only finish together: each task
  // waits for all the others to start, so the batch completes only if
  // every worker runs one of its tasks at the same time.
  constexpr std::size_t kThreads = 4;
  ThreadPool pool(kThreads);
  std::atomic<std::size_t> started{0};
  std::atomic<bool> all_started{false};
  std::vector<UniqueTask> batch;
  for (std::size_t k = 0; k < kThreads; ++k) {
    batch.emplace_back([&] {
      started.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (started.load() < kThreads &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (started.load() == kThreads) all_started.store(true);
    });
  }
  SubmitAll(pool, batch);
  pool.WaitIdle();
  EXPECT_TRUE(all_started.load());
}

TEST(ThreadPoolTest, EmptyTaskIsRejectedBeforeAnythingIsQueued) {
  ThreadPool pool(2);
  // Empty: it would be called through a null pointer on a worker.
  EXPECT_THROW(pool.Submit(UniqueTask()), std::invalid_argument);
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.queue_depth(), 0u);
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_executed(), 0u);
  // The pool still works.
  std::atomic<int> ran{0};
  pool.Submit(UniqueTask([&] { ran.fetch_add(1); }));
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1);
}

// ---- Helping callers (TryRunOne) and the batch rule --------------------------

/// Holds the tasks that call Pass() until Open(). Declare it before the
/// pool (it must outlive the tasks) and Open() it before the test ends.
class Gate {
 public:
  void Pass() {
    std::unique_lock lock(mutex_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  /// Returns once `n` tasks have called Pass().
  void AwaitWaiters(int n) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this, n] { return waiting_ >= n; });
  }
  void Open() {
    {
      const std::scoped_lock lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool open_ = false;
};

TEST(ThreadPoolHelpTest, NothingQueuedRunsNothing) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.TryRunOne());
  std::atomic<int> ran{0};
  pool.Submit(UniqueTask([&] { ran.fetch_add(1); }));
  pool.WaitIdle();
  EXPECT_FALSE(pool.TryRunOne());
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.tasks_executed(), 1u);
}

TEST(ThreadPoolHelpTest, HelperDrainsTheQueueBehindAHeldWorkerOldestFirst) {
  // The one worker is held inside a task: everything submitted behind it,
  // one at a time or as a batch, is run by the helping thread, oldest
  // first, and nothing is left for the worker.
  Gate gate;
  ThreadPool pool(1);
  pool.Submit(UniqueTask([&gate] { gate.Pass(); }));
  gate.AwaitWaiters(1);
  std::vector<int> order;  // written by this thread only
  for (int i = 0; i < 3; ++i) {
    pool.Submit(UniqueTask([&order, i] { order.push_back(i); }));
  }
  pool.Submit(5, [&order](std::size_t k) {
    return UniqueTask([&order, k] { order.push_back(3 + static_cast<int>(k)); });
  });
  int helped = 0;
  while (pool.TryRunOne()) ++helped;
  EXPECT_EQ(helped, 8);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.pending(), 1u) << "the held task";
  gate.Open();
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_executed(), 9u);
}

TEST(ThreadPoolHelpTest, HelpedTaskIsCountedAsAWorkersWouldBe) {
  // After the helper runs a task, every counter reads as if the worker
  // had run it, and WaitIdle (blocked on another thread meanwhile)
  // returns once the rest is done.
  Gate gate;
  ThreadPool pool(1);
  pool.Submit(UniqueTask([&gate] { gate.Pass(); }));
  gate.AwaitWaiters(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) {
    pool.Submit(UniqueTask([&ran] { ran.fetch_add(1); }));
  }
  EXPECT_EQ(pool.queue_depth(), 3u);
  EXPECT_EQ(pool.pending(), 4u);
  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    pool.WaitIdle();
    idle.store(true);
  });
  EXPECT_TRUE(pool.TryRunOne());
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.tasks_executed(), 1u);
  EXPECT_EQ(pool.queue_depth(), 2u);
  EXPECT_EQ(pool.pending(), 3u);
  EXPECT_FALSE(idle.load());
  gate.Open();
  waiter.join();
  EXPECT_TRUE(idle.load());
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(pool.tasks_executed(), 4u);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolHelpTest, OneThreadExecutorLeavesHalfABatchQueued) {
  // The executor pops at most half of its queue per lock even when it is
  // the only one: while it is held inside the first task of its batch, at
  // least half of the batch is still queued for a helper to take.
  constexpr std::size_t kBatch = 8;
  Gate gate;
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  pool.Submit(kBatch, [&gate, &ran](std::size_t k) {
    if (k == 0) return UniqueTask([&gate] { gate.Pass(); });
    return UniqueTask([&ran] { ran.fetch_add(1); });
  });
  gate.AwaitWaiters(1);
  EXPECT_GE(pool.queue_depth(), kBatch / 2);
  std::size_t helped = 0;
  while (pool.TryRunOne()) ++helped;
  EXPECT_GE(helped, kBatch / 2);
  gate.Open();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), static_cast<int>(kBatch) - 1);
  EXPECT_EQ(pool.tasks_executed(), kBatch);
}

}  // namespace
}  // namespace scan
