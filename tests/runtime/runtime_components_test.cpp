#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "scan/concurrency/thread_pool.hpp"
#include "scan/runtime/clock.hpp"
#include "scan/runtime/completion_queue.hpp"
#include "scan/runtime/live_worker.hpp"

namespace scan::runtime {
namespace {

TEST(CompletionQueueTest, FifoOrder) {
  CompletionQueue queue(8);
  queue.Push({1});
  queue.Push({2});
  queue.Push({3});
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.Pop().ticket, 1u);
  EXPECT_EQ(queue.Pop().ticket, 2u);
  EXPECT_EQ(queue.Pop().ticket, 3u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(CompletionQueueTest, TryPopOnEmptyReturnsNullopt) {
  CompletionQueue queue(4);
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(CompletionQueueTest, PopUntilTimesOut) {
  CompletionQueue queue(4);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_FALSE(queue.PopUntil(deadline).has_value());
}

TEST(CompletionQueueTest, PushBlocksWhenFullUntilConsumerDrains) {
  CompletionQueue queue(2);
  queue.Push({1});
  queue.Push({2});
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    queue.Push({3});  // must block until the consumer pops
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(queue.Pop().ticket, 1u);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.Pop().ticket, 2u);
  EXPECT_EQ(queue.Pop().ticket, 3u);
}

TEST(CompletionQueueTest, ManyProducersOneConsumer) {
  CompletionQueue queue(4);  // smaller than the producer count: forces
                             // backpressure on some pushes
  constexpr int kProducers = 16;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back(
        [&queue, i] { queue.Push({static_cast<std::uint64_t>(i + 1)}); });
  }
  std::uint64_t ticket_sum = 0;
  for (int i = 0; i < kProducers; ++i) ticket_sum += queue.Pop().ticket;
  for (auto& t : producers) t.join();
  EXPECT_EQ(ticket_sum, static_cast<std::uint64_t>(kProducers) *
                            (kProducers + 1) / 2);
}

TEST(SpinKernelTest, CalibrationProducesPositiveRate) {
  const SpinKernel kernel = SpinKernel::Calibrate();
  EXPECT_GT(kernel.iterations_per_second(), 0.0);
}

TEST(SpinKernelTest, BurnTakesRoughlyTheRequestedTime) {
  const SpinKernel kernel = SpinKernel::Calibrate();
  const auto start = std::chrono::steady_clock::now();
  kernel.Burn(0.02);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  // Lower bound is firm (the loop re-checks the wall clock); the upper
  // bound is the kernel's own 2x hard deadline plus slack for CI noise.
  EXPECT_GE(elapsed.count(), 0.018);
  EXPECT_LT(elapsed.count(), 0.5);
}

TEST(SpinKernelTest, ZeroBurnReturnsImmediately) {
  const SpinKernel kernel;
  kernel.Burn(0.0);
  kernel.Burn(-1.0);
  SUCCEED();
}

TEST(LiveWorkerTest, ReportsTicketAfterAllSlicesFinish) {
  ThreadPool pool(4);
  CompletionQueue completions(8);
  LiveWorker worker(7, 4, pool, completions, SpinKernel{});
  StageTask task;
  task.ticket = 42;
  task.slices = 4;
  worker.Execute(task);
  EXPECT_EQ(completions.Pop().ticket, 42u);
  pool.WaitIdle();
  EXPECT_FALSE(completions.TryPop().has_value()) << "exactly one message";
}

TEST(LiveWorkerTest, SurvivesDestructionWhileSlicesRun) {
  ThreadPool pool(2);
  CompletionQueue completions(8);
  {
    LiveWorker worker(1, 8, pool, completions, SpinKernel{});
    StageTask task;
    task.ticket = 9;
    task.slices = 8;
    task.burn_seconds = 0.005;
    worker.Execute(task);
  }  // worker destroyed with slices in flight (the failure-injection path)
  EXPECT_EQ(completions.Pop().ticket, 9u);
  pool.WaitIdle();
}

TEST(LiveWorkerTest, OneCompletionPerTaskForEverySliceCount) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    CompletionQueue completions(64);
    LiveWorker worker(5, 1, pool, completions, SpinKernel{});
    std::uint64_t slices_total = 0;
    for (int slices = 1; slices <= 17; ++slices) {
      StageTask task;
      task.ticket = 100 + static_cast<std::uint64_t>(slices);
      task.slices = slices;
      worker.Execute(task);
      EXPECT_EQ(completions.Pop().ticket, task.ticket);
      pool.WaitIdle();
      EXPECT_FALSE(completions.TryPop().has_value())
          << slices << " slices on " << threads << " threads";
      slices_total += static_cast<std::uint64_t>(slices);
    }
    EXPECT_EQ(pool.tasks_executed(), slices_total);
    EXPECT_EQ(pool.pending(), 0u);
  }
}

TEST(LiveWorkerTest, TaskWithoutSlicesIsRejected) {
  // A task with no slice would never report its ticket, and the
  // coordinator would block on it forever.
  ThreadPool pool(2);
  CompletionQueue completions(8);
  LiveWorker worker(6, 2, pool, completions, SpinKernel{});
  for (const int slices : {0, -1}) {
    StageTask task;
    task.ticket = 77;
    task.slices = slices;
    EXPECT_THROW(worker.Execute(task), std::invalid_argument);
  }
  EXPECT_EQ(pool.pending(), 0u);
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_executed(), 0u);
  EXPECT_FALSE(completions.TryPop().has_value());
}

TEST(LiveWorkerTest, ReconfigureChangesSliceFanOut) {
  ThreadPool pool(2);
  CompletionQueue completions(8);
  LiveWorker worker(3, 2, pool, completions, SpinKernel{});
  EXPECT_EQ(worker.threads(), 2);
  worker.Configure(8);
  EXPECT_EQ(worker.threads(), 8);
}

TEST(WallClockTest, TracksElapsedWallTime) {
  WallClock clock(0.01);  // 10 ms per TU
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  const double now_tu = clock.Now().value();
  EXPECT_GE(now_tu, 1.0);   // at least ~2.5 TU should have passed
  EXPECT_LT(now_tu, 100.0);  // sanity: not wildly off
}

}  // namespace
}  // namespace scan::runtime
