#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "scan/concurrency/thread_pool.hpp"
#include "scan/runtime/clock.hpp"
#include "scan/runtime/completion_queue.hpp"
#include "scan/runtime/ticket_book.hpp"

namespace scan::runtime {
namespace {

/// Drains exactly one message (blocking).
TaskCompletion NextMessage(CompletionQueue& queue) {
  TaskCompletion message;
  EXPECT_EQ(queue.Drain(std::span<TaskCompletion>(&message, 1)), 1u);
  return message;
}

/// An assignment holding `ticket`, run as `slices` slices.
core::Assignment Task(std::uint64_t ticket, int slices = 1) {
  core::Assignment assignment;
  assignment.ticket = ticket;
  assignment.threads = slices;
  return assignment;
}

/// True when no message is queued right now.
bool NoMessage(CompletionQueue& queue) {
  TaskCompletion message;
  return queue.DrainUntil(std::span<TaskCompletion>(&message, 1),
                          std::chrono::steady_clock::now()) == 0;
}

TEST(CompletionQueueTest, FifoOrder) {
  CompletionQueue queue(8);
  queue.Push({1});
  queue.Push({2});
  queue.Push({3});
  std::vector<TaskCompletion> out(8);
  ASSERT_EQ(queue.Drain(out), 3u);
  EXPECT_EQ(out[0].ticket, 1u);
  EXPECT_EQ(out[1].ticket, 2u);
  EXPECT_EQ(out[2].ticket, 3u);
  EXPECT_TRUE(NoMessage(queue));
}

TEST(CompletionQueueTest, DrainTakesAtMostItsBuffer) {
  CompletionQueue queue(8);
  for (std::uint64_t t = 1; t <= 5; ++t) queue.Push({t});
  std::vector<TaskCompletion> out(2);
  ASSERT_EQ(queue.Drain(out), 2u);
  EXPECT_EQ(out[0].ticket, 1u);
  EXPECT_EQ(out[1].ticket, 2u);
  out.resize(8);
  ASSERT_EQ(queue.Drain(out), 3u);
  EXPECT_EQ(out[0].ticket, 3u);
  EXPECT_EQ(out[2].ticket, 5u);
}

TEST(CompletionQueueTest, WrapsAroundTheRing) {
  // Capacity 3 is not a power of two, and 20 rounds of two messages cross
  // the wrap point many times.
  CompletionQueue queue(3);
  std::vector<TaskCompletion> out(3);
  for (std::uint64_t round = 0; round < 20; ++round) {
    queue.Push({2 * round});
    queue.Push({2 * round + 1});
    ASSERT_EQ(queue.Drain(out), 2u);
    EXPECT_EQ(out[0].ticket, 2 * round);
    EXPECT_EQ(out[1].ticket, 2 * round + 1);
  }
}

TEST(CompletionQueueTest, DrainUntilOnEmptyWithPastDeadlineReturnsZero) {
  CompletionQueue queue(4);
  EXPECT_TRUE(NoMessage(queue));
}

TEST(CompletionQueueTest, DrainUntilTimesOut) {
  CompletionQueue queue(4);
  std::vector<TaskCompletion> out(4);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.DrainUntil(out, start + std::chrono::milliseconds(20)), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
}

TEST(CompletionQueueTest, PushBlocksWhenFullUntilConsumerDrains) {
  CompletionQueue queue(2);
  queue.Push({1});
  queue.Push({2});
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    queue.Push({3});  // must block until the consumer drains
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  std::vector<TaskCompletion> out(2);
  ASSERT_EQ(queue.Drain(out), 2u);
  EXPECT_EQ(out[0].ticket, 1u);
  EXPECT_EQ(out[1].ticket, 2u);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(NextMessage(queue).ticket, 3u);
}

TEST(CompletionQueueTest, BoundConsumerOwnsTheLastSlot) {
  // Once a consumer is bound, other producers stop one slot short of
  // full, and the consumer's own push takes that slot at once: a consumer
  // that pushes never waits on a ring only it can empty.
  CompletionQueue queue(4);
  queue.BindConsumer();
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (std::uint64_t t = 1; t <= 4; ++t) {
      queue.Push({t});
      pushed.fetch_add(1);
    }
  });
  while (pushed.load() < 3) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  if (pushed.load() != 3) {
    // The ring is full: the consumer's push below would wait forever.
    std::vector<TaskCompletion> out(4);
    while (queue.TryDrain(out) > 0 || pushed.load() < 4) {
    }
    producer.join();
    FAIL() << "a producer took the consumer's slot";
  }
  queue.Push({99});  // returns at once: the last slot is the consumer's
  std::vector<TaskCompletion> out(4);
  ASSERT_EQ(queue.Drain(out), 4u);
  EXPECT_EQ(out[0].ticket, 1u);
  EXPECT_EQ(out[2].ticket, 3u);
  EXPECT_EQ(out[3].ticket, 99u);
  producer.join();
  EXPECT_EQ(pushed.load(), 4);
  EXPECT_EQ(NextMessage(queue).ticket, 4u);
}

TEST(CompletionQueueTest, OneSlotRingCannotBindAConsumer) {
  // Its one slot would be the consumer's, leaving producers none.
  CompletionQueue queue(1);
  EXPECT_THROW(queue.BindConsumer(), std::logic_error);
  queue.Push({1});
  EXPECT_EQ(NextMessage(queue).ticket, 1u);
}

TEST(CompletionQueueTest, TryDrainNeverBlocks) {
  CompletionQueue queue(4);
  std::vector<TaskCompletion> out(4);
  EXPECT_EQ(queue.TryDrain(out), 0u);
  queue.Push({5});
  queue.Push({6});
  ASSERT_EQ(queue.TryDrain(out), 2u);
  EXPECT_EQ(out[0].ticket, 5u);
  EXPECT_EQ(out[1].ticket, 6u);
  EXPECT_EQ(queue.TryDrain(out), 0u);
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
  std::vector<TaskCompletion> out(4);
  for (int drained = 0; drained < kProducers;) {
    const std::size_t n = queue.Drain(out);
    for (std::size_t i = 0; i < n; ++i) ticket_sum += out[i].ticket;
    drained += static_cast<int>(n);
  }
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

TEST(LaunchSlicesTest, ReportsTicketAfterAllSlicesFinish) {
  const SpinKernel kernel;
  CompletionQueue completions(8);
  TicketBook book;
  ThreadPool pool(4);
  LaunchSlices(book.Acquire(Task(42, 4)), pool, kernel, completions);
  EXPECT_EQ(NextMessage(completions).ticket, 42u);
  pool.WaitIdle();
  EXPECT_TRUE(NoMessage(completions)) << "exactly one message";
  EXPECT_EQ(pool.tasks_executed(), 4u);
}

TEST(LaunchSlicesTest, OneCompletionPerTaskForEverySliceCount) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const SpinKernel kernel;
    CompletionQueue completions(64);
    TicketBook book;
    ThreadPool pool(threads);
    std::uint64_t slices_total = 0;
    for (int slices = 1; slices <= 17; ++slices) {
      const std::uint64_t ticket = 100 + static_cast<std::uint64_t>(slices);
      TicketBook::Slot& slot = book.Acquire(Task(ticket, slices));
      LaunchSlices(slot, pool, kernel, completions);
      EXPECT_EQ(NextMessage(completions).ticket, ticket);
      pool.WaitIdle();
      EXPECT_TRUE(NoMessage(completions))
          << slices << " slices on " << threads << " threads";
      book.Release(slot);  // one slot, reused once reported
      slices_total += static_cast<std::uint64_t>(slices);
    }
    EXPECT_EQ(book.slots(), 1u);
    EXPECT_EQ(pool.tasks_executed(), slices_total);
    EXPECT_EQ(pool.pending(), 0u);
  }
}

TEST(LaunchSlicesTest, TaskWithoutSlicesIsRejected) {
  // A task with no slice would never report its ticket, and the
  // coordinator would block on it forever.
  const SpinKernel kernel;
  CompletionQueue completions(8);
  TicketBook book;
  ThreadPool pool(2);
  for (const int slices : {0, -1}) {
    TicketBook::Slot& slot = book.Acquire(Task(77, slices));
    EXPECT_THROW(LaunchSlices(slot, pool, kernel, completions),
                 std::invalid_argument);
    book.Release(slot);
  }
  EXPECT_EQ(pool.pending(), 0u);
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_executed(), 0u);
  EXPECT_TRUE(NoMessage(completions));
}

// ---- Ticket book ------------------------------------------------------------

TEST(TicketBookTest, FindsBookedTicketsAndReusesReleasedSlots) {
  TicketBook book;
  std::vector<TicketBook::Slot*> slots;
  for (std::uint64_t t = 0; t < 10; ++t) {
    slots.push_back(&book.Acquire(Task(t)));
  }
  EXPECT_EQ(book.slots(), 10u);
  for (std::uint64_t t = 0; t < 10; ++t) EXPECT_EQ(book.Find(t), slots[t]);
  for (std::uint64_t t = 1; t < 10; t += 2) book.Release(*slots[t]);
  EXPECT_EQ(book.outstanding(), 5u);
  for (std::uint64_t t = 1; t < 10; t += 2) EXPECT_EQ(book.Find(t), nullptr);
  // Five new tickets take the five freed slots: the book does not grow.
  for (std::uint64_t t = 10; t < 15; ++t) {
    TicketBook::Slot& slot = book.Acquire(Task(t));
    EXPECT_EQ(slot.assignment.ticket, t);
    EXPECT_FALSE(slot.reported);
    EXPECT_EQ(book.Find(t), &slot);
  }
  EXPECT_EQ(book.slots(), 10u);
  EXPECT_EQ(book.peak_outstanding(), 10u);
  book.Clear();
  EXPECT_EQ(book.outstanding(), 0u);
  EXPECT_EQ(book.Find(12), nullptr);
}

TEST(TicketBookTest, AgreesWithAMapUnderRandomTraffic) {
  // Tickets count up as the engine issues them; each step books the next
  // or releases a random outstanding one, so probe runs are cut and
  // shifted in every pattern. A hash map is the reference.
  TicketBook book;
  std::unordered_map<std::uint64_t, TicketBook::Slot*> reference;
  std::vector<std::uint64_t> live;
  std::mt19937_64 rng(0x7B00C);
  std::uint64_t next = 0;
  std::size_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    // Drifts between ~0 and ~200 outstanding over the run.
    const bool book_next =
        live.empty() || rng() % 400 < (step / 2000 % 2 == 0 ? 230u : 170u);
    if (book_next) {
      reference[next] = &book.Acquire(Task(next));
      live.push_back(next++);
    } else {
      const std::size_t k = rng() % live.size();
      const std::uint64_t ticket = live[k];
      live[k] = live.back();
      live.pop_back();
      book.Release(*book.Find(ticket));
      reference.erase(ticket);
    }
    peak = std::max(peak, live.size());
    if (step % 97 == 0) {
      for (const auto& [ticket, slot] : reference) {
        ASSERT_EQ(book.Find(ticket), slot) << "ticket " << ticket;
      }
      for (std::uint64_t gone = next > 300 ? next - 300 : 0; gone < next;
           ++gone) {
        if (!reference.contains(gone)) {
          ASSERT_EQ(book.Find(gone), nullptr);
        }
      }
    }
  }
  EXPECT_EQ(book.outstanding(), live.size());
  EXPECT_EQ(book.peak_outstanding(), peak);
  EXPECT_EQ(book.slots(), peak) << "a slot per ticket outstanding, no more";
  EXPECT_GT(next, 10 * peak) << "not vacuous: slots were reused many times";
}

TEST(TicketBookTest, RejectsDoubleBookingAndReleasingAFreedSlot) {
  TicketBook book;
  TicketBook::Slot& slot = book.Acquire(Task(5));
  EXPECT_THROW((void)book.Acquire(Task(5)), std::logic_error);
  book.Release(slot);
  EXPECT_THROW(book.Release(slot), std::logic_error);
}

TEST(LaunchSlicesTest, SlotsAreReusedWhileOtherTasksSlicesRun) {
  // Four executors; every task burns real time, so slices of several
  // tickets overlap. Each slot a drained completion frees is booked again
  // at once for the next ticket while other tickets' slices still run.
  constexpr std::uint64_t kTickets = 300;
  constexpr std::uint64_t kWindow = 6;
  const SpinKernel kernel;
  CompletionQueue completions(1024);
  std::vector<TaskCompletion> drained(completions.capacity());
  TicketBook book;
  ThreadPool pool(4);
  std::uint64_t next = 0;
  const auto launch = [&] {
    const std::uint64_t ticket = next++;
    TicketBook::Slot& slot =
        book.Acquire(Task(ticket, 1 + static_cast<int>(ticket % 4)));
    slot.burn_seconds = 0.0002;
    LaunchSlices(slot, pool, kernel, completions);
  };
  while (next < kWindow) launch();
  std::vector<int> reports(kTickets, 0);
  for (std::uint64_t done = 0; done < kTickets;) {
    const std::size_t n = completions.Drain(drained);
    for (std::size_t i = 0; i < n; ++i) {
      TicketBook::Slot* slot = book.Find(drained[i].ticket);
      ASSERT_NE(slot, nullptr) << "ticket " << drained[i].ticket;
      ASSERT_EQ(slot->assignment.ticket, drained[i].ticket);
      ++reports[drained[i].ticket];
      book.Release(*slot);
      ++done;
      if (next < kTickets) launch();
    }
  }
  pool.WaitIdle();
  for (std::uint64_t t = 0; t < kTickets; ++t) {
    EXPECT_EQ(reports[t], 1) << "ticket " << t;
  }
  EXPECT_EQ(book.outstanding(), 0u);
  EXPECT_EQ(book.peak_outstanding(), kWindow);
  EXPECT_EQ(book.slots(), kWindow);
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
