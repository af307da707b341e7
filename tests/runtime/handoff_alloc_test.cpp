// The live runtime's coordinator <-> executor handoff allocates nothing
// once warm: over N handoffs (slot acquire -> LaunchSlices -> slices run ->
// completion drained -> slot released) neither the coordinator nor any
// executor thread touches the heap, for pools of 1 and 4 threads.
//
// This file replaces the global operator new / delete of its binary with
// malloc/free wrappers that tally allocations per thread: each thread
// claims a tally on its first allocation and bumps it with one relaxed
// increment per allocation after that. Every variant is replaced, so the
// binary never mixes the wrappers with the library's own allocator. The
// file is a binary of its own (handoff_alloc_test): ASan sees only
// malloc/free under the wrappers and cannot report a new/delete mismatch,
// so no other suite is linked in with them.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "scan/concurrency/thread_pool.hpp"
#include "scan/runtime/clock.hpp"
#include "scan/runtime/completion_queue.hpp"
#include "scan/runtime/ticket_book.hpp"

namespace {

/// Threads this binary may start over its life (every pool of every test);
/// later threads share the last tally.
constexpr std::size_t kMaxTallies = 4096;

std::array<std::atomic<std::uint64_t>, kMaxTallies> g_tallies{};
std::atomic<std::size_t> g_threads_counted{0};
thread_local std::size_t t_tally = kMaxTallies;  // claimed on first use

void CountAllocation() {
  if (t_tally == kMaxTallies) {
    t_tally = std::min(g_threads_counted.fetch_add(1), kMaxTallies - 1);
  }
  g_tallies[t_tally].fetch_add(1, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  CountAllocation();
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  CountAllocation();
  void* block = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  return posix_memalign(&block, alignment, size == 0 ? 1 : size) == 0
             ? block
             : nullptr;
}

void* AllocateOrThrow(void* block) {
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

}  // namespace

void* operator new(std::size_t size) { return AllocateOrThrow(Allocate(size)); }
void* operator new[](std::size_t size) {
  return AllocateOrThrow(Allocate(size));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(AllocateAligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(AllocateAligned(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(size, align);
}
// GCC cannot see that these replace the operator new above, which
// allocates with malloc, and would flag each free as mismatched.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete(void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(block);
}
#pragma GCC diagnostic pop

namespace scan::runtime {
namespace {

/// Copies every thread's tally into `out` (sized kMaxTallies beforehand,
/// so taking a snapshot allocates nothing).
void Snapshot(std::vector<std::uint64_t>& out) {
  for (std::size_t t = 0; t < kMaxTallies; ++t) {
    out[t] = g_tallies[t].load(std::memory_order_relaxed);
  }
}

constexpr std::size_t kWindow = 4;  ///< tickets in flight per round
constexpr int kSlices = 4;          ///< slices per task

class HandoffAllocationTest : public testing::TestWithParam<std::size_t> {};

TEST_P(HandoffAllocationTest, WarmHandoffsAllocateNothing) {
  const SpinKernel kernel;
  CompletionQueue completions(1024);
  std::vector<TaskCompletion> drained(completions.capacity());
  TicketBook book;
  ThreadPool pool(GetParam());
  core::Assignment task;  // ticket 0 first, counting up
  task.threads = kSlices;

  // One round books and launches kWindow tickets, drains their messages
  // as they come (marking each slot reported), and releases each slot
  // found by its ticket: the coordinator's side of the runtime's handoff.
  const auto round = [&] {
    std::array<std::uint64_t, kWindow> tickets{};
    for (std::uint64_t& ticket : tickets) {
      ticket = task.ticket;
      LaunchSlices(book.Acquire(task), pool, kernel, completions);
      ++task.ticket;
    }
    for (std::size_t owed = kWindow; owed > 0;) {
      const std::size_t n = completions.Drain(drained);
      for (std::size_t i = 0; i < n; ++i) {
        book.Find(drained[i].ticket)->reported = true;
      }
      owed -= n;
    }
    for (const std::uint64_t ticket : tickets) {
      TicketBook::Slot* slot = book.Find(ticket);
      if (slot == nullptr || !slot->reported) std::abort();
      book.Release(*slot);
    }
  };

  // Warm: every executor has started (a batch of one task per thread that
  // finishes only once all of them run at once), and the book and the
  // buffers are at size.
  std::atomic<std::size_t> started{0};
  pool.Submit(pool.thread_count(), [&started, &pool](std::size_t) {
    return UniqueTask([&started, &pool] {
      started.fetch_add(1);
      while (started.load() < pool.thread_count()) std::this_thread::yield();
    });
  });
  for (int r = 0; r < 50; ++r) round();
  pool.WaitIdle();
  std::vector<std::uint64_t> before(kMaxTallies);
  std::vector<std::uint64_t> after(kMaxTallies);
  Snapshot(before);
  const std::size_t coordinator = t_tally;

  constexpr int kRounds = 500;
  for (int r = 0; r < kRounds; ++r) round();
  pool.WaitIdle();

  Snapshot(after);
  EXPECT_EQ(after[coordinator] - before[coordinator], 0u)
      << "coordinator allocations over " << kRounds * kWindow << " handoffs";
  for (std::size_t t = 0; t < kMaxTallies; ++t) {
    if (t == coordinator) continue;
    EXPECT_EQ(after[t] - before[t], 0u)
        << "allocations on another thread (tally " << t << ") over "
        << kRounds * kWindow << " handoffs";
  }
  EXPECT_EQ(pool.tasks_executed(),
            pool.thread_count() +
                static_cast<std::uint64_t>(50 + kRounds) * kWindow * kSlices);
  EXPECT_EQ(book.outstanding(), 0u);
  EXPECT_EQ(book.slots(), kWindow);
}

INSTANTIATE_TEST_SUITE_P(Pools, HandoffAllocationTest, testing::Values(1, 4),
                         [](const testing::TestParamInfo<std::size_t>& p) {
                           return "Threads" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace scan::runtime
