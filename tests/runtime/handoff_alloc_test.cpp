// The books on the event path allocate nothing once warm:
//  - the live runtime's coordinator <-> executor handoff: over N handoffs
//    (slot acquire -> LaunchSlices -> slices run -> completion drained ->
//    slot released) neither the coordinator nor any executor thread
//    touches the heap, for pools of 1 and 4 threads, whether the
//    coordinator blocks for its completions or helps run the slices;
//  - the engine's candidate index: idle <-> busy transitions (with
//    reconfigurations between classes already seen), picks, the private
//    walk and the busy heap;
//  - the slot table under the engine's job and worker books: acquire and
//    release, with each booking refilling its slot's vector in place;
//  - Engine::Admit's plan: a constant or forced plan refilled in place.
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
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "scan/common/slot_table.hpp"
#include "scan/concurrency/thread_pool.hpp"
#include "scan/core/policy.hpp"
#include "scan/core/worker_index.hpp"
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

/// Runs 50 warm-up rounds and then 500 counted rounds of the coordinator's
/// side of the runtime's handoff on a pool of `threads` threads, and
/// expects no allocation on any thread over the counted ones. One round
/// books and launches kWindow tickets, drains their messages as they come
/// (marking each slot reported), and releases each slot found by its
/// ticket. With `help` the coordinator binds itself as the ring's
/// consumer and, as the runtime's virtual-clock gate does, runs queued
/// slices between non-blocking drains, blocking only when none is queued.
void ExpectWarmHandoffsAllocateNothing(std::size_t threads, bool help) {
  const SpinKernel kernel;
  CompletionQueue completions(1024);
  if (help) completions.BindConsumer();
  std::vector<TaskCompletion> drained(completions.capacity());
  TicketBook book;
  ThreadPool pool(threads);
  core::Assignment task;  // ticket 0 first, counting up
  task.threads = kSlices;

  std::uint64_t helped = 0;
  const auto round = [&] {
    std::array<std::uint64_t, kWindow> tickets{};
    for (std::uint64_t& ticket : tickets) {
      ticket = task.ticket;
      LaunchSlices(book.Acquire(task), pool, kernel, completions);
      ++task.ticket;
    }
    for (std::size_t owed = kWindow; owed > 0;) {
      std::size_t n = help ? completions.TryDrain(drained) : 0;
      if (n == 0 && help && pool.TryRunOne()) {
        ++helped;
        continue;
      }
      if (n == 0) n = completions.Drain(drained);
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
  // finishes only once all of them run at once; waited for before any
  // round, so no helping coordinator runs one of them), and the book and
  // the buffers are at size.
  std::atomic<std::size_t> started{0};
  pool.Submit(pool.thread_count(), [&started, &pool](std::size_t) {
    return UniqueTask([&started, &pool] {
      started.fetch_add(1);
      while (started.load() < pool.thread_count()) std::this_thread::yield();
    });
  });
  pool.WaitIdle();
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
  if (help) {
    EXPECT_GT(helped, 0u) << "the coordinator never ran a slice";
  }
}

TEST_P(HandoffAllocationTest, WarmHandoffsAllocateNothing) {
  ExpectWarmHandoffsAllocateNothing(GetParam(), /*help=*/false);
}

TEST_P(HandoffAllocationTest, WarmHelpedHandoffsAllocateNothing) {
  ExpectWarmHandoffsAllocateNothing(GetParam(), /*help=*/true);
}

INSTANTIATE_TEST_SUITE_P(Pools, HandoffAllocationTest, testing::Values(1, 4),
                         [](const testing::TestParamInfo<std::size_t>& p) {
                           return "Threads" + std::to_string(p.param);
                         });

/// Allocations on every thread so far.
std::uint64_t TotalAllocations() {
  std::uint64_t total = 0;
  for (const auto& tally : g_tallies) {
    total += tally.load(std::memory_order_relaxed);
  }
  return total;
}

TEST(EngineBookAllocationTest, WarmIndexTransitionsAllocateNothing) {
  // 60 workers over the paper's instance sizes, half of them private. Each
  // round every worker goes busy (its planned end on the busy heap), the
  // queries run, and every worker comes back idle, many of them
  // reconfigured: a worker's thread count cycles with period 5 through
  // the sizes its cores allow, so the warm rounds see every class.
  constexpr int kSizes[] = {1, 2, 4, 8, 16};
  struct Worker {
    int threads = 0;
    int cores = 0;
    bool is_private = false;
    std::uint64_t seq = 0;
    bool busy = false;
  };
  std::vector<Worker> workers(61);
  for (std::uint64_t key = 1; key < workers.size(); ++key) {
    workers[key].cores = kSizes[key % 5];
    workers[key].threads = workers[key].cores;
    workers[key].is_private = key % 2 == 0;
  }
  const auto entry = [&workers](std::uint64_t key) {
    const Worker& w = workers[key];
    return core::WorkerIndex::IdleEntry{key, w.threads, w.cores,
                                        w.is_private};
  };
  core::WorkerIndex index;
  for (std::uint64_t key = 1; key < workers.size(); ++key) {
    index.InsertIdle(entry(key));
  }
  std::uint64_t next_seq = 1;
  std::uint64_t checksum = 0;
  const auto allows = [](std::uint64_t key) { return key % 7 != 0; };
  const auto round = [&](int r) {
    for (std::uint64_t key = 1; key < workers.size(); ++key) {
      Worker& w = workers[key];
      index.RemoveIdle(entry(key));
      w.busy = true;
      w.seq = next_seq++;
      index.PushBusy(100.0 * r + static_cast<double>(key), key, w.seq);
    }
    checksum += index.MinBusyUntil([&workers](std::uint64_t key,
                                              std::uint64_t seq) {
                      return workers[key].busy && workers[key].seq == seq;
                    }).value_or(-1.0) > 0.0;
    for (std::uint64_t key = 1; key < workers.size(); ++key) {
      Worker& w = workers[key];
      w.busy = false;
      const int threads = kSizes[(key + static_cast<std::uint64_t>(r)) % 5];
      if (threads <= w.cores) w.threads = threads;
      index.InsertIdle(entry(key));
    }
    for (const int threads : kSizes) {
      checksum += index.BestExactIdle(threads, allows);
      checksum += index.BestReconfigurable(threads, allows);
    }
    index.VisitIdlePrivate([&checksum](int cores, std::uint64_t key) {
      checksum += key * static_cast<std::uint64_t>(cores);
      return true;
    });
  };
  for (int r = 0; r < 20; ++r) round(r);
  const std::uint64_t before = TotalAllocations();
  for (int r = 20; r < 520; ++r) round(r);
  EXPECT_EQ(TotalAllocations() - before, 0u)
      << "allocations over 500 rounds of 60 idle <-> busy transitions";
  EXPECT_EQ(index.idle_count(), workers.size() - 1);
  EXPECT_GT(checksum, 0u);
}

TEST(EngineBookAllocationTest, WarmSlotTableAcquireReleaseAllocatesNothing) {
  // Keys count up as job ids do; at most kLive are booked at once, a drawn
  // one retires each step, and every booking refills its slot's vector
  // in place, as Engine::Admit refills a reused JobState.
  struct Job {
    std::vector<double> stage_exec;
    int retries = 0;
  };
  constexpr std::size_t kLive = 200;
  SlotTable<Job> table;
  std::vector<std::uint64_t> live;
  live.reserve(kLive);
  std::uint64_t next_key = 1;
  std::uint64_t draw = 0x5EED;
  const auto step = [&] {
    if (live.size() == kLive) {
      draw = draw * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t k = static_cast<std::size_t>(draw >> 33) % kLive;
      if (!table.Release(live[k])) std::abort();
      live[k] = live.back();
      live.pop_back();
    }
    Job* job = table.Acquire(next_key);
    if (job == nullptr) std::abort();
    job->stage_exec.assign(7, 1.0);
    job->retries = 0;
    live.push_back(next_key++);
  };
  for (int i = 0; i < 2000; ++i) step();
  const std::uint64_t before = TotalAllocations();
  for (int i = 0; i < 50000; ++i) step();
  EXPECT_EQ(TotalAllocations() - before, 0u)
      << "allocations over 50,000 acquire/release pairs";
  EXPECT_EQ(table.size(), kLive);
  EXPECT_EQ(table.slots(), kLive) << "a slot per key booked at once";
  for (const std::uint64_t key : live) {
    ASSERT_NE(table.Find(key), nullptr) << "key " << key;
  }
}

TEST(EngineBookAllocationTest, WarmAdmitPlansAllocateNothing) {
  // Engine::Admit asks the policy for each job's plan into one plan the
  // engine keeps: once that plan holds an entry per stage, a constant
  // (long-term, best-constant, adaptive) or forced plan is copied into it
  // without touching the heap. The greedy plan is built per job and may
  // allocate.
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
  core::SimulationConfig config;
  const auto expect_warm_fills_allocate_nothing =
      [&](const core::SchedulingPolicy& policy, const char* what) {
        core::ThreadPlan plan;
        policy.PlanFor(DataSize{1.0}, plan);
        const std::uint64_t before = TotalAllocations();
        std::uint64_t checksum = 0;
        for (int i = 0; i < 10000; ++i) {
          policy.PlanFor(DataSize{0.5 + 0.001 * i}, plan);
          checksum += static_cast<std::uint64_t>(plan.back());
        }
        EXPECT_EQ(TotalAllocations() - before, 0u)
            << what << ": allocations over 10,000 plan fills";
        EXPECT_EQ(plan, policy.PlanFor(DataSize{1.0})) << what;
        EXPECT_GT(checksum, 0u);
      };
  for (const core::AllocationAlgorithm allocation :
       {core::AllocationAlgorithm::kLongTerm,
        core::AllocationAlgorithm::kBestConstant,
        core::AllocationAlgorithm::kLongTermAdaptive}) {
    config.allocation = allocation;
    const core::SchedulingPolicy policy(config, model, std::nullopt, 1);
    expect_warm_fills_allocate_nothing(
        policy, core::AllocationAlgorithmName(allocation));
  }
  config.allocation = core::AllocationAlgorithm::kGreedy;
  const core::SchedulingPolicy forced(
      config, model, core::ThreadPlan(model.stage_count(), 4), 1);
  expect_warm_fills_allocate_nothing(forced, "forced plan");
}

}  // namespace
}  // namespace scan::runtime
