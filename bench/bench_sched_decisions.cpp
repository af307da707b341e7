// Scheduler decision trajectory: the incremental WorkerIndex vs. the
// legacy O(workers) rescan structures (sorted per-thread idle buckets,
// full-table scans for reconfiguration candidates and next-free-time),
// replayed on a synthetic 10k-worker table through the identical seeded
// decision script. Both legs must select the same workers (checksum), so
// the decisions/sec ratio is measured on provably identical choices.
//
// Script per iteration: dispatch (exact-idle pick, falling back to the
// reconfiguration scan) or complete the earliest-finishing busy worker,
// biased to keep the table about half busy; every 8th iteration also asks
// for the next worker-free time (the bandit wake hint).
//
// Each leg runs --reps times (after one untimed warm-up) and reports its
// best repetition, the standard guard against scheduler/thermal noise.
//
// Usage: bench_sched_decisions [--workers=W] [--ops=N] [--reps=R]
//                              [--csv=PATH] [--json=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "scan/common/csv.hpp"
#include "scan/common/rng.hpp"
#include "scan/common/str.hpp"
#include "scan/core/worker_index.hpp"

namespace scan::bench {
namespace {

struct Book {
  int threads = 0;
  int cores = 0;
  bool busy = false;
  double busy_until = 0.0;
  std::uint64_t assignment_seq = 0;
};

constexpr int kThreadChoices[] = {1, 2, 4, 6, 8, 12};
constexpr int kCoreChoices[] = {4, 8, 16, 32};

struct LegResult {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t checksum = 0;
};

/// Completion calendar shared in shape by both legs (the real engines get
/// completion times from the event calendar, not the index).
using DoneQueue =
    std::priority_queue<std::pair<double, std::uint64_t>,
                        std::vector<std::pair<double, std::uint64_t>>,
                        std::greater<>>;

std::unordered_map<std::uint64_t, Book> MakeTable(std::uint64_t workers) {
  RandomStream rng(7, "sched-table");
  std::unordered_map<std::uint64_t, Book> table;
  table.reserve(workers);
  for (std::uint64_t key = 1; key <= workers; ++key) {
    Book book;
    book.threads = kThreadChoices[rng.UniformBelow(6)];
    book.cores = kCoreChoices[rng.UniformBelow(4)];
    if (book.cores < book.threads) book.cores = book.threads;
    table.emplace(key, book);
  }
  return table;
}

/// Legacy leg: the pre-index structures and scans, verbatim — a sorted
/// key vector per thread-count bucket, a full-bucket linear scan for the
/// exact-idle pick, a full-table scan for the reconfiguration candidate,
/// and an O(workers) pass for next-free-time.
LegResult RunLegacyLeg(std::uint64_t workers, std::uint64_t ops) {
  auto table = MakeTable(workers);
  std::map<int, std::vector<std::uint64_t>> idle;
  const auto insert_idle = [&](std::uint64_t key, int threads) {
    auto& keys = idle[threads];
    keys.insert(std::lower_bound(keys.begin(), keys.end(), key), key);
  };
  const auto remove_idle = [&](std::uint64_t key, int threads) {
    auto it = idle.find(threads);
    auto& keys = it->second;
    keys.erase(std::lower_bound(keys.begin(), keys.end(), key));
    if (keys.empty()) idle.erase(it);
  };
  for (auto& [key, book] : table) insert_idle(key, book.threads);

  RandomStream rng(13, "sched-script");
  DoneQueue done;
  std::uint64_t busy_count = 0;
  double now = 0.0;
  LegResult result;

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t op = 0; op < ops; ++op) {
    const bool dispatch =
        busy_count == 0 ||
        (busy_count < workers && rng.Uniform() < 0.55);
    if (dispatch) {
      const int threads = kThreadChoices[rng.UniformBelow(6)];
      std::uint64_t chosen = 0;
      // Step 1: exact bucket, min (cores, key) via linear scan.
      if (const auto bucket = idle.find(threads); bucket != idle.end()) {
        int best_cores = 1 << 30;
        for (const std::uint64_t key : bucket->second) {
          const int cores = table.at(key).cores;
          if (cores < best_cores) {
            best_cores = cores;
            chosen = key;
          }
        }
      }
      if (chosen == 0) {
        // Step 3: full scan for the narrowest reconfigurable worker.
        int best_cores = 1 << 30;
        for (const auto& [cfg, keys] : idle) {
          for (const std::uint64_t key : keys) {
            const Book& candidate = table.at(key);
            if (candidate.cores >= threads && candidate.cores < best_cores) {
              best_cores = candidate.cores;
              chosen = key;
            }
          }
        }
      }
      if (chosen != 0) {
        Book& book = table.at(chosen);
        remove_idle(chosen, book.threads);
        book.threads = threads;
        book.busy = true;
        book.busy_until = now + rng.Exponential(5.0);
        ++book.assignment_seq;
        ++busy_count;
        done.emplace(book.busy_until, chosen);
        result.checksum ^= MixSeed(chosen, op);
      }
    } else {
      const auto [when, key] = done.top();
      done.pop();
      now = when;
      Book& book = table.at(key);
      book.busy = false;
      insert_idle(key, book.threads);
      --busy_count;
      result.checksum ^= MixSeed(key, op) << 1;
    }
    if (op % 8 == 0) {
      // Next-free-time: O(workers) scan over the table.
      double earliest = -1.0;
      for (const auto& [key, book] : table) {
        if (!book.busy) continue;
        if (earliest < 0.0 || book.busy_until < earliest) {
          earliest = book.busy_until;
        }
      }
      result.checksum ^= static_cast<std::uint64_t>(
          static_cast<std::int64_t>(earliest * 1024.0));
    }
    ++result.ops;
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

/// Incremental leg: the same script over core::WorkerIndex.
LegResult RunIndexedLeg(std::uint64_t workers, std::uint64_t ops) {
  auto table = MakeTable(workers);
  core::WorkerIndex index;
  const auto entry_for = [&](std::uint64_t key) {
    const Book& book = table.at(key);
    return core::WorkerIndex::IdleEntry{key, book.threads, book.cores, false};
  };
  for (const auto& [key, book] : table) index.InsertIdle(entry_for(key));

  RandomStream rng(13, "sched-script");
  DoneQueue done;
  std::uint64_t busy_count = 0;
  double now = 0.0;
  LegResult result;
  const auto allows = [](std::uint64_t) { return true; };

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t op = 0; op < ops; ++op) {
    const bool dispatch =
        busy_count == 0 ||
        (busy_count < workers && rng.Uniform() < 0.55);
    if (dispatch) {
      const int threads = kThreadChoices[rng.UniformBelow(6)];
      std::uint64_t chosen = index.BestExactIdle(threads, allows);
      if (chosen == 0) chosen = index.BestReconfigurable(threads, allows);
      if (chosen != 0) {
        index.RemoveIdle(entry_for(chosen));
        Book& book = table.at(chosen);
        book.threads = threads;
        book.busy = true;
        book.busy_until = now + rng.Exponential(5.0);
        ++book.assignment_seq;
        index.PushBusy(book.busy_until, chosen, book.assignment_seq);
        ++busy_count;
        done.emplace(book.busy_until, chosen);
        result.checksum ^= MixSeed(chosen, op);
      }
    } else {
      const auto [when, key] = done.top();
      done.pop();
      now = when;
      Book& book = table.at(key);
      book.busy = false;
      index.InsertIdle(entry_for(key));
      --busy_count;
      result.checksum ^= MixSeed(key, op) << 1;
    }
    if (op % 8 == 0) {
      const auto earliest = index.MinBusyUntil([&](std::uint64_t key,
                                                   std::uint64_t seq) {
        const Book& book = table.at(key);
        return book.busy && book.assignment_seq == seq;
      });
      result.checksum ^= static_cast<std::uint64_t>(
          static_cast<std::int64_t>(earliest.value_or(-1.0) * 1024.0));
    }
    ++result.ops;
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace
}  // namespace scan::bench

static int Main(int argc, char** argv) {
  using namespace scan;
  using namespace scan::bench;

  const Flags flags(argc, argv);
  const auto obs = MakeObsSession(flags);
  const auto ops = static_cast<std::uint64_t>(flags.GetDouble("ops", 400'000));
  const auto workers =
      static_cast<std::uint64_t>(flags.GetDouble("workers", 10'000));
  const int reps = flags.GetInt("reps", 3);
  const TableOutput output(flags);
  flags.RejectUnread();

  const std::vector<std::uint64_t> scales = {1'000, workers};
  CsvTable table({"scenario", "workers", "ops", "legacy_dps", "indexed_dps",
                  "speedup", "checksum_match"});
  for (const std::uint64_t scale : scales) {
    (void)RunLegacyLeg(scale, ops / 10);  // warm-up
    (void)RunIndexedLeg(scale, ops / 10);
    LegResult legacy = RunLegacyLeg(scale, ops);
    LegResult indexed = RunIndexedLeg(scale, ops);
    for (int rep = 1; rep < reps; ++rep) {
      const LegResult l = RunLegacyLeg(scale, ops);
      if (l.seconds < legacy.seconds) legacy = l;
      const LegResult i = RunIndexedLeg(scale, ops);
      if (i.seconds < indexed.seconds) indexed = i;
    }
    const double legacy_dps = static_cast<double>(legacy.ops) / legacy.seconds;
    const double indexed_dps =
        static_cast<double>(indexed.ops) / indexed.seconds;
    const bool match = legacy.checksum == indexed.checksum;
    table.AddRow(
        {StrFormat("sched_%lluworkers", (unsigned long long)scale),
         StrFormat("%llu", (unsigned long long)scale),
         StrFormat("%llu", (unsigned long long)ops),
         StrFormat("%.0f", legacy_dps), StrFormat("%.0f", indexed_dps),
         StrFormat("%.2f", indexed_dps / legacy_dps),
         match ? "yes" : "DIVERGED"});
    if (!match) {
      std::fprintf(stderr, "FATAL: selection divergence at %llu workers\n",
                   (unsigned long long)scale);
      return 1;
    }
  }

  Emit(table, output);
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
