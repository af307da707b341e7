#pragma once

// Incremental candidate index for scheduler dispatch decisions.
//
// The legacy dispatch path rescanned every worker per decision: an
// O(workers) sweep for the best reconfigure candidate, another for idle
// private compaction, and a third for the earliest busy completion that
// prices the predictive hire-or-wait inequality. At 10k workers and 1M
// jobs those sweeps dominate the run. WorkerIndex maintains the same
// candidate orders incrementally — updated on worker state transitions
// (idle <-> busy, hire, release) — so each decision is a bounded probe.
//
// Layout: idle workers are grouped by class, one class per (threads,
// cores) configuration, and each class keeps its idle keys in one sorted
// run (a flat vector). Classes are few (the distinct configurations a run
// ever used) and are never dropped, so a warm index allocates nothing: an
// idle <-> busy transition is a binary search and a memmove within a run
// that keeps its capacity. Idle private-tier workers also sit in one
// sorted run per core count, the compaction order.
//
// Selection-equivalence contract (pinned by the candidate oracle test
// behind SCAN_TESTKIT_VERIFY_CANDIDATES, by the index differential test
// against the ordered-set reference, and relied on by the golden digests):
// each query returns exactly the worker the legacy scan chose.
//
//   - BestExactIdle(t): the legacy scan walked the idle bucket for thread
//     config t in ascending key order keeping the strictly-smallest core
//     count => the winner is min (cores, key) among allowed workers. The
//     classes are ordered (threads, cores), so walking the t classes in
//     order, each run by key, visits (threads, cores, key) ascending and
//     the first allowed key is that minimum.
//   - BestReconfigurable(t): the legacy scan walked buckets in ascending
//     config order, keys ascending, keeping the strictly-smallest core
//     count >= t => the winner is min (cores, config, key). The walk
//     visits the classes in (cores, threads) order from cores = t, each
//     run by key, and the first allowed key is that minimum.
//   - VisitIdlePrivate: the compaction path sorted idle private workers by
//     (cores, key) ascending and released a minimal prefix; the private
//     runs, visited by core count and then key, give exactly that order.
//   - MinBusyUntil: the legacy scan took the minimum busy_until over busy
//     workers; the busy_ min-heap with lazy invalidation (assignment
//     sequence numbers are globally unique, so a stale entry can never
//     become valid again) yields the same minimum.
//
// The index never owns worker state; the scheduler's book remains the
// source of truth and AuditIdle() recomputes the index from it for the
// oracle check.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "scan/common/str.hpp"

namespace scan::core {

class WorkerIndex {
 public:
  /// One idle worker as the index should see it; used both for updates
  /// and for the from-scratch oracle comparison.
  struct IdleEntry {
    std::uint64_t key = 0;
    int threads = 0;
    int cores = 0;
    bool is_private = false;
  };

  /// Adds an idle worker (no-op for a key already idle in its class).
  void InsertIdle(const IdleEntry& e) {
    if (InsertKey(ClassOf(e.threads, e.cores).keys, e.key)) ++idle_count_;
    if (e.is_private) InsertKey(PrivateOf(e.cores).keys, e.key);
  }

  /// Removes an idle worker (no-op for a key not idle in its class).
  void RemoveIdle(const IdleEntry& e) {
    if (EraseKey(ClassOf(e.threads, e.cores).keys, e.key)) --idle_count_;
    if (e.is_private) EraseKey(PrivateOf(e.cores).keys, e.key);
  }

  [[nodiscard]] std::size_t idle_count() const { return idle_count_; }

  /// First health-allowed idle worker already configured with `threads`,
  /// preferring the fewest cores then the lowest key; 0 if none.
  template <class Allows>
  [[nodiscard]] std::uint64_t BestExactIdle(int threads, Allows&& allows) const {
    for (auto it = std::lower_bound(
             classes_.begin(), classes_.end(), threads,
             [](const Run& run, int t) { return run.threads < t; });
         it != classes_.end() && it->threads == threads; ++it) {
      for (const std::uint64_t key : it->keys) {
        if (allows(key)) return key;
      }
    }
    return 0;
  }

  /// First health-allowed idle worker with cores >= `min_cores`, in
  /// (cores, config, key) order; 0 if none.
  template <class Allows>
  [[nodiscard]] std::uint64_t BestReconfigurable(int min_cores,
                                                 Allows&& allows) const {
    for (auto it = std::lower_bound(reconfig_order_.begin(),
                                    reconfig_order_.end(), min_cores,
                                    [this](std::uint32_t c, int cores) {
                                      return classes_[c].cores < cores;
                                    });
         it != reconfig_order_.end(); ++it) {
      for (const std::uint64_t key : classes_[*it].keys) {
        if (allows(key)) return key;
      }
    }
    return 0;
  }

  /// Visits idle private-tier workers as `visit(cores, key)` in (cores,
  /// key) ascending order — the compaction release order — until `visit`
  /// returns false. `visit` must not change the index.
  template <class Visit>
  void VisitIdlePrivate(Visit&& visit) const {
    for (const Run& run : private_) {
      for (const std::uint64_t key : run.keys) {
        if (!visit(run.cores, key)) return;
      }
    }
  }

  /// Registers a new assignment's planned completion. `assignment_seq`
  /// must be globally unique (never reused) — invalidation relies on it.
  void PushBusy(double busy_until, std::uint64_t key,
                std::uint64_t assignment_seq) {
    busy_.push(BusyEntry{busy_until, key, assignment_seq});
  }

  /// Minimum busy_until over entries `valid(key, assignment_seq)` accepts.
  /// Stale tops (completed/lost assignments) are discarded on the way —
  /// each pushed entry is popped at most once over the run.
  template <class Valid>
  [[nodiscard]] std::optional<double> MinBusyUntil(Valid&& valid) const {
    while (!busy_.empty()) {
      const BusyEntry& top = busy_.top();
      if (valid(top.key, top.assignment_seq)) return top.busy_until;
      busy_.pop();
    }
    return std::nullopt;
  }

  /// Oracle check: compares the walks each query takes with `expected`
  /// (the caller's from-scratch O(workers) scan) and reports every key
  /// missing from or stale in a walk, and every walk out of its order;
  /// empty means identical.
  [[nodiscard]] std::vector<std::string> AuditIdle(
      const std::vector<IdleEntry>& expected) const {
    using Triple = std::tuple<int, int, std::uint64_t>;
    using Pair = std::pair<int, std::uint64_t>;
    std::set<Triple> want_exact;
    std::set<Triple> want_reconfig;
    std::set<Pair> want_private;
    for (const IdleEntry& e : expected) {
      want_exact.emplace(e.threads, e.cores, e.key);
      want_reconfig.emplace(e.cores, e.threads, e.key);
      if (e.is_private) want_private.emplace(e.cores, e.key);
    }
    std::vector<Triple> exact_walk;
    for (const Run& run : classes_) {
      for (const std::uint64_t key : run.keys) {
        exact_walk.emplace_back(run.threads, run.cores, key);
      }
    }
    std::vector<Triple> reconfig_walk;
    for (const std::uint32_t c : reconfig_order_) {
      for (const std::uint64_t key : classes_[c].keys) {
        reconfig_walk.emplace_back(classes_[c].cores, classes_[c].threads, key);
      }
    }
    std::vector<Pair> private_walk;
    VisitIdlePrivate([&private_walk](int cores, std::uint64_t key) {
      private_walk.emplace_back(cores, key);
      return true;
    });

    std::vector<std::string> issues;
    auto check = [&issues](const auto& want, const auto& walk,
                           const char* name) {
      if (std::adjacent_find(walk.begin(), walk.end(),
                             std::greater_equal<>()) != walk.end()) {
        issues.push_back(StrFormat("%s: walk out of order", name));
      }
      const std::set have(walk.begin(), walk.end());
      auto report = [&issues, name](const auto& entries, const auto& other,
                                    const char* what) {
        for (const auto& entry : entries) {
          if (other.contains(entry)) continue;
          issues.push_back(StrFormat(
              "%s: %s key %llu", name, what,
              static_cast<unsigned long long>(std::get<
                  std::tuple_size_v<std::decay_t<decltype(entry)>> - 1>(
                  entry))));
        }
      };
      report(want, have, "missing");
      report(have, want, "stale");
    };
    check(want_exact, exact_walk, "exact");
    check(want_reconfig, reconfig_walk, "reconfig");
    check(want_private, private_walk, "private");
    if (idle_count_ != exact_walk.size()) {
      issues.push_back(StrFormat("idle count %zu != %zu idle keys",
                                 idle_count_, exact_walk.size()));
    }
    return issues;
  }

 private:
  /// One class's idle keys, ascending. A private run has threads 0.
  struct Run {
    int threads = 0;
    int cores = 0;
    std::vector<std::uint64_t> keys;
  };

  struct BusyEntry {
    double busy_until = 0.0;
    std::uint64_t key = 0;
    std::uint64_t assignment_seq = 0;
  };
  struct BusyOrder {
    bool operator()(const BusyEntry& a, const BusyEntry& b) const {
      if (a.busy_until != b.busy_until) return a.busy_until > b.busy_until;
      return a.assignment_seq > b.assignment_seq;  // deterministic tie-break
    }
  };

  static bool InsertKey(std::vector<std::uint64_t>& keys, std::uint64_t key) {
    const auto pos = std::lower_bound(keys.begin(), keys.end(), key);
    if (pos != keys.end() && *pos == key) return false;
    keys.insert(pos, key);
    return true;
  }

  static bool EraseKey(std::vector<std::uint64_t>& keys, std::uint64_t key) {
    const auto pos = std::lower_bound(keys.begin(), keys.end(), key);
    if (pos == keys.end() || *pos != key) return false;
    keys.erase(pos);
    return true;
  }

  /// The (threads, cores) class, added (and the reconfiguration order
  /// rebuilt) the first time the configuration is seen.
  Run& ClassOf(int threads, int cores) {
    const auto pos = std::lower_bound(
        classes_.begin(), classes_.end(), std::pair{threads, cores},
        [](const Run& run, const std::pair<int, int>& config) {
          return std::pair{run.threads, run.cores} < config;
        });
    if (pos != classes_.end() && pos->threads == threads &&
        pos->cores == cores) {
      return *pos;
    }
    const auto added = classes_.insert(pos, Run{threads, cores, {}});
    reconfig_order_.resize(classes_.size());
    std::iota(reconfig_order_.begin(), reconfig_order_.end(), 0u);
    std::sort(reconfig_order_.begin(), reconfig_order_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return std::pair{classes_[a].cores, classes_[a].threads} <
                       std::pair{classes_[b].cores, classes_[b].threads};
              });
    return *added;
  }

  /// The private run of `cores`, added the first time it is seen.
  Run& PrivateOf(int cores) {
    const auto pos = std::lower_bound(
        private_.begin(), private_.end(), cores,
        [](const Run& run, int c) { return run.cores < c; });
    if (pos != private_.end() && pos->cores == cores) return *pos;
    return *private_.insert(pos, Run{0, cores, {}});
  }

  // Idle classes in (threads, cores) order: the exact-config dispatch walk.
  std::vector<Run> classes_;
  // Indices into classes_ in (cores, threads) order: the reconfigure walk.
  std::vector<std::uint32_t> reconfig_order_;
  // Idle private-tier keys by core count: the compaction walk.
  std::vector<Run> private_;
  std::size_t idle_count_ = 0;
  // Planned completions, min-first, invalidated lazily. Mutable because
  // discarding stale tops from a const query (NextWorkerFreeTime is
  // const) changes storage but never the observable minimum.
  mutable std::priority_queue<BusyEntry, std::vector<BusyEntry>, BusyOrder>
      busy_;
};

}  // namespace scan::core
