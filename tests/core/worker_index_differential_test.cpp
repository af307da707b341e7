// Differential test of the flat candidate index (core/worker_index.hpp).
//
// The ordered-set index it replaced is kept here as the reference: three
// std::sets ordered (threads, cores, key), (cores, threads, key) and, for
// the private tier, (cores, key). Seeded random scripts of idle <-> busy
// transitions, reconfigurations, picks and private-order visits drive both
// over the worker classes of bench_sched_decisions and of the paper's
// instance sizes, with a circuit breaker that blocks a drawn subset of
// workers. Every pick, every private order and every idle count must be
// identical.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/core/worker_index.hpp"

namespace scan::core {
namespace {

using Entry = WorkerIndex::IdleEntry;

/// The index before the flat runs: one ordered set per walk.
class SetIndex {
 public:
  void InsertIdle(const Entry& e) {
    exact_.emplace(e.threads, e.cores, e.key);
    reconfig_.emplace(e.cores, e.threads, e.key);
    if (e.is_private) idle_private_.emplace(e.cores, e.key);
  }

  void RemoveIdle(const Entry& e) {
    exact_.erase({e.threads, e.cores, e.key});
    reconfig_.erase({e.cores, e.threads, e.key});
    if (e.is_private) idle_private_.erase({e.cores, e.key});
  }

  [[nodiscard]] std::size_t idle_count() const { return exact_.size(); }

  template <class Allows>
  [[nodiscard]] std::uint64_t BestExactIdle(int threads, Allows&& allows) const {
    for (auto it = exact_.lower_bound({threads, 0, 0}); it != exact_.end();
         ++it) {
      if (std::get<0>(*it) != threads) break;
      if (allows(std::get<2>(*it))) return std::get<2>(*it);
    }
    return 0;
  }

  template <class Allows>
  [[nodiscard]] std::uint64_t BestReconfigurable(int min_cores,
                                                 Allows&& allows) const {
    for (auto it = reconfig_.lower_bound({min_cores, 0, 0});
         it != reconfig_.end(); ++it) {
      if (allows(std::get<2>(*it))) return std::get<2>(*it);
    }
    return 0;
  }

  [[nodiscard]] const std::set<std::pair<int, std::uint64_t>>& idle_private()
      const {
    return idle_private_;
  }

 private:
  std::set<std::tuple<int, int, std::uint64_t>> exact_;
  std::set<std::tuple<int, int, std::uint64_t>> reconfig_;
  std::set<std::pair<int, std::uint64_t>> idle_private_;
};

/// Thread counts and instance sizes a script draws its workers from.
struct Shape {
  const char* name;
  std::vector<int> threads;
  std::vector<int> cores;
};

const Shape kShapes[] = {
    // bench_sched_decisions: a worker narrower than its threads is widened
    // to them, so 6- and 12-core classes appear too.
    {"sched_decisions", {1, 2, 4, 6, 8, 12}, {4, 8, 16, 32}},
    // The paper's instance sizes (Table III), threads <= cores.
    {"paper_sizes", {1, 2, 4, 8, 16}, {1, 2, 4, 8, 16}},
};

struct Worker {
  int threads = 0;
  int cores = 0;
  bool is_private = false;
  bool idle = false;
};

class Script {
 public:
  Script(const Shape& shape, std::uint64_t seed, std::size_t workers)
      : shape_(shape),
        rng_(seed, "worker-index-differential"),
        book_(workers + 1),  // key 0 is "none"
        blocked_(workers + 1, false) {
    for (std::uint64_t key = 1; key <= workers; ++key) {
      Worker& w = book_[key];
      w.threads = Draw(shape_.threads);
      w.cores = Draw(shape_.cores);
      if (w.cores < w.threads) w.cores = w.threads;
      w.is_private = rng_.Uniform() < 0.5;
      if (rng_.Uniform() < 0.5) MakeIdle(key);
    }
  }

  /// One drawn operation; returns a description of the first divergence
  /// ("" if both indexes agree).
  std::string Step() {
    const std::uint32_t op = rng_.UniformBelow(100);
    const auto allows = [this](std::uint64_t key) { return !blocked_[key]; };
    if (op < 28) {
      // A busy worker finishes (sometimes after a reconfiguration that
      // kept its instance size) and goes idle.
      const std::uint64_t key = DrawKey(/*idle=*/false);
      if (key == 0) return "";
      if (rng_.Uniform() < 0.3) {
        const int threads = Draw(shape_.threads);
        if (threads <= book_[key].cores) book_[key].threads = threads;
      }
      MakeIdle(key);
    } else if (op < 50) {
      const std::uint64_t key = DrawKey(/*idle=*/true);
      if (key != 0) MakeBusy(key);
    } else if (op < 70) {
      const int threads = Draw(shape_.threads);
      const std::uint64_t got = flat_.BestExactIdle(threads, allows);
      const std::uint64_t want = ref_.BestExactIdle(threads, allows);
      if (got != want) {
        return Describe("BestExactIdle", threads, got, want);
      }
      if (got != 0 && rng_.Uniform() < 0.6) MakeBusy(got);
    } else if (op < 88) {
      const int min_cores = Draw(shape_.threads);
      const std::uint64_t got = flat_.BestReconfigurable(min_cores, allows);
      const std::uint64_t want = ref_.BestReconfigurable(min_cores, allows);
      if (got != want) {
        return Describe("BestReconfigurable", min_cores, got, want);
      }
      if (got != 0 && rng_.Uniform() < 0.6) {
        MakeBusy(got);
        book_[got].threads = min_cores;  // runs reconfigured
      }
    } else if (op < 94) {
      // The compaction walk, whole or stopped after a drawn prefix.
      const std::size_t stop = rng_.Uniform() < 0.5
                                   ? book_.size()
                                   : rng_.UniformBelow(8);
      std::vector<std::pair<int, std::uint64_t>> got;
      flat_.VisitIdlePrivate([&got, stop](int cores, std::uint64_t key) {
        if (got.size() >= stop) return false;
        got.emplace_back(cores, key);
        return true;
      });
      std::vector<std::pair<int, std::uint64_t>> want;
      for (const auto& entry : ref_.idle_private()) {
        if (want.size() >= stop) break;
        want.push_back(entry);
      }
      if (got != want) {
        return "private visit: " + std::to_string(got.size()) + " keys vs " +
               std::to_string(want.size()) + " in the reference order";
      }
    } else if (op < 97) {
      // The breaker opens or closes on a drawn subset.
      const double rate = rng_.Uniform() < 0.3 ? 0.0 : rng_.Uniform(0.0, 0.6);
      for (std::size_t key = 1; key < blocked_.size(); ++key) {
        blocked_[key] = rng_.Uniform() < rate;
      }
    } else {
      // Repeated transitions are no-ops on both.
      const bool idle = rng_.Uniform() < 0.5;
      const std::uint64_t key = DrawKey(idle);
      if (key != 0) {
        if (idle) {
          flat_.InsertIdle(EntryOf(key));
          ref_.InsertIdle(EntryOf(key));
        } else {
          flat_.RemoveIdle(EntryOf(key));
          ref_.RemoveIdle(EntryOf(key));
        }
      }
    }
    if (flat_.idle_count() != ref_.idle_count()) {
      return "idle count " + std::to_string(flat_.idle_count()) + " vs " +
             std::to_string(ref_.idle_count());
    }
    return "";
  }

  /// The flat index's own audit against the book.
  [[nodiscard]] std::vector<std::string> Audit() const {
    std::vector<Entry> expected;
    for (std::uint64_t key = 1; key < book_.size(); ++key) {
      if (book_[key].idle) expected.push_back(EntryOf(key));
    }
    return flat_.AuditIdle(expected);
  }

  [[nodiscard]] const WorkerIndex& flat() const { return flat_; }

 private:
  int Draw(const std::vector<int>& choices) {
    return choices[rng_.UniformBelow(static_cast<std::uint32_t>(choices.size()))];
  }

  /// A drawn worker in the given state, or 0 after a few misses.
  std::uint64_t DrawKey(bool idle) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint64_t key =
          1 + rng_.UniformBelow(static_cast<std::uint32_t>(book_.size() - 1));
      if (book_[key].idle == idle) return key;
    }
    return 0;
  }

  [[nodiscard]] Entry EntryOf(std::uint64_t key) const {
    const Worker& w = book_[key];
    return Entry{key, w.threads, w.cores, w.is_private};
  }

  void MakeIdle(std::uint64_t key) {
    book_[key].idle = true;
    flat_.InsertIdle(EntryOf(key));
    ref_.InsertIdle(EntryOf(key));
  }

  void MakeBusy(std::uint64_t key) {
    book_[key].idle = false;
    flat_.RemoveIdle(EntryOf(key));
    ref_.RemoveIdle(EntryOf(key));
  }

  std::string Describe(const char* query, int arg, std::uint64_t got,
                       std::uint64_t want) const {
    return std::string(query) + "(" + std::to_string(arg) + ") picked " +
           std::to_string(got) + ", the reference " + std::to_string(want);
  }

  const Shape& shape_;
  RandomStream rng_;
  std::vector<Worker> book_;
  std::vector<bool> blocked_;
  WorkerIndex flat_;
  SetIndex ref_;
};

TEST(WorkerIndexDifferential, FlatRunsPickWhatTheOrderedSetsPicked) {
  constexpr int kSteps = 3000;
  for (const Shape& shape : kShapes) {
    for (const std::size_t workers : {1u, 7u, 60u, 400u}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Script script(shape, seed * 7919 + workers, workers);
        for (int step = 0; step < kSteps; ++step) {
          const std::string diverged = script.Step();
          ASSERT_EQ(diverged, "")
              << shape.name << ", " << workers << " workers, seed " << seed
              << ", step " << step;
          if (step % 500 == 0) {
            ASSERT_EQ(script.Audit(), std::vector<std::string>{})
                << shape.name << ", " << workers << " workers, seed " << seed
                << ", step " << step;
          }
        }
      }
    }
  }
}

TEST(WorkerIndexDifferential, AuditNamesMissingAndStaleKeys) {
  WorkerIndex index;
  index.InsertIdle({3, 2, 4, true});
  index.InsertIdle({5, 1, 1, false});
  EXPECT_EQ(index.AuditIdle({{3, 2, 4, true}, {5, 1, 1, false}}),
            std::vector<std::string>{});
  // The book says 5 is busy and 9 idle: 5 is stale in every walk it is
  // in, 9 missing from all three.
  const std::vector<std::string> issues =
      index.AuditIdle({{3, 2, 4, true}, {9, 4, 8, true}});
  const auto names = [&issues](const std::string& text) {
    for (const std::string& issue : issues) {
      if (issue.find(text) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(names("exact: missing key 9")) << issues.size();
  EXPECT_TRUE(names("reconfig: missing key 9"));
  EXPECT_TRUE(names("private: missing key 9"));
  EXPECT_TRUE(names("exact: stale key 5"));
  EXPECT_TRUE(names("reconfig: stale key 5"));
  EXPECT_FALSE(names("private: stale key 5")) << "5 is a public worker";
}

}  // namespace
}  // namespace scan::core
