// Differential battery for the ladder calendar (DESIGN.md §11).
//
// A reference engine — the legacy Simulator semantics implemented verbatim
// over the retained BasicReferenceCalendar (std::priority_queue) — is driven
// in lockstep with the production Simulator through randomized seeded
// scripts of schedule / cancel / advance operations. After every operation
// the two engines must agree exactly on: executed (when, seq) pop order,
// clock, Empty(), NextEventTime(), Cancel() return values, and all stats
// counters. Over the whole battery more than 10k events execute.
//
// A second set of tests exercises the ladder's spill/refill boundaries
// directly: bucket-edge event times, window-straddling pushes, infinite
// times, zero-span bursts, and the reseed/bucket-sort counters.

#include "scan/sim/calendar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/sim/simulator.hpp"

namespace scan::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Reference engine: the pre-ladder Simulator, line for line, over the
// retained priority-queue calendar. Kept inside the test so the production
// header stays free of test-only machinery.

class RefSim {
 public:
  using Callback = std::function<void(RefSim&)>;

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
  };

  [[nodiscard]] double Now() const { return now_; }

  std::uint64_t ScheduleAt(double when, Callback cb) {
    if (!(when >= now_)) {
      throw std::invalid_argument("RefSim: cannot schedule in the past");
    }
    if (!cb) throw std::invalid_argument("RefSim: empty callback");
    const std::uint64_t seq = next_seq_++;
    calendar_.Push(when, seq, std::move(cb));
    ++stats_.scheduled;
    return seq;
  }

  std::uint64_t ScheduleAfter(double delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  bool Cancel(std::uint64_t seq) {
    if (seq == 0 || seq >= next_seq_) return false;
    for (auto& p : periodics_) {
      if (p->handle_seq == seq && !p->cancelled) {
        p->cancelled = true;
        ++stats_.cancelled;
        return true;
      }
    }
    const auto [it, inserted] = cancelled_.insert(seq);
    (void)it;
    if (inserted) ++stats_.cancelled;
    return inserted;
  }

  std::uint64_t SchedulePeriodic(double period, Callback cb) {
    auto state = std::make_shared<PeriodicState>();
    state->period = period;
    state->cb = std::move(cb);
    state->handle_seq = next_seq_;
    periodics_.push_back(state);
    return ScheduleAfter(period, MakeFire(std::move(state)));
  }

  void RunUntil(double horizon) {
    while (!calendar_.empty()) {
      const auto& next = calendar_.PeekMin();
      if (!cancelled_.empty() && cancelled_.contains(next.seq)) {
        cancelled_.erase(next.seq);
        (void)calendar_.PopMin();
        continue;
      }
      if (next.when > horizon) {
        now_ = horizon;
        return;
      }
      PopAndRun();
    }
  }

  bool Step() {
    while (!calendar_.empty()) {
      const auto& next = calendar_.PeekMin();
      if (!cancelled_.empty() && cancelled_.contains(next.seq)) {
        cancelled_.erase(next.seq);
        (void)calendar_.PopMin();
        continue;
      }
      PopAndRun();
      return true;
    }
    return false;
  }

  [[nodiscard]] bool Empty() const {
    return calendar_.size() <= cancelled_.size();
  }

  [[nodiscard]] double NextEventTime() const {
    return calendar_.empty() ? kInf : calendar_.PeekMin().when;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  void SetTraceHook(std::function<void(double, std::uint64_t)> hook) {
    trace_hook_ = std::move(hook);
  }

 private:
  struct PeriodicState {
    double period = 0.0;
    Callback cb;
    std::uint64_t handle_seq = 0;
    bool cancelled = false;
  };

  static Callback MakeFire(std::shared_ptr<PeriodicState> state) {
    return [state = std::move(state)](RefSim& sim) {
      if (state->cancelled) return;
      state->cb(sim);
      if (!state->cancelled) {
        sim.ScheduleAfter(state->period, MakeFire(state));
      }
    };
  }

  void PopAndRun() {
    auto event = calendar_.PopMin();
    if (!cancelled_.empty() && cancelled_.erase(event.seq) > 0) return;
    now_ = event.when;
    if (trace_hook_) trace_hook_(event.when, event.seq);
    ++stats_.executed;
    event.cb(*this);
  }

  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  BasicReferenceCalendar<Callback> calendar_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::vector<std::shared_ptr<PeriodicState>> periodics_;
  Stats stats_;
  std::function<void(double, std::uint64_t)> trace_hook_;
};

// ---------------------------------------------------------------------------
// Lockstep drivers. Fired events may deterministically schedule a chained
// follow-up (decision derived from the event's own seq, so both engines
// make the same call without sharing state).

struct ChainDecision {
  bool schedule = false;
  double delta = 0.0;
};

ChainDecision DecideChain(std::uint64_t seq) {
  const std::uint64_t h = MixSeed(seq, 0x5eedULL);
  if (h % 4 != 0) return {};
  return {true, static_cast<double>(h % 512) / 32.0};
}

struct RealDriver {
  Simulator sim;
  std::vector<std::pair<double, std::uint64_t>> pops;
  std::vector<EventId> ids;
  std::uint64_t periodic_hits = 0;

  RealDriver() {
    sim.SetTraceHook([this](SimTime t, std::uint64_t seq) {
      pops.emplace_back(t.value(), seq);
    });
  }

  void Schedule(double when) {
    ids.push_back(sim.ScheduleAt(SimTime{when}, [this](Simulator&) { OnFire(); }));
  }
  void Periodic(double period) {
    ids.push_back(sim.SchedulePeriodic(SimTime{period},
                                       [this](Simulator&) { ++periodic_hits; }));
  }
  void OnFire() {
    const auto [when, seq] = pops.back();
    (void)when;
    const ChainDecision d = DecideChain(seq);
    if (d.schedule) Schedule(sim.Now().value() + d.delta);
  }
  bool Cancel(std::size_t i) { return sim.Cancel(ids[i]); }
  bool Step() { return sim.Step(); }
  void RunUntil(double h) { sim.RunUntil(SimTime{h}); }
  [[nodiscard]] double Now() const { return sim.Now().value(); }
  [[nodiscard]] bool Empty() const { return sim.Empty(); }
  [[nodiscard]] double Next() const { return sim.NextEventTime().value(); }
};

struct RefDriver {
  RefSim sim;
  std::vector<std::pair<double, std::uint64_t>> pops;
  std::vector<std::uint64_t> ids;
  std::uint64_t periodic_hits = 0;

  RefDriver() {
    sim.SetTraceHook([this](double t, std::uint64_t seq) {
      pops.emplace_back(t, seq);
    });
  }

  void Schedule(double when) {
    ids.push_back(sim.ScheduleAt(when, [this](RefSim&) { OnFire(); }));
  }
  void Periodic(double period) {
    ids.push_back(
        sim.SchedulePeriodic(period, [this](RefSim&) { ++periodic_hits; }));
  }
  void OnFire() {
    const auto [when, seq] = pops.back();
    (void)when;
    const ChainDecision d = DecideChain(seq);
    if (d.schedule) Schedule(sim.Now() + d.delta);
  }
  bool Cancel(std::size_t i) { return sim.Cancel(ids[i]); }
  bool Step() { return sim.Step(); }
  void RunUntil(double h) { sim.RunUntil(h); }
  [[nodiscard]] double Now() const { return sim.Now(); }
  [[nodiscard]] bool Empty() const { return sim.Empty(); }
  [[nodiscard]] double Next() const { return sim.NextEventTime(); }
};

/// Runs one randomized script against both engines; accumulates the number
/// of events the production engine executed into `*executed` (out-param
/// because ASSERT_* requires a void-returning function).
void RunScript(std::uint64_t seed, int ops, std::uint64_t* executed) {
  RealDriver real;
  RefDriver ref;
  RandomStream rng(seed, "calendar-differential");
  std::size_t checked = 0;

  for (int op = 0; op < ops; ++op) {
    const double roll = rng.Uniform();
    if (roll < 0.40) {
      const int count = 1 + static_cast<int>(rng.UniformBelow(4));
      for (int i = 0; i < count; ++i) {
        const double kind = rng.Uniform();
        double delta;
        if (kind < 0.10) {
          delta = 0.0;  // simultaneous with Now
        } else if (kind < 0.20) {
          delta = rng.Uniform(0.0, 1e-9);  // near-tie
        } else if (kind < 0.80) {
          delta = rng.Uniform(0.0, 50.0);  // near future
        } else {
          delta = rng.Uniform(50.0, 5000.0);  // far future / overflow
        }
        const double when = real.Now() + delta;
        real.Schedule(when);
        ref.Schedule(when);
      }
    } else if (roll < 0.52) {
      if (!real.ids.empty()) {
        const std::size_t i =
            rng.UniformBelow(static_cast<std::uint32_t>(real.ids.size()));
        ASSERT_EQ(real.Cancel(i), ref.Cancel(i)) << "cancel index " << i;
      }
    } else if (roll < 0.56) {
      const double period = rng.Uniform(0.5, 20.0);
      real.Periodic(period);
      ref.Periodic(period);
    } else if (roll < 0.76) {
      ASSERT_EQ(real.Step(), ref.Step());
    } else {
      const double horizon = real.Now() + rng.Uniform(0.0, 200.0);
      real.RunUntil(horizon);
      ref.RunUntil(horizon);
    }

    // Full observable-state agreement after every operation.
    ASSERT_EQ(real.Now(), ref.Now()) << "op " << op;
    ASSERT_EQ(real.Empty(), ref.Empty()) << "op " << op;
    ASSERT_EQ(real.Next(), ref.Next()) << "op " << op;
    ASSERT_EQ(real.sim.stats().events_scheduled, ref.sim.stats().scheduled);
    ASSERT_EQ(real.sim.stats().events_executed, ref.sim.stats().executed);
    ASSERT_EQ(real.sim.stats().events_cancelled, ref.sim.stats().cancelled);
    ASSERT_EQ(real.periodic_hits, ref.periodic_hits);
    ASSERT_EQ(real.pops.size(), ref.pops.size()) << "op " << op;
    for (; checked < real.pops.size(); ++checked) {
      ASSERT_EQ(real.pops[checked], ref.pops[checked])
          << "pop #" << checked << " diverged (op " << op << ")";
    }
  }

  // Drain what a finite horizon can reach, then re-verify everything.
  const double final_horizon = real.Now() + 100000.0;
  real.RunUntil(final_horizon);
  ref.RunUntil(final_horizon);
  EXPECT_EQ(real.Now(), ref.Now());
  EXPECT_EQ(real.pops.size(), ref.pops.size());
  for (; checked < real.pops.size(); ++checked) {
    ASSERT_EQ(real.pops[checked], ref.pops[checked]) << "pop #" << checked;
  }
  *executed += real.sim.stats().events_executed;
}

TEST(CalendarDifferentialTest, RandomizedScripts) {
  std::uint64_t total_executed = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunScript(seed, 500, &total_executed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The battery must exercise >10k events end to end.
  EXPECT_GT(total_executed, 10000u);
}

TEST(CalendarDifferentialTest, CancellationHeavyScript) {
  // Bias hard toward cancellation: schedule pairs, cancel one of each, and
  // make sure lazy deletion stays invisible.
  RealDriver real;
  RefDriver ref;
  RandomStream rng(99, "calendar-cancel-heavy");
  for (int round = 0; round < 400; ++round) {
    const double when = real.Now() + rng.Uniform(0.0, 30.0);
    real.Schedule(when);
    ref.Schedule(when);
    real.Schedule(when);  // exact tie with its sibling
    ref.Schedule(when);
    const std::size_t victim =
        rng.UniformBelow(static_cast<std::uint32_t>(real.ids.size()));
    ASSERT_EQ(real.Cancel(victim), ref.Cancel(victim));
    // Double-cancel: both must report false the second time.
    ASSERT_EQ(real.Cancel(victim), ref.Cancel(victim));
    if (round % 7 == 0) {
      const double horizon = real.Now() + rng.Uniform(0.0, 40.0);
      real.RunUntil(horizon);
      ref.RunUntil(horizon);
    }
    ASSERT_EQ(real.Now(), ref.Now());
    ASSERT_EQ(real.Empty(), ref.Empty());
    ASSERT_EQ(real.Next(), ref.Next());
  }
  real.RunUntil(real.Now() + 1000.0);
  ref.RunUntil(ref.Now() + 1000.0);
  ASSERT_EQ(real.pops, ref.pops);
  ASSERT_EQ(real.sim.stats().events_cancelled, ref.sim.stats().cancelled);
}

// ---------------------------------------------------------------------------
// Ladder spill/refill boundary tests, against the calendar directly.

EventCallback Noop() {
  return EventCallback([](Simulator&) {});
}

std::vector<std::pair<double, std::uint64_t>> Drain(LadderCalendar& cal) {
  std::vector<std::pair<double, std::uint64_t>> out;
  while (!cal.empty()) {
    LadderCalendar::Entry e = cal.PopMin();
    out.emplace_back(e.when, e.seq);
    cal.ReleaseNode(e.node);
  }
  return out;
}

void ExpectSorted(const std::vector<std::pair<double, std::uint64_t>>& pops) {
  for (std::size_t i = 1; i < pops.size(); ++i) {
    ASSERT_LE(pops[i - 1], pops[i]) << "pop #" << i << " out of order";
  }
}

TEST(LadderBoundaryTest, FirstPopReseedsFromOverflow) {
  LadderCalendar cal;
  RandomStream rng(3, "ladder-first-reseed");
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    cal.Push(rng.Uniform(0.0, 1000.0), seq, Noop());
  }
  // All pre-first-pop pushes buffer in overflow; no reseed has happened.
  EXPECT_EQ(cal.stats().reseeds, 0u);
  const auto pops = Drain(cal);
  EXPECT_EQ(cal.stats().reseeds, 1u);
  EXPECT_EQ(pops.size(), 100u);
  ExpectSorted(pops);
}

TEST(LadderBoundaryTest, BucketEdgeEventsPopInOrder) {
  LadderCalendar cal;
  std::uint64_t seq = 0;
  // Seed a window with span 511 so the bucket width is exactly 1.0 and
  // integer times sit exactly on bucket boundaries.
  cal.Push(0.0, ++seq, Noop());
  cal.Push(511.0, ++seq, Noop());
  LadderCalendar::Entry first = cal.PopMin();
  EXPECT_EQ(first.when, 0.0);
  cal.ReleaseNode(first.node);
  EXPECT_EQ(cal.stats().reseeds, 1u);

  // Exact bucket edges, off-edge values, the exact window end (spills to
  // overflow), and beyond.
  std::vector<double> times{1.0, 1.0, 2.0,   2.5,   3.0,  255.0,
                            256.0, 510.0, 511.0, 511.5, 512.0, 513.25};
  for (const double t : times) cal.Push(t, ++seq, Noop());
  const auto pops = Drain(cal);
  EXPECT_EQ(pops.size(), times.size() + 1);  // +1 for the seeded 511.0
  ExpectSorted(pops);
  // Ties at 1.0 must pop in push (seq) order.
  EXPECT_EQ(pops[0], (std::pair<double, std::uint64_t>{1.0, 3}));
  EXPECT_EQ(pops[1], (std::pair<double, std::uint64_t>{1.0, 4}));
  // 512.0 == window end straddles into overflow and forces a second reseed.
  EXPECT_GE(cal.stats().reseeds, 2u);
}

TEST(LadderBoundaryTest, WindowStraddlingPushesSurviveReseed) {
  LadderCalendar cal;
  std::uint64_t seq = 0;
  cal.Push(0.0, ++seq, Noop());
  cal.Push(100.0, ++seq, Noop());
  LadderCalendar::Entry first = cal.PopMin();
  cal.ReleaseNode(first.node);  // window now covers ~[0, 100 + slack)
  // Interleave pushes inside and far beyond the active window.
  RandomStream rng(17, "ladder-straddle");
  for (int i = 0; i < 500; ++i) {
    cal.Push(rng.Uniform(0.0, 90.0), ++seq, Noop());
    cal.Push(rng.Uniform(200.0, 5000.0), ++seq, Noop());
  }
  const auto pops = Drain(cal);
  EXPECT_EQ(pops.size(), 1001u);
  ExpectSorted(pops);
  EXPECT_GE(cal.stats().reseeds, 2u);
  EXPECT_GT(cal.stats().bucket_sorts, 0u);
}

TEST(LadderBoundaryTest, AllInfiniteTimesDrainInSeqOrder) {
  LadderCalendar cal;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) cal.Push(kInf, seq, Noop());
  const auto pops = Drain(cal);
  ASSERT_EQ(pops.size(), 5u);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(pops[seq - 1], (std::pair<double, std::uint64_t>{kInf, seq}));
  }
  EXPECT_EQ(cal.stats().reseeds, 1u);
}

TEST(LadderBoundaryTest, MixedFiniteAndInfiniteTimes) {
  LadderCalendar cal;
  std::uint64_t seq = 0;
  cal.Push(kInf, ++seq, Noop());
  cal.Push(5.0, ++seq, Noop());
  cal.Push(kInf, ++seq, Noop());
  cal.Push(1.0, ++seq, Noop());
  const auto pops = Drain(cal);
  ASSERT_EQ(pops.size(), 4u);
  EXPECT_EQ(pops[0].first, 1.0);
  EXPECT_EQ(pops[1].first, 5.0);
  EXPECT_EQ(pops[2], (std::pair<double, std::uint64_t>{kInf, 1}));
  EXPECT_EQ(pops[3], (std::pair<double, std::uint64_t>{kInf, 3}));
}

TEST(LadderBoundaryTest, ZeroSpanBurstIsFifo) {
  LadderCalendar cal;
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) cal.Push(42.0, seq, Noop());
  const auto pops = Drain(cal);
  ASSERT_EQ(pops.size(), 1000u);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    ASSERT_EQ(pops[seq - 1], (std::pair<double, std::uint64_t>{42.0, seq}));
  }
}

TEST(LadderBoundaryTest, EmptyCalendarPeekAndPopThrow) {
  // Without the check, the window walk and the reseed would hand an empty
  // calendar back and forth forever.
  LadderCalendar cal;
  EXPECT_THROW((void)cal.PeekMin(), std::logic_error);
  EXPECT_THROW((void)cal.PopMin(), std::logic_error);
  // Drained after use, and still usable after the throw.
  cal.Push(3.0, 1, Noop());
  (void)Drain(cal);
  EXPECT_THROW((void)cal.PeekMin(), std::logic_error);
  EXPECT_THROW((void)cal.PopMin(), std::logic_error);
  cal.Push(7.0, 2, Noop());
  const auto pops = Drain(cal);
  ASSERT_EQ(pops.size(), 1u);
  EXPECT_EQ(pops[0], (std::pair<double, std::uint64_t>{7.0, 2}));
  EXPECT_TRUE(cal.empty());
}

TEST(LadderBoundaryTest, PeakPendingTracksHighWater) {
  LadderCalendar cal;
  std::uint64_t seq = 0;
  for (int i = 0; i < 50; ++i) cal.Push(static_cast<double>(i), ++seq, Noop());
  EXPECT_EQ(cal.stats().peak_pending, 50u);
  for (int i = 0; i < 20; ++i) {
    LadderCalendar::Entry e = cal.PopMin();
    cal.ReleaseNode(e.node);
  }
  for (int i = 0; i < 25; ++i) {
    cal.Push(1000.0 + static_cast<double>(i), ++seq, Noop());
  }
  EXPECT_EQ(cal.stats().peak_pending, 55u);  // 30 live + 25 new
  (void)Drain(cal);
  EXPECT_EQ(cal.stats().peak_pending, 55u);
}

}  // namespace
}  // namespace scan::sim
