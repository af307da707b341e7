#include "scan/sim/simulator.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace scan::sim {

bool Simulator::Cancel(EventId id) {
  if (!id.valid() || id.seq_ >= next_seq_) return false;
  // Periodic handles cancel their recurrence state instead.
  for (auto& p : periodics_) {
    if (p->handle_seq == id.seq_ && !p->cancelled) {
      p->cancelled = true;
      ++stats_.events_cancelled;
      return true;
    }
  }
  const auto [it, inserted] = cancelled_.insert(id.seq_);
  (void)it;
  if (inserted) ++stats_.events_cancelled;
  return inserted;
}

Simulator::Callback Simulator::MakePeriodicFire(
    std::shared_ptr<PeriodicState> state) {
  return [state = std::move(state)](Simulator& sim) {
    if (state->cancelled) return;
    state->cb(sim);
    if (!state->cancelled) {
      sim.ScheduleAfter(state->period, MakePeriodicFire(state));
    }
  };
}

EventId Simulator::SchedulePeriodic(SimTime period, Callback cb) {
  if (!(period > SimTime{0.0})) {
    throw std::invalid_argument(
        "Simulator::SchedulePeriodic: period must be positive");
  }
  auto state = std::make_shared<PeriodicState>();
  state->period = period;
  state->cb = std::move(cb);
  state->handle_seq = next_seq_;  // the handle aliases the first firing
  periodics_.push_back(state);
  return ScheduleAfter(period, MakePeriodicFire(std::move(state)));
}

void Simulator::PopAndRun() {
  LadderCalendar::Entry entry = calendar_.PopMin();
  if (!cancelled_.empty() && cancelled_.erase(entry.seq) > 0) {
    calendar_.ReleaseNode(entry.node);
    return;  // lazily-deleted event
  }
  assert(entry.when >= now_.value());
  now_ = SimTime{entry.when};
  if (trace_hook_) trace_hook_(SimTime{entry.when}, entry.seq);
  ++stats_.events_executed;
  // The callback may schedule further events (growing the arena) but can
  // never reach this node again: its seq is already popped. The guard
  // returns the node to the arena even if the callback throws.
  struct NodeGuard {
    LadderCalendar& calendar;
    LadderCalendar::EventNode* node;
    ~NodeGuard() { calendar.ReleaseNode(node); }
  } guard{calendar_, entry.node};
  entry.node->cb(*this);
}

void Simulator::RunUntil(SimTime horizon) {
  while (!calendar_.empty()) {
    const LadderCalendar::Entry& next = calendar_.PeekMin();
    if (!cancelled_.empty() && cancelled_.contains(next.seq)) {
      cancelled_.erase(next.seq);
      const LadderCalendar::Entry dead = calendar_.PopMin();
      calendar_.ReleaseNode(dead.node);
      continue;
    }
    if (SimTime{next.when} > horizon) {
      now_ = horizon;
      return;
    }
    PopAndRun();
  }
  // Calendar drained; clock rests at the last executed event (or horizon if
  // that is finite and earlier semantics are not needed — we keep last event
  // time so Now() reflects real progress).
}

bool Simulator::Step() {
  while (!calendar_.empty()) {
    const LadderCalendar::Entry& next = calendar_.PeekMin();
    if (!cancelled_.empty() && cancelled_.contains(next.seq)) {
      cancelled_.erase(next.seq);
      const LadderCalendar::Entry dead = calendar_.PopMin();
      calendar_.ReleaseNode(dead.node);
      continue;
    }
    PopAndRun();
    return true;
  }
  return false;
}

bool Simulator::Empty() const {
  // Account for lazily-cancelled entries still in the calendar.
  return calendar_.size() <= cancelled_.size();
}

SimTime Simulator::NextEventTime() const {
  // Note: may report the time of a cancelled (lazily-deleted) event; callers
  // use this only as a lower bound, which remains correct.
  if (calendar_.empty()) {
    return SimTime{std::numeric_limits<double>::infinity()};
  }
  return SimTime{calendar_.PeekMin().when};
}

}  // namespace scan::sim
