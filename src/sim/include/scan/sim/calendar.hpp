#pragma once

// Event calendars for the discrete-event simulator.
//
// Two implementations share one interface contract:
//
//   LadderCalendar    — the production calendar: a calendar-queue/ladder-
//                       queue hybrid. Near-future events land in a window
//                       of 512 time buckets; events beyond the window go
//                       to an unsorted overflow list; the imminent bucket
//                       is sorted once on activation into `current_`, a
//                       descending vector popped from the back in O(1).
//                       When the window is spent the calendar reseeds:
//                       it re-derives the bucket width from the overflow
//                       span and redistributes, so throughput adapts to
//                       whatever event-time distribution the workload
//                       produces.
//   ReferenceCalendar — the retained std::priority_queue baseline, kept
//                       verbatim for differential testing and as the
//                       "before" leg of bench_des_hotpath.
//
// Both order strictly by (when, seq) ascending — seq is the simulator's
// monotone schedule sequence number, so simultaneous events pop in
// schedule (FIFO) order and pop order is bit-identical between the two.
// Cancellation stays the simulator's job (lazy deletion by seq); the
// calendar only stores and orders.
//
// Determinism note: bucket indices are pure functions of the event time's
// double value, the window base, and the width — all derived from event
// times alone — so two runs with identical schedules produce identical
// bucket placements, sorts, and pop orders on any platform with IEEE
// doubles.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "scan/common/arena.hpp"
#include "scan/common/inplace_function.hpp"

namespace scan::sim {

class Simulator;

/// Inline-buffer callback type for calendar events. 64 bytes covers every
/// capture in the engine's hot paths (the largest, a crash event, is
/// exactly 64 bytes), so steady-state event scheduling performs no heap
/// allocation.
using EventCallback = InplaceFunction<void(Simulator&), 64>;

/// Counters exposed for benchmarks and the boundary tests.
struct CalendarStats {
  std::uint64_t reseeds = 0;       // window rebuilds from overflow
  std::uint64_t bucket_sorts = 0;  // buckets sorted on activation
  std::size_t peak_pending = 0;    // high-water mark of stored events
};

/// Calendar-queue/ladder-queue hybrid. Not thread-safe (one per
/// Simulator). Callbacks are arena-backed: Push copies the callback into
/// a pooled node, PopMin returns the node, and the caller must hand it
/// back via ReleaseNode after invoking (or discarding) it.
class LadderCalendar {
 public:
  struct EventNode {
    // Forwarding constructor: the callable lands directly in the node's
    // inline buffer (no intermediate EventCallback relocations).
    template <class F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, EventNode>)
    explicit EventNode(F&& callback) : cb(std::forward<F>(callback)) {}
    EventCallback cb;
  };

  /// Light 24-byte ordering record; sorts and bucket moves never touch
  /// the callback payload.
  struct Entry {
    double when = 0.0;
    std::uint64_t seq = 0;
    EventNode* node = nullptr;
  };

  LadderCalendar() : buckets_(kBuckets) {}
  LadderCalendar(const LadderCalendar&) = delete;
  LadderCalendar& operator=(const LadderCalendar&) = delete;

  ~LadderCalendar() {
    auto drop = [this](std::vector<Entry>& entries) {
      for (Entry& e : entries) arena_.Destroy(e.node);
      entries.clear();
    };
    drop(current_);
    for (auto& bucket : buckets_) drop(bucket);
    drop(overflow_);
  }

  template <class F>
  void Push(double when, std::uint64_t seq, F&& cb) {
    Entry entry{when, seq, arena_.Create(std::forward<F>(cb))};
    ++size_;
    if (size_ > stats_.peak_pending) stats_.peak_pending = size_;
    if (when < current_hi_) {
      InsertCurrent(entry);
    } else if (cursor_ < kBuckets && when < ring_end_) {
      buckets_[BucketIndex(when)].push_back(entry);
    } else {
      overflow_.push_back(entry);
    }
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Minimum (when, seq) entry. Requires !empty(). May advance the ladder
  /// window internally, hence non-const.
  [[nodiscard]] const Entry& PeekMin() {
    EnsureCurrent();
    return current_.back();
  }

  /// Removes and returns the minimum entry. Requires !empty(). The caller
  /// owns the node until ReleaseNode.
  [[nodiscard]] Entry PopMin() {
    EnsureCurrent();
    Entry entry = current_.back();
    current_.pop_back();
    --size_;
    return entry;
  }

  void ReleaseNode(EventNode* node) { arena_.Destroy(node); }

  [[nodiscard]] const CalendarStats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kBuckets = 512;
  /// Buffer capacity (entries) a bucket may always keep for reuse after
  /// activation, however few events are pending.
  static constexpr std::size_t kParkedCapacity = 16;

  static bool Descending(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  [[nodiscard]] std::size_t BucketIndex(double when) const {
    // The division is exact enough for correctness because the result is
    // clamped into [cursor_, kBuckets): an event can never land in an
    // already-consumed bucket (its time is >= current_hi_, checked by the
    // caller) nor past the last bucket.
    const double offset = (when - base_) / width_;
    std::size_t index = offset >= static_cast<double>(kBuckets)
                            ? kBuckets - 1
                            : static_cast<std::size_t>(offset);
    if (index < cursor_) index = cursor_;
    if (index >= kBuckets) index = kBuckets - 1;
    return index;
  }

  // Keeps `current_` descending by (when, seq); min stays at the back.
  void InsertCurrent(const Entry& entry) {
    const auto pos =
        std::lower_bound(current_.begin(), current_.end(), entry, Descending);
    current_.insert(pos, entry);
  }

  // Makes current_ non-empty, activating buckets and reseeding from
  // overflow as needed. Requires size_ > 0.
  void EnsureCurrent() {
    while (current_.empty()) {
      if (cursor_ < kBuckets) {
        std::vector<Entry>& bucket = buckets_[cursor_];
        ++cursor_;
        current_hi_ = base_ + static_cast<double>(cursor_) * width_;
        if (!bucket.empty()) {
          current_.swap(bucket);
          // The bucket now parks current_'s old (empty) buffer for its
          // next fill. Parked buffers circulate, so without a bound every
          // bucket would end up retaining the largest capacity current_
          // ever reached: with few events pending but clustered in a few
          // buckets, hundreds of times the pending set. A buffer larger
          // than an eighth of the pending set is freed instead.
          const std::size_t keep = std::max(kParkedCapacity, size_ / 8);
          if (bucket.capacity() > keep) std::vector<Entry>().swap(bucket);
          std::sort(current_.begin(), current_.end(), Descending);
          ++stats_.bucket_sorts;
        }
      } else {
        Reseed();
      }
    }
  }

  // Rebuilds the bucket window over the overflow list. Every overflow
  // entry's time is >= current_hi_ (it was beyond the window when pushed
  // and the window only moves forward), so the new window never conflicts
  // with already-popped events.
  void Reseed() {
    assert(!overflow_.empty());
    ++stats_.reseeds;
    double min_when = std::numeric_limits<double>::infinity();
    double max_finite = -std::numeric_limits<double>::infinity();
    for (const Entry& e : overflow_) {
      if (e.when < min_when) min_when = e.when;
      if (e.when > max_finite && e.when < std::numeric_limits<double>::infinity()) {
        max_finite = e.when;
      }
    }
    if (min_when == std::numeric_limits<double>::infinity()) {
      // Only unreachable-time events remain; drain them straight into
      // current_ (all tie on when, so order is by seq alone).
      current_.swap(overflow_);
      std::sort(current_.begin(), current_.end(), Descending);
      current_hi_ = std::numeric_limits<double>::infinity();
      cursor_ = kBuckets;
      return;
    }
    base_ = min_when;
    const double span = max_finite - min_when;
    // Spread the finite span over the window with one bucket of slack so
    // max_finite itself lands strictly inside; a zero span (all events
    // simultaneous) degenerates to one occupied bucket.
    width_ = span > 0.0 ? span / static_cast<double>(kBuckets - 1) : 1.0;
    ring_end_ = base_ + static_cast<double>(kBuckets) * width_;
    cursor_ = 0;
    current_hi_ = base_;
    std::vector<Entry> pending;
    pending.swap(overflow_);
    for (const Entry& e : pending) {
      if (e.when < ring_end_) {
        buckets_[BucketIndex(e.when)].push_back(e);
      } else {
        overflow_.push_back(e);  // +infinity (or width rounding) stragglers
      }
    }
  }

  std::vector<Entry> current_;  // descending; min at back
  double current_hi_ = 0.0;     // events below this go into current_
  std::vector<std::vector<Entry>> buckets_;
  std::size_t cursor_ = kBuckets;  // next bucket to activate; kBuckets = spent
  double base_ = 0.0;
  double width_ = 1.0;
  double ring_end_ = 0.0;  // base_ + kBuckets * width_ while window active
  std::vector<Entry> overflow_;
  std::size_t size_ = 0;
  PoolArena<EventNode> arena_;
  CalendarStats stats_;
};

/// The pre-ladder calendar, verbatim: a binary heap of fat events ordered
/// by (when, seq). Retained as the differential-testing oracle and the
/// baseline leg of the hot-path benchmark. Templated on the callback type
/// so the differential test can instantiate it for its reference engine;
/// `ReferenceCalendar` below is the historical shape.
template <class Callback>
class BasicReferenceCalendar {
 public:
  struct Event {
    double when = 0.0;
    std::uint64_t seq = 0;
    Callback cb;
  };

  void Push(double when, std::uint64_t seq, Callback cb) {
    heap_.push(Event{when, seq, std::move(cb)});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const Event& PeekMin() const { return heap_.top(); }

  [[nodiscard]] Event PopMin() {
    Event event = heap_.top();  // copy, as the legacy engine did
    heap_.pop();
    return event;
  }

 private:
  struct Order {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Order> heap_;
};

using ReferenceCalendar = BasicReferenceCalendar<std::function<void(Simulator&)>>;

}  // namespace scan::sim
