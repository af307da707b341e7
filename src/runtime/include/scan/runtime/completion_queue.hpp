#pragma once

// Bounded MPSC channel carrying worker -> coordinator completion messages.
//
// Producers are the threads that run stage tasks' slices (the last slice
// of a task pushes exactly one message); the single consumer is the
// coordinator loop inside RuntimePlatform. The queue is a fixed ring of
// `capacity` messages, allocated once at construction, so a message costs
// no heap traffic on either side. It is bounded so a slow coordinator
// exerts backpressure on workers instead of growing memory without bound:
// Push blocks while the ring is full. The coordinator takes messages by
// draining: every message queued (up to its buffer) under one lock, which
// also frees room for every blocked producer at once. It always drains
// (marking tickets that arrive ahead of their gate), so the system cannot
// deadlock.
//
// The consumer may be a producer too: under the virtual clock the
// coordinator runs queued slices while it waits, and pushes whenever it
// runs a task's last slice. Once it has bound itself (BindConsumer), the
// ring's last slot is its own: other producers block while only that slot
// is free. A consumer that drains between any two of its own pushes
// therefore always finds room, and never waits on a ring only it can
// empty. Before a consumer is bound every slot is open to every producer.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

namespace scan::runtime {

/// A stage task's completion message. The ticket is assigned by the
/// coordinator at dispatch; it is the only payload a worker reports (all
/// bookkeeping lives on the coordinator side, keyed by ticket).
struct TaskCompletion {
  std::uint64_t ticket = 0;
};

/// Bounded multi-producer single-consumer queue.
class CompletionQueue {
 public:
  explicit CompletionQueue(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Binds the calling thread as the queue's one consumer and keeps the
  /// ring's last slot for its own pushes (see the header comment). Throws
  /// std::logic_error when the ring has fewer than two slots, which would
  /// leave other producers none.
  void BindConsumer() {
    if (ring_.size() < 2) {
      throw std::logic_error(
          "CompletionQueue::BindConsumer: a ring of one slot has none left "
          "for producers");
    }
    const std::scoped_lock lock(mutex_);
    consumer_ = std::this_thread::get_id();
  }

  /// Blocks while the ring is full (producer backpressure); once a
  /// consumer is bound, a producer other than the consumer also blocks
  /// while only the last slot is free.
  void Push(TaskCompletion completion) {
    const std::thread::id self = std::this_thread::get_id();
    std::unique_lock lock(mutex_);
    const std::size_t room =
        consumer_ == std::thread::id() || consumer_ == self
            ? ring_.size()
            : ring_.size() - 1;
    not_full_.wait(lock, [this, room] { return count_ < room; });
    const std::size_t tail = head_ + count_;
    ring_[tail < ring_.size() ? tail : tail - ring_.size()] = completion;
    ++count_;
    lock.unlock();
    not_empty_.notify_one();
  }

  /// Moves queued messages, oldest first, into `out` (as many as fit)
  /// under one lock, blocking until at least one is queued. Returns the
  /// number moved.
  [[nodiscard]] std::size_t Drain(std::span<TaskCompletion> out) {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return count_ > 0; });
    return TakeLocked(out, lock);
  }

  /// Drain without blocking: 0 when nothing is queued.
  [[nodiscard]] std::size_t TryDrain(std::span<TaskCompletion> out) {
    std::unique_lock lock(mutex_);
    if (count_ == 0) return 0;
    return TakeLocked(out, lock);
  }

  /// Drain, waiting at most until `deadline`; 0 on timeout.
  [[nodiscard]] std::size_t DrainUntil(
      std::span<TaskCompletion> out,
      std::chrono::steady_clock::time_point deadline) {
    std::unique_lock lock(mutex_);
    if (!not_empty_.wait_until(lock, deadline, [this] { return count_ > 0; })) {
      return 0;
    }
    return TakeLocked(out, lock);
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

 private:
  std::size_t TakeLocked(std::span<TaskCompletion> out,
                         std::unique_lock<std::mutex>& lock) {
    const std::size_t n = count_ < out.size() ? count_ : out.size();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = ring_[head_];
      if (++head_ == ring_.size()) head_ = 0;
    }
    count_ -= n;
    lock.unlock();
    not_full_.notify_all();
    return n;
  }

  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<TaskCompletion> ring_;
  std::size_t head_ = 0;   ///< oldest message
  std::size_t count_ = 0;  ///< messages queued
  std::thread::id consumer_;  ///< owns the last slot once bound
};

}  // namespace scan::runtime
