#pragma once

// Bounded MPSC channel carrying worker -> coordinator completion messages.
//
// Producers are the runtime's execution threads (the last slice of a stage
// task pushes exactly one message); the single consumer is the coordinator
// loop inside RuntimePlatform. The queue is a fixed ring of `capacity`
// messages, allocated once at construction, so a message costs no heap
// traffic on either side. It is bounded so a slow coordinator exerts
// backpressure on workers instead of growing memory without bound: Push
// blocks while the ring is full. The coordinator takes messages by
// draining: every message queued (up to its buffer) under one lock, which
// also frees room for every blocked producer at once. It always drains
// (marking tickets that arrive ahead of their gate), so the system cannot
// deadlock.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
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

  /// Blocks while the ring is full (producer backpressure).
  void Push(TaskCompletion completion) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [this] { return count_ < ring_.size(); });
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
};

}  // namespace scan::runtime
