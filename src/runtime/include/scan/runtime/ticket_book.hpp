#pragma once

// The coordinator's book of dispatched stage tasks: one slot per ticket
// outstanding.
//
// A slot is a stage task's slice group (what its slices read while they
// run; see live_worker.hpp) plus the coordinator's record of the
// assignment. The coordinator books a slot when it dispatches a ticket,
// marks it reported when it drains the ticket's completion message, and
// releases it once the ticket's terminal event has run. Only then may the
// slot serve another ticket, which is what makes the reuse safe: every
// slice's last touch of the group happens before its completion push.
//
// Released slots are recycled through a free list and found by ticket
// through an open-addressed index (linear probing, load at most 1/2), so
// the book holds as many slots as tickets were ever outstanding at once,
// never one per ticket of the run, and a warm book allocates nothing.
// Coordinator thread only: executors touch a slot's slice group and
// nothing else.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "scan/core/engine.hpp"
#include "scan/runtime/live_worker.hpp"

namespace scan::runtime {

class TicketBook {
 public:
  struct Slot {
    SliceGroup group;
    core::Assignment assignment;
    std::uint64_t ticket = 0;
    /// The ticket's completion message has been drained.
    bool reported = false;
    /// Wall clock: its worker crashed or flapped first, so the completion,
    /// when it arrives, is drained and discarded.
    bool orphaned = false;
  };

  TicketBook() = default;
  TicketBook(const TicketBook&) = delete;
  TicketBook& operator=(const TicketBook&) = delete;

  /// Books `ticket` and returns its slot, with `reported` and `orphaned`
  /// cleared. Allocates only when every slot is in use. Throws
  /// std::logic_error if `ticket` is already booked.
  Slot& Acquire(std::uint64_t ticket);

  /// The slot booked for `ticket`, or nullptr if it is not booked.
  [[nodiscard]] Slot* Find(std::uint64_t ticket);

  /// Unbooks the slot's ticket; the slot may serve the next Acquire.
  void Release(Slot& slot);

  /// Unbooks every ticket (end of run: every message has been consumed).
  void Clear();

  /// Tickets booked now.
  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }
  /// The most tickets ever booked at once.
  [[nodiscard]] std::size_t peak_outstanding() const { return peak_; }
  /// Slots the book holds (its high-water mark: slots are never dropped).
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

 private:
  struct Entry {
    std::uint64_t ticket;
    Slot* slot;
  };

  [[nodiscard]] std::size_t Home(std::uint64_t ticket) const;
  void Insert(std::uint64_t ticket, Slot* slot);
  void Rehash(std::size_t buckets);

  std::vector<std::unique_ptr<Slot>> slots_;  ///< stable addresses
  std::vector<Slot*> free_;                   ///< released slots, LIFO
  std::vector<Entry> index_;                  ///< ticket -> slot
  unsigned shift_ = 64;                       ///< 64 - log2(index_.size())
  std::size_t outstanding_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace scan::runtime
