#pragma once

// The coordinator's book of dispatched stage tasks: one slot per ticket
// outstanding, and the launch that runs a slot's task on the execution
// pool.
//
// A slot is the one record of a dispatched ticket: the engine's
// assignment, the wall-clock durations its slices sleep and burn, and the
// countdown whose last decrement reports the ticket. The coordinator books
// a slot when it dispatches a ticket, launches the slot's slices, marks it
// reported when it drains the ticket's completion message, and releases it
// once the ticket's terminal event has run. Only then may the slot serve
// another ticket, which is what makes the reuse safe: every slice's last
// touch of the slot happens before its completion push.
//
// The slots are a SlotTable keyed by ticket (the table the engine's job
// and worker books use too): released slots are recycled through its free
// list and found through its open-addressed index, so the book holds as
// many slots as tickets were ever outstanding at once, never one per
// ticket of the run, and a warm book allocates nothing. Coordinator thread
// only: executors read a launched slot's assignment and durations and
// count down its `remaining`, and touch nothing else.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "scan/common/slot_table.hpp"
#include "scan/concurrency/thread_pool.hpp"
#include "scan/core/engine.hpp"
#include "scan/runtime/clock.hpp"
#include "scan/runtime/completion_queue.hpp"

namespace scan::runtime {

class TicketBook {
 public:
  struct Slot {
    /// The engine's assignment: the ticket, the slice count (`threads`),
    /// the modeled instants the slices' trace spans carry, the span.
    core::Assignment assignment;
    /// Real seconds each slice sleeps before starting (the boot or
    /// reconfiguration delay under the wall clock; 0 under the virtual
    /// clock).
    double pre_delay_seconds = 0.0;
    /// Real seconds of CPU each slice burns (the straggle-extended modeled
    /// duration under the wall clock; 0 = token burn under the virtual
    /// clock).
    double burn_seconds = 0.0;
    /// Slices still running; the last to finish reports the ticket.
    std::atomic<int> remaining{0};
    /// The ticket's completion message has been drained.
    bool reported = false;
    /// Wall clock: its worker crashed or flapped first, so the completion,
    /// when it arrives, is drained and discarded.
    bool orphaned = false;
  };

  TicketBook() = default;
  TicketBook(const TicketBook&) = delete;
  TicketBook& operator=(const TicketBook&) = delete;

  /// Books `assignment.ticket` and returns its slot holding `assignment`,
  /// with both durations 0 and `reported` and `orphaned` cleared.
  /// Allocates only when every slot is in use. Throws std::logic_error if
  /// the ticket is already booked.
  Slot& Acquire(const core::Assignment& assignment);

  /// The slot booked for `ticket`, or nullptr if it is not booked.
  [[nodiscard]] Slot* Find(std::uint64_t ticket) {
    return slots_.Find(ticket);
  }

  /// Unbooks the slot's ticket; the slot may serve the next Acquire.
  /// Throws std::logic_error if the ticket is not booked.
  void Release(Slot& slot);

  /// Unbooks every ticket (end of run: every message has been consumed).
  void Clear() { slots_.Clear(); }

  /// Tickets booked now.
  [[nodiscard]] std::size_t outstanding() const { return slots_.size(); }
  /// The most tickets ever booked at once.
  [[nodiscard]] std::size_t peak_outstanding() const { return slots_.peak(); }
  /// Slots the book holds (its high-water mark: slots are never dropped).
  [[nodiscard]] std::size_t slots() const { return slots_.slots(); }

 private:
  SlotTable<Slot> slots_;
};

/// Runs the slot's stage task as `slot.assignment.threads` parallel slices
/// on `pool`, handed over in one batch submit (the paper's multithreaded
/// stage execution, T_i(t, d), with real concurrency). Each slice sleeps
/// the slot's pre-delay, burns its burn seconds on `kernel` (token work
/// when 0) and records its trace span; the last to finish pushes the
/// ticket onto `completions`. The slices reach the slot, `kernel` and
/// `completions` by pointer, so all three must stay alive, and the slot
/// unused, until that message has been drained. Throws
/// std::invalid_argument, before anything is queued, when the assignment
/// has fewer than one thread (its ticket could never be reported).
void LaunchSlices(TicketBook::Slot& slot, ThreadPool& pool,
                  const SpinKernel& kernel, CompletionQueue& completions);

}  // namespace scan::runtime
