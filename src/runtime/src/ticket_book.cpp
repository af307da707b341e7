#include "scan/runtime/ticket_book.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "scan/common/str.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"

namespace scan::runtime {

namespace {

/// Token work per slice under the virtual clock — enough to force real pool
/// scheduling and memory traffic, small enough not to dominate the run.
constexpr std::uint64_t kTokenIterations = 256;

void RunSlice(TicketBook::Slot& slot, std::uint64_t slice,
              const SpinKernel& kernel, CompletionQueue& completions) {
  const core::Assignment& a = slot.assignment;
  if (slot.pre_delay_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(slot.pre_delay_seconds));
  }
  if (slot.burn_seconds > 0.0) {
    kernel.Burn(slot.burn_seconds);
  } else {
    kernel.BurnIterations(kTokenIterations);
  }
  if (obs::TraceEnabled()) {
    // Span on the running thread's track band (1000 + lane): an
    // executor's, or the coordinator's when it helps at a virtual-clock
    // gate. Stamped with modeled time so virtual-mode traces stay
    // deterministic.
    obs::TraceEmit(obs::EventKind::kStageSlice, a.start.value(),
                   1000 + obs::TraceRecorder::Global().CurrentLane(),
                   a.ticket, slice, 0.0, (a.actual_end - a.start).value(),
                   obs::SliceSpan(a.ticket, slice), a.span);
  }
  if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (obs::MetricsEnabled()) {
      obs::PoolMetrics::Global().completions_pushed->Increment();
    }
    completions.Push({a.ticket});
  }
}

}  // namespace

void LaunchSlices(TicketBook::Slot& slot, ThreadPool& pool,
                  const SpinKernel& kernel, CompletionQueue& completions) {
  // Checked before anything is queued: a task with no slice would never
  // report its ticket, and the coordinator would wait for it forever.
  const core::Assignment& a = slot.assignment;
  if (a.threads < 1) {
    throw std::invalid_argument(StrFormat(
        "LaunchSlices: ticket %llu on worker %llu has %d threads; a stage "
        "task needs at least one slice",
        static_cast<unsigned long long>(a.ticket),
        static_cast<unsigned long long>(a.worker_key), a.threads));
  }
  slot.remaining.store(a.threads, std::memory_order_relaxed);
  // All slices go to the pool in one handoff (the pool's queue lock
  // publishes the slot to the executors).
  TicketBook::Slot* const shared = &slot;
  const SpinKernel* const spin = &kernel;
  CompletionQueue* const report = &completions;
  pool.Submit(static_cast<std::size_t>(a.threads),
              [shared, spin, report](std::size_t slice) -> UniqueTask {
                return [shared, spin, report, slice] {
                  RunSlice(*shared, slice, *spin, *report);
                };
              });
}

TicketBook::Slot& TicketBook::Acquire(const core::Assignment& assignment) {
  Slot* const slot = slots_.Acquire(assignment.ticket);
  if (slot == nullptr) {
    throw std::logic_error("TicketBook::Acquire: ticket " +
                           std::to_string(assignment.ticket) +
                           " is already booked");
  }
  slot->assignment = assignment;
  slot->pre_delay_seconds = 0.0;
  slot->burn_seconds = 0.0;
  slot->reported = false;
  slot->orphaned = false;
  return *slot;
}

void TicketBook::Release(Slot& slot) {
  if (!slots_.Release(slot.assignment.ticket)) {
    throw std::logic_error("TicketBook::Release: ticket " +
                           std::to_string(slot.assignment.ticket) +
                           " is not booked");
  }
}

}  // namespace scan::runtime
