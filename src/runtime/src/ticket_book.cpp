#include "scan/runtime/ticket_book.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "scan/common/str.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"

namespace scan::runtime {

namespace {

/// Marks an empty index bucket (no ticket reaches it: tickets count up
/// from zero).
constexpr std::uint64_t kNoTicket = std::numeric_limits<std::uint64_t>::max();

constexpr std::size_t kMinBuckets = 16;

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
    // Executor-thread span on its own track band (1000 + lane), stamped
    // with modeled time so virtual-mode traces stay deterministic.
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

std::size_t TicketBook::Home(std::uint64_t ticket) const {
  // Fibonacci hashing: the top bits of the product mix every ticket bit,
  // so tickets a bucket count apart do not pile into one probe run.
  return static_cast<std::size_t>((ticket * 0x9E3779B97F4A7C15ULL) >> shift_);
}

TicketBook::Slot& TicketBook::Acquire(const core::Assignment& assignment) {
  if (free_.empty()) {
    slots_.push_back(std::make_unique<Slot>());
    free_.reserve(slots_.size());  // so Release never allocates
    free_.push_back(slots_.back().get());
    if (2 * slots_.size() > index_.size()) {
      Rehash(std::max(kMinBuckets, 2 * index_.size()));
    }
  }
  Slot& slot = *free_.back();
  free_.pop_back();
  Insert(assignment.ticket, &slot);
  slot.assignment = assignment;
  slot.pre_delay_seconds = 0.0;
  slot.burn_seconds = 0.0;
  slot.reported = false;
  slot.orphaned = false;
  peak_ = std::max(peak_, ++outstanding_);
  return slot;
}

TicketBook::Slot* TicketBook::Find(std::uint64_t ticket) {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = Home(ticket);; i = (i + 1) & mask) {
    if (index_[i].ticket == ticket) return index_[i].slot;
    if (index_[i].ticket == kNoTicket) return nullptr;
  }
}

void TicketBook::Release(Slot& slot) {
  const std::uint64_t ticket = slot.assignment.ticket;
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = Home(ticket);
  while (index_[hole].ticket != ticket) {
    if (index_[hole].ticket == kNoTicket) {
      throw std::logic_error("TicketBook::Release: ticket " +
                             std::to_string(ticket) + " is not booked");
    }
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically in (hole, next], so every
  // remaining entry stays reachable from its home without tombstones.
  for (std::size_t next = (hole + 1) & mask; index_[next].ticket != kNoTicket;
       next = (next + 1) & mask) {
    const std::size_t home = Home(index_[next].ticket);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole].ticket = kNoTicket;
  free_.push_back(&slot);
  --outstanding_;
}

void TicketBook::Clear() {
  for (Entry& entry : index_) entry.ticket = kNoTicket;
  free_.clear();
  for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
    free_.push_back(it->get());
  }
  outstanding_ = 0;
}

void TicketBook::Insert(std::uint64_t ticket, Slot* slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = Home(ticket);
  for (; index_[i].ticket != kNoTicket; i = (i + 1) & mask) {
    if (index_[i].ticket == ticket) {
      throw std::logic_error("TicketBook::Acquire: ticket " +
                             std::to_string(ticket) + " is already booked");
    }
  }
  index_[i] = {ticket, slot};
}

void TicketBook::Rehash(std::size_t buckets) {
  std::vector<Entry> old(buckets, Entry{kNoTicket, nullptr});
  old.swap(index_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  for (const Entry& entry : old) {
    if (entry.ticket != kNoTicket) Insert(entry.ticket, entry.slot);
  }
}

}  // namespace scan::runtime
