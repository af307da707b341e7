#include "scan/runtime/ticket_book.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace scan::runtime {

namespace {

/// Marks an empty index bucket (no ticket reaches it: tickets count up
/// from zero).
constexpr std::uint64_t kNoTicket = std::numeric_limits<std::uint64_t>::max();

constexpr std::size_t kMinBuckets = 16;

}  // namespace

std::size_t TicketBook::Home(std::uint64_t ticket) const {
  // Fibonacci hashing: the top bits of the product mix every ticket bit,
  // so tickets a bucket count apart do not pile into one probe run.
  return static_cast<std::size_t>((ticket * 0x9E3779B97F4A7C15ULL) >> shift_);
}

TicketBook::Slot& TicketBook::Acquire(std::uint64_t ticket) {
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
  Insert(ticket, &slot);
  slot.ticket = ticket;
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
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = Home(slot.ticket);
  while (index_[hole].ticket != slot.ticket) {
    if (index_[hole].ticket == kNoTicket) {
      throw std::logic_error("TicketBook::Release: ticket " +
                             std::to_string(slot.ticket) + " is not booked");
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
