#pragma once

// A keyed table of reusable slots: the book the engine keeps of its live
// jobs and workers, and the one the live runtime keeps of its dispatched
// tickets.
//
// Slots live in a chunked store (std::deque), so a slot keeps its address
// for the table's life and may hold a type that cannot move (an atomic
// countdown). A released slot goes on a free list and is handed, as its
// last holder left it, to a later Acquire: a slot's vectors keep their
// capacity, and the table holds as many slots as keys were ever booked at
// once, never one per key of the run. Keys are found through an
// open-addressed index (linear probing, Fibonacci hashing, load at most
// 1/2, backward-shift deletion without tombstones). A warm table, one that
// has held as many keys at once as it books now, allocates nothing.
//
// Not thread-safe: one owner thread books, finds and releases.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace scan {

template <class T>
class SlotTable {
 public:
  /// The one key no caller may book: it marks an empty index bucket.
  static constexpr std::uint64_t kNoKey =
      std::numeric_limits<std::uint64_t>::max();

  SlotTable() = default;
  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;

  /// Books `key` and returns its slot, or nullptr when `key` is already
  /// booked (the caller names that error). A recycled slot holds whatever
  /// its last holder left in it; a new one is value-initialized. Allocates
  /// only when every slot is in use. Throws std::invalid_argument for
  /// kNoKey.
  [[nodiscard]] T* Acquire(std::uint64_t key) {
    if (key == kNoKey) {
      throw std::invalid_argument("SlotTable: key " + std::to_string(key) +
                                  " is reserved");
    }
    if (Find(key) != nullptr) return nullptr;
    if (free_.empty()) Grow();
    Cell* cell = free_.back();
    free_.pop_back();
    cell->key = key;
    Insert(cell);
    peak_ = std::max(peak_, ++size_);
    return &cell->value;
  }

  /// The slot booked for `key`, or nullptr if it is not booked.
  [[nodiscard]] T* Find(std::uint64_t key) {
    Cell* cell = FindCell(key);
    return cell == nullptr ? nullptr : &cell->value;
  }
  [[nodiscard]] const T* Find(std::uint64_t key) const {
    const Cell* cell = FindCell(key);
    return cell == nullptr ? nullptr : &cell->value;
  }

  /// The slot booked for `key`; throws std::out_of_range if it is not
  /// booked.
  [[nodiscard]] T& At(std::uint64_t key) {
    T* slot = Find(key);
    if (slot == nullptr) {
      throw std::out_of_range("SlotTable: key " + std::to_string(key) +
                              " is not booked");
    }
    return *slot;
  }

  /// Unbooks `key`; its slot may serve a later Acquire. False (and no
  /// change) if `key` is not booked.
  bool Release(std::uint64_t key) {
    if (key == kNoKey || index_.empty()) return false;
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = Home(key);
    while (index_[hole].key != key) {
      if (index_[hole].key == kNoKey) return false;
      hole = (hole + 1) & mask;
    }
    Cell* cell = index_[hole].cell;
    // Backward-shift deletion: pull each later entry of the probe run into
    // the hole unless its home lies cyclically in (hole, next], so every
    // remaining entry stays reachable from its home without tombstones.
    for (std::size_t next = (hole + 1) & mask; index_[next].key != kNoKey;
         next = (next + 1) & mask) {
      const std::size_t home = Home(index_[next].key);
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        index_[hole] = index_[next];
        hole = next;
      }
    }
    index_[hole] = Entry{};
    cell->key = kNoKey;
    free_.push_back(cell);
    --size_;
    return true;
  }

  /// Unbooks every key; the next Acquires take the slots in store order.
  void Clear() {
    for (Entry& entry : index_) entry = Entry{};
    free_.clear();
    for (auto it = cells_.rbegin(); it != cells_.rend(); ++it) {
      it->key = kNoKey;
      free_.push_back(&*it);
    }
    size_ = 0;
  }

  /// Calls `visit(key, slot)` for every booked slot, in store order (a
  /// function of the booking history alone, not of addresses).
  template <class Visit>
  void ForEach(Visit&& visit) const {
    for (const Cell& cell : cells_) {
      if (cell.key != kNoKey) visit(cell.key, cell.value);
    }
  }

  /// Keys booked now.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The most keys ever booked at once.
  [[nodiscard]] std::size_t peak() const { return peak_; }
  /// Slots the table holds (its high-water mark: slots are never dropped).
  [[nodiscard]] std::size_t slots() const { return cells_.size(); }

 private:
  struct Cell {
    std::uint64_t key = kNoKey;
    T value{};
  };
  struct Entry {
    std::uint64_t key = kNoKey;
    Cell* cell = nullptr;
  };

  static constexpr std::size_t kMinBuckets = 16;

  [[nodiscard]] std::size_t Home(std::uint64_t key) const {
    // Fibonacci hashing: the top bits of the product mix every key bit, so
    // keys a bucket count apart (dense ids) do not pile into one run.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  [[nodiscard]] Cell* FindCell(std::uint64_t key) const {
    if (key == kNoKey || index_.empty()) return nullptr;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = Home(key);; i = (i + 1) & mask) {
      if (index_[i].key == key) return index_[i].cell;
      if (index_[i].key == kNoKey) return nullptr;
    }
  }

  /// Adds one free slot, doubling the index first when the slots would
  /// fill more than half of it.
  void Grow() {
    if (2 * (cells_.size() + 1) > index_.size()) {
      Rehash(std::max(kMinBuckets, 2 * index_.size()));
    }
    cells_.emplace_back();
    free_.reserve(cells_.size());  // so Release never allocates
    free_.push_back(&cells_.back());
  }

  void Insert(Cell* cell) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = Home(cell->key);
    while (index_[i].key != kNoKey) i = (i + 1) & mask;
    index_[i] = Entry{cell->key, cell};
  }

  void Rehash(std::size_t buckets) {
    std::vector<Entry> old(buckets);
    old.swap(index_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
    for (const Entry& entry : old) {
      if (entry.key != kNoKey) Insert(entry.cell);
    }
  }

  std::deque<Cell> cells_;   ///< stable addresses, store order
  std::vector<Cell*> free_;  ///< released slots, LIFO
  std::vector<Entry> index_; ///< key -> slot
  unsigned shift_ = 64;      ///< 64 - log2(index_.size())
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace scan
