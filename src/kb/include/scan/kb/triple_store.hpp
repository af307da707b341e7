#pragma once

// In-memory RDF triple store with SPO / POS / OSP hash indexes.
//
// This is the mutable staging store backing the SCAN knowledge base. Query
// access is by triple pattern (any of subject / predicate / object may be
// wildcards); the store picks the most selective index. Its read surface
// matches FrozenIndex's, with exact planner statistics, so the one SPARQL
// planner and executor (plan.hpp) run over either backend.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "scan/common/function_ref.hpp"
#include "scan/kb/term.hpp"

namespace scan::kb {

/// One RDF statement as interned ids.
struct Triple {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// A triple pattern: nullopt positions are wildcards.
struct TriplePatternIds {
  std::optional<TermId> s;
  std::optional<TermId> p;
  std::optional<TermId> o;
};

/// Number of distinct terms in each triple position: the planner's
/// bound-variable deflation divisors.
struct DistinctCounts {
  std::size_t subjects = 0;
  std::size_t predicates = 0;
  std::size_t objects = 0;

  friend bool operator==(const DistinctCounts&, const DistinctCounts&) =
      default;
};

/// The triple store. Not thread-safe for concurrent mutation; concurrent
/// reads are safe once loading is done (the SCAN platform builds the KB up
/// front and then queries it from the broker).
class TripleStore {
 public:
  TripleStore() = default;

  /// Interns terms through the shared table.
  [[nodiscard]] TermTable& terms() { return terms_; }
  [[nodiscard]] const TermTable& terms() const { return terms_; }

  /// Adds a triple; returns false if it was already present. Throws
  /// std::invalid_argument if an id is 0 or was never issued by terms().
  bool Add(const Term& s, const Term& p, const Term& o);
  bool Add(Triple t);

  /// Bulk insertion: appends every triple, then restores the sorted-postings
  /// invariant with one sort+unique per touched key. O(n log n) total where
  /// per-triple Add into large posting lists is quadratic — the path for
  /// staging-layer loads of millions of triples before Freeze().
  /// Returns the number of triples actually added (duplicates collapse).
  /// Validates every id first, like Add: a rejected batch leaves the store
  /// and its revision() untouched.
  std::size_t AddBatch(std::span<const Triple> triples);

  /// Removes a triple; returns false if absent. (Used by knowledge
  /// maintenance when a profile row is superseded.)
  bool Remove(Triple t);

  [[nodiscard]] bool Contains(Triple t) const;

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Mutation counter: bumped by every successful Add / AddBatch / Remove.
  /// A FrozenIndex snapshot is fresh iff the revision it was built at still
  /// matches (see KnowledgeBase::Freeze).
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// Invokes `fn` for every triple matching the pattern. `fn` returning
  /// false stops the scan early. Non-owning callable: zero allocation per
  /// scan.
  void Match(const TriplePatternIds& pattern,
             FunctionRef<bool(const Triple&)> fn) const;

  /// Convenience: collects all matches.
  [[nodiscard]] std::vector<Triple> MatchAll(
      const TriplePatternIds& pattern) const;

  /// Objects o with (s, p, o) in the store.
  [[nodiscard]] std::vector<TermId> Objects(TermId s, TermId p) const;

  /// Subjects s with (s, p, o), ascending; `fn` returning false stops.
  void SubjectsVisit(TermId p, TermId o, FunctionRef<bool(TermId)> fn) const;

  /// Subjects s with (s, p, o) in the store.
  [[nodiscard]] std::vector<TermId> Subjects(TermId p, TermId o) const;

  /// First object for (s, p, *), if any.
  [[nodiscard]] std::optional<TermId> FirstObject(TermId s, TermId p) const;

  /// All distinct subjects with rdf:type == type.
  [[nodiscard]] std::vector<TermId> InstancesOf(TermId type) const;

  // --- Planner statistics (exact; same values as FrozenIndex) ---

  /// Match count for a pattern; nullopt positions are wildcards. Exact,
  /// except (s, ?, o), which reports the subject's full degree. O(log).
  [[nodiscard]] std::uint64_t CountEstimate(
      const TriplePatternIds& pattern) const;

  /// Subjects having every given predicate (any order, duplicates allowed).
  /// Time linear in the smallest posting list among the predicates.
  [[nodiscard]] std::uint64_t CountSubjectsWithPredicates(
      std::span<const TermId> predicates) const;

  [[nodiscard]] DistinctCounts distinct_counts() const {
    return {spo_.size(), pos_.size(), osp_.size()};
  }

 private:
  // key -> postings of the remaining two positions; postings kept sorted for
  // deterministic iteration order.
  using Postings = std::vector<std::pair<TermId, TermId>>;

  static bool InsertSorted(Postings& postings, std::pair<TermId, TermId> kv);
  static bool EraseSorted(Postings& postings, std::pair<TermId, TermId> kv);

  std::unordered_map<std::uint32_t, Postings> spo_;  // s -> (p, o)
  std::unordered_map<std::uint32_t, Postings> pos_;  // p -> (o, s)
  std::unordered_map<std::uint32_t, Postings> osp_;  // o -> (s, p)
  std::size_t count_ = 0;
  std::uint64_t revision_ = 0;
  TermTable terms_;
};

}  // namespace scan::kb
