#pragma once

// FrozenIndex: the read-optimized serving half of the two-phase KB store.
//
// The mutable TripleStore stays the load/staging layer; Freeze() bulk-builds
// an immutable index that serves every query until the next mutation:
//
//  * SPO side, span-serving: subjects laid out in ascending id order, each
//    with its sorted predicate slice and per-(s,p) object runs in one flat
//    array. Objects(s, p) is an O(1) row lookup (dense-id-indexed) plus a
//    binary search over the subject's few predicates, returning a span —
//    zero allocation, the broker's shard-sizing hot path.
//  * POS side, compressed: per predicate, the sorted distinct objects with
//    each object's subject posting list delta+varbyte encoded
//    (CompressedPostings, RDF-TDAA style). Pattern scans stream through
//    visitors without materializing.
//  * OSP side, flat: per object, the (s, p) pairs sorted, for object-bound
//    patterns.
//  * A dedicated uncompressed type index (rdf:type object -> instance span)
//    so InstancesOf() is O(log #types) to a span.
//  * Characteristic sets: subjects grouped by their predicate signature,
//    with per-set subject counts — the planner's star-join cardinality
//    source.
//
// Ids are the TermTable's ids (not remapped), so every answer is
// id-compatible with the staging store. Match() emits triples in exactly
// the TripleStore scan order for every pattern shape, and the planner
// statistics equal the store's, so the one executor (plan.hpp) returns the
// same rows in the same order over either (frozen_differential_test.cpp).
//
// Thread-safety: immutable after Freeze(); concurrent reads are safe.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "scan/common/function_ref.hpp"
#include "scan/kb/triple_store.hpp"
#include "scan/kb/vbyte.hpp"

namespace scan::kb {

class FrozenIndex {
 public:
  FrozenIndex() = default;

  /// Bulk-builds the index from the staging store. O(n log n).
  static FrozenIndex Freeze(const TripleStore& store);

  // --- Hot-path accessors (zero allocation) ---

  /// Objects o with (s, p, o), ascending. O(1) + O(log deg(s)).
  [[nodiscard]] std::span<const TermId> Objects(TermId s, TermId p) const;

  /// First object for (s, p, *), if any.
  [[nodiscard]] std::optional<TermId> FirstObject(TermId s, TermId p) const;

  /// All subjects with rdf:type == type, ascending. O(log #types).
  [[nodiscard]] std::span<const TermId> InstancesOf(TermId type) const;

  /// The distinct predicates of a subject, ascending.
  [[nodiscard]] std::span<const TermId> PredicatesOf(TermId s) const;

  [[nodiscard]] bool Contains(Triple t) const;

  // --- Streaming / materializing accessors ---

  /// Subjects s with (s, p, o), ascending; `fn` returning false stops.
  /// Streams straight out of the compressed posting list.
  void SubjectsVisit(TermId p, TermId o, FunctionRef<bool(TermId)> fn) const;

  /// Materializing counterpart of SubjectsVisit.
  [[nodiscard]] std::vector<TermId> Subjects(TermId p, TermId o) const;

  /// Count of subjects with (s, p, o) without decoding. O(log).
  [[nodiscard]] std::size_t SubjectCount(TermId p, TermId o) const;

  /// Visits every triple matching the pattern in the same order as
  /// TripleStore::Match; `fn` returning false stops the scan.
  void Match(const TriplePatternIds& pattern,
             FunctionRef<bool(const Triple&)> fn) const;

  [[nodiscard]] std::vector<Triple> MatchAll(
      const TriplePatternIds& pattern) const;

  // --- Planner statistics ---

  /// Match count for a pattern; nullopt positions are wildcards. Exact,
  /// except (s, ?, o), which reports the subject's full degree. O(log).
  [[nodiscard]] std::uint64_t CountEstimate(
      const TriplePatternIds& pattern) const;

  /// Subjects whose characteristic set includes every given predicate
  /// (predicates need not be sorted). The star-join cardinality estimate.
  [[nodiscard]] std::uint64_t CountSubjectsWithPredicates(
      std::span<const TermId> predicates) const;

  /// One characteristic set: a predicate signature shared by
  /// subject_count subjects.
  struct CharacteristicSet {
    std::vector<TermId> predicates;
    std::uint32_t subject_count = 0;
  };

  [[nodiscard]] std::span<const CharacteristicSet> characteristic_sets()
      const {
    return charsets_;
  }

  struct Stats {
    std::size_t triples = 0;
    std::size_t subjects = 0;
    std::size_t predicates = 0;
    std::size_t objects = 0;
    std::size_t characteristic_sets = 0;
    std::size_t compressed_postings_bytes = 0;  // POS subject lists, encoded
    std::size_t raw_posting_values = 0;         // POS subject list entries
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] DistinctCounts distinct_counts() const {
    return {stats_.subjects, stats_.predicates, stats_.objects};
  }

  [[nodiscard]] std::size_t size() const { return stats_.triples; }

 private:
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  struct PredEntry {
    TermId id = kInvalidTermId;
    std::uint64_t triple_count = 0;
    std::uint32_t distinct_subjects = 0;
    // Sorted distinct objects; postings[i] holds the subjects of objects[i].
    std::vector<TermId> objects;
    std::vector<CompressedPostings> postings;
  };

  [[nodiscard]] const PredEntry* Pred(TermId p) const;
  /// The subject posting of (p, o), or nullptr.
  [[nodiscard]] const CompressedPostings* Posting(TermId p, TermId o) const;
  [[nodiscard]] std::uint32_t SubjectRow(TermId s) const;

  // Subject-major layout. subject_row_ is indexed by raw TermId.
  std::vector<std::uint32_t> subject_row_;
  std::vector<TermId> subjects_;             // ascending ids, one per row
  std::vector<std::uint32_t> sub_pred_begin_;  // row -> slice of sub_preds_
  std::vector<TermId> sub_preds_;            // per row: sorted predicates
  std::vector<std::uint32_t> sub_obj_begin_;   // per sub_preds_ slot -> objects_
  std::vector<TermId> objects_;              // (s, p)-grouped object runs
  std::vector<std::uint32_t> subject_charset_;  // row -> charset index

  // Predicate-major (compressed) layout. pred_row_ indexed by raw TermId.
  std::vector<std::uint32_t> pred_row_;
  std::vector<PredEntry> preds_;

  // Object-major layout for o-bound patterns.
  std::vector<std::uint32_t> object_row_;
  std::vector<TermId> object_ids_;            // ascending, one per row
  std::vector<std::uint32_t> obj_begin_;        // row -> slice of osp arrays
  std::vector<TermId> osp_subjects_;          // sorted by (o, s, p)
  std::vector<TermId> osp_preds_;

  // Type index: rdf:type objects -> instance spans.
  TermId rdf_type_ = kInvalidTermId;
  std::vector<TermId> type_ids_;              // ascending type object ids
  std::vector<std::uint32_t> type_begin_;
  std::vector<TermId> type_instances_;

  std::vector<CharacteristicSet> charsets_;
  Stats stats_;
};

}  // namespace scan::kb
