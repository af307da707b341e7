#pragma once

// Cardinality-driven query planning and execution: the one SPARQL
// evaluator of the knowledge base, run over either backend — the mutable
// TripleStore or a FrozenIndex snapshot of it.
//
// PlanBgp orders a basic graph pattern greedily by estimated match count,
// using the backend's exact per-pattern counts plus characteristic-set
// statistics for star joins (several patterns sharing a subject variable):
// the number of subjects whose predicate signature includes every constant
// predicate seen so far is an exact star-cardinality bound, which the plain
// per-pattern counts cannot see.
//
// Each chosen step also carries its join strategy:
//  * kCross        — the pattern shares no bound variable with the rows
//                    accumulated so far: scan its matches ONCE and
//                    cross-join.
//  * kMergeFilter  — subject variable already bound, predicate and object
//                    constant: sort the rows by the variable and merge
//                    against the ascending (p, o) subject posting — a merge
//                    semi-join over sorted ids, one linear pass.
//  * kProbe        — general case: per-row index probe via Match with the
//                    row's bindings substituted.
//
// Both backends compute the statistics exactly from their postings and
// emit Match / SubjectsVisit in the same order, so PlanBgp picks the same
// plan on both and a query returns the same rows in the same order whether
// or not the knowledge base is frozen.
//
// The templates below are instantiated for TripleStore and FrozenIndex in
// plan.cpp; a Source provides Match, SubjectsVisit, CountEstimate,
// CountSubjectsWithPredicates and distinct_counts.

#include <cstdint>
#include <vector>

#include "scan/kb/frozen_index.hpp"
#include "scan/kb/sparql.hpp"

namespace scan::kb {

enum class JoinStrategy {
  kCross,
  kMergeFilter,
  kProbe,
};

struct PlanStep {
  const TriplePattern* pattern = nullptr;
  /// Constant positions resolved to ids at plan time (variables stay
  /// nullopt). kInvalidTermId marks a constant absent from the term table:
  /// the step — and with it the whole BGP — matches nothing.
  TriplePatternIds constants;
  std::uint64_t estimate = 0;  ///< match-count estimate when chosen
  JoinStrategy strategy = JoinStrategy::kProbe;
};

struct BgpPlan {
  std::vector<PlanStep> steps;
};

/// Orders the patterns of one BGP. `bound` is indexed by interned variable
/// id and marks variables already bound by the enclosing context; the
/// planner simulates binding propagation across its own copy.
template <typename Source>
[[nodiscard]] BgpPlan PlanBgp(const std::vector<TriplePattern>& triples,
                              std::vector<bool> bound, const Source& source,
                              const TermTable& terms);

/// Evaluates a parsed query over `source`, whose ids `terms` issued.
/// InvalidArgument if a variable id does not index query.var_names.
template <typename Source>
[[nodiscard]] Result<ResultSet> ExecuteQuery(const SelectQuery& query,
                                             const Source& source,
                                             const TermTable& terms);

}  // namespace scan::kb
