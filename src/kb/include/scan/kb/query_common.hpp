#pragma once

// The flat solution-row representation plus everything of SPARQL
// execution but BGP evaluation: group staging, row extension, FILTERs and
// result materialization. Used by the planner-driven executor (plan.cpp)
// and by the differential oracle in scan_testkit (testkit/kb_oracle.hpp),
// so both share one semantics for these parts. Not a user-facing API.
//
// A solution row is a vector<TermId> indexed by the query's interned
// variable ids (SelectQuery::var_names); kInvalidTermId (0) means unbound,
// which is safe because id 0 is the TermTable sentinel.

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "scan/kb/sparql.hpp"

namespace scan::kb::detail {

using Row = std::vector<TermId>;

/// Tri-state FILTER evaluation result per SPARQL semantics.
enum class Ebv { kTrue, kFalse, kError };

/// SPARQL effective boolean value of a FILTER expression under a row.
[[nodiscard]] Ebv EvalExpr(const Expr& expr, const Row& row,
                           const TermTable& terms);

/// Appends `row` extended with the pattern's variables bound to `t`,
/// unless a variable repeated within the pattern (`?x :p ?x`) or already
/// bound in `row` would take two values.
void ExtendRow(const TriplePattern& tp, const Triple& t, const Row& row,
               std::vector<Row>& out);

/// Evaluates one `{ ... }` group over the seed rows: the basic graph
/// pattern via `bgp(triples, bound, rows)` (in place; `bound` marks the
/// variables the seed rows bind), then UNIONs, OPTIONALs and FILTERs. Only
/// the BGP evaluator differs between the executor and the testkit oracle.
template <typename Bgp>
std::vector<Row> EvaluateGroup(const GroupPattern& group,
                               std::vector<Row> rows, const TermTable& terms,
                               const Bgp& bgp) {
  if (!group.triples.empty() && !rows.empty()) {
    std::vector<bool> bound(rows.front().size(), false);
    for (std::size_t i = 0; i < bound.size(); ++i) {
      bound[i] = rows.front()[i] != kInvalidTermId;
    }
    bgp(group.triples, std::move(bound), rows);
  }
  for (const auto& branches : group.unions) {
    std::vector<Row> next;
    for (const Row& row : rows) {
      for (const GroupPattern& branch : branches) {
        for (Row& extended : EvaluateGroup(branch, {row}, terms, bgp)) {
          next.push_back(std::move(extended));
        }
      }
    }
    rows = std::move(next);
  }
  for (const GroupPattern& optional : group.optionals) {
    std::vector<Row> next;
    for (const Row& row : rows) {
      std::vector<Row> extended = EvaluateGroup(optional, {row}, terms, bgp);
      if (extended.empty()) extended.push_back(row);
      for (Row& e : extended) next.push_back(std::move(e));
    }
    rows = std::move(next);
  }
  for (const ExprPtr& filter : group.filters) {
    std::erase_if(rows, [&](const Row& row) {
      return EvalExpr(*filter, row, terms) != Ebv::kTrue;
    });
  }
  return rows;
}

/// InvalidArgument unless every pattern variable id and FILTER variable id
/// in the query indexes var_names (a hand-built SelectQuery may carry
/// kNoVarId or a stale id). Solution rows are indexed by these ids.
[[nodiscard]] Status CheckVarIds(const SelectQuery& query);

/// Dense id of a variable name within the query, if it was interned (i.e.
/// appears in the WHERE clause).
[[nodiscard]] std::optional<std::uint32_t> VarIdOf(const SelectQuery& query,
                                                   std::string_view name);

/// Shared back half of query execution: aggregates (GROUP BY path) or
/// plain projection, ORDER BY, DISTINCT, LIMIT/OFFSET. Consumes the
/// solution rows. Row order is preserved when no ORDER BY is given.
[[nodiscard]] Result<ResultSet> MaterializeResults(const SelectQuery& query,
                                                   const TermTable& terms,
                                                   std::vector<Row>&& rows);

}  // namespace scan::kb::detail
