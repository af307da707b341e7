#pragma once

// SPARQL-subset query language over the triple store.
//
// The paper's Data Broker queries the knowledge base in SPARQL (§III-A-2).
// This module implements the subset those queries need:
//
//   PREFIX pfx: <iri>
//   SELECT [DISTINCT] ?a ?b | * | (COUNT(*) AS ?n) (AVG(?x) AS ?m)
//   WHERE {
//     triple patterns . FILTER(expr) OPTIONAL { ... }
//     { ... } UNION { ... }
//   }
//   GROUP BY ?g ...   ORDER BY [ASC|DESC](?v) ...   LIMIT n   OFFSET n
//
// FILTER expressions support numeric/string comparisons (=, !=, <, <=, >,
// >=), logical && || !, parentheses, and BOUND(?v).
//
// Terms follow the one rule of the shared RDF lexer (rdf_lexer.hpp): a
// spelling means the same Term here as in Turtle; blank nodes are Turtle
// only. LIMIT/OFFSET take an unsigned integer that fits in size_t. Groups,
// parentheses, `!` and each `&&`/`||` link nest one level, up to
// kMaxSparqlDepth, which bounds every later walk of the query too. Every
// ParseError ends in "at line L, column C", naming the first character of
// the offending token.
//
// Semantics follow the SPARQL spec for this subset: basic graph patterns
// join via shared variables, OPTIONAL is a left outer join, FILTER drops
// rows whose expression is false or errors (an unbound variable inside a
// comparison is an error, not false — use BOUND to test presence).
//
// QueryEngine runs the one executor (plan.hpp) over a TripleStore or a
// FrozenIndex snapshot of it, with the same rows in the same order on both.

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "scan/common/status.hpp"
#include "scan/kb/triple_store.hpp"

namespace scan::kb {

class FrozenIndex;

/// Dense id of a query variable, interned at parse time so the executor
/// carry flat `vector<TermId>` solution rows instead of per-row
/// name -> id hash maps. Ids index SelectQuery::var_names.
inline constexpr std::uint32_t kNoVarId = 0xffffffffu;

/// A SPARQL variable (stored without the leading '?').
struct Variable {
  std::string name;
  std::uint32_t id = kNoVarId;  ///< dense id within the enclosing query
  friend bool operator==(const Variable&, const Variable&) = default;
};

/// One position of a triple pattern: either a variable or a concrete term.
using PatternNode = std::variant<Variable, Term>;

struct TriplePattern {
  PatternNode s;
  PatternNode p;
  PatternNode o;
};

/// FILTER expression tree.
struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprOp {
  kVar,      // variable reference
  kLiteral,  // constant term
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
  kBound,  // BOUND(?v)
};

struct Expr {
  ExprOp op = ExprOp::kLiteral;
  std::string var;                   // for kVar / kBound
  std::uint32_t var_id = kNoVarId;   // interned id of `var`
  Term literal;                      // for kLiteral
  ExprPtr lhs;
  ExprPtr rhs;
};

/// A `{ ... }` group: conjunctive triple patterns, filters, nested
/// OPTIONAL groups, and UNION alternations. Evaluation order: triples
/// (join), then unions, then optionals, then filters.
struct GroupPattern {
  std::vector<TriplePattern> triples;
  std::vector<ExprPtr> filters;
  std::vector<GroupPattern> optionals;
  /// Each element is one `{A} UNION {B} UNION ...` construct: a list of
  /// alternative branches whose solutions are concatenated.
  std::vector<std::vector<GroupPattern>> unions;
};

struct OrderKey {
  std::string var;
  bool ascending = true;
};

/// Aggregate functions usable in the projection:
///   SELECT (COUNT(*) AS ?n) (AVG(?t) AS ?mean) ?g ... GROUP BY ?g
enum class AggregateFn {
  kNone,   // plain variable projection
  kCount,  // COUNT(?v) counts bound rows; COUNT(*) counts all rows
  kSum,
  kAvg,
  kMin,
  kMax,
};

/// One projected column: a plain variable or an aggregate with an alias.
struct Projection {
  AggregateFn fn = AggregateFn::kNone;
  std::string var;    ///< source variable ("" for COUNT(*))
  std::string alias;  ///< output name; defaults to var for plain columns
  bool star = false;  ///< COUNT(*)
};

struct SelectQuery {
  bool distinct = false;
  /// Every distinct variable in the query, indexed by its dense id (the
  /// parse-time interning table). Solution rows are vectors parallel to
  /// this.
  std::vector<std::string> var_names;
  std::vector<std::string> variables;  // empty == SELECT * (plain queries)
  /// Full projection list (parallel to `variables` for plain queries;
  /// carries the aggregates otherwise).
  std::vector<Projection> projections;
  /// GROUP BY variables (aggregate queries only).
  std::vector<std::string> group_by;
  GroupPattern where;
  std::vector<OrderKey> order_by;
  std::optional<std::size_t> limit;
  std::optional<std::size_t> offset;

  [[nodiscard]] bool HasAggregates() const {
    for (const Projection& p : projections) {
      if (p.fn != AggregateFn::kNone) return true;
    }
    return false;
  }
};

/// The deepest a query may nest: levels of groups plus the height of a
/// FILTER expression tree (see the header comment).
inline constexpr std::size_t kMaxSparqlDepth = 256;

/// Parses the SPARQL subset into an AST, or returns a located ParseError.
[[nodiscard]] Result<SelectQuery> ParseSparql(std::string_view text);

/// A result table. Missing optional bindings are nullopt.
struct ResultSet {
  std::vector<std::string> variables;
  std::vector<std::vector<std::optional<Term>>> rows;

  /// Index of a variable in `variables`, or nullopt.
  [[nodiscard]] std::optional<std::size_t> ColumnOf(
      std::string_view var) const;

  /// Renders an aligned text table (diagnostics / examples).
  [[nodiscard]] std::string ToString() const;
};

/// Executes parsed queries over one backend; holds references only.
class QueryEngine {
 public:
  /// Over the mutable staging store.
  explicit QueryEngine(const TripleStore& store)
      : store_(&store), terms_(store.terms()) {}

  /// Over a frozen snapshot. `terms` must be the table of the store the
  /// index was frozen from (ids are shared, not remapped).
  QueryEngine(const FrozenIndex& index, const TermTable& terms)
      : frozen_(&index), terms_(terms) {}

  /// InvalidArgument if a pattern or FILTER variable id does not index
  /// query.var_names (possible only for hand-built queries).
  [[nodiscard]] Result<ResultSet> Execute(const SelectQuery& query) const;

  /// Parse + execute in one step.
  [[nodiscard]] Result<ResultSet> Execute(std::string_view text) const;

 private:
  const TripleStore* store_ = nullptr;
  const FrozenIndex* frozen_ = nullptr;
  const TermTable& terms_;
};

}  // namespace scan::kb
