#include "scan/kb/query_common.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace scan::kb {

std::optional<std::size_t> ResultSet::ColumnOf(std::string_view var) const {
  for (std::size_t i = 0; i < variables.size(); ++i) {
    if (variables[i] == var) return i;
  }
  return std::nullopt;
}

std::string ResultSet::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < variables.size(); ++i) {
    os << (i ? "\t" : "") << "?" << variables[i];
  }
  os << "\n";
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << (i ? "\t" : "");
      os << (row[i] ? kb::ToString(*row[i]) : std::string("UNBOUND"));
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace scan::kb

namespace scan::kb::detail {

namespace {

[[nodiscard]] TermId RowValue(const Row& row, std::uint32_t var_id) {
  if (var_id == kNoVarId || var_id >= row.size()) return kInvalidTermId;
  return row[var_id];
}

/// The term a row binds to a variable; nullopt if unbound.
std::optional<Term> TermAt(const Row& row, std::uint32_t var_id,
                           const TermTable& terms) {
  const TermId id = RowValue(row, var_id);
  if (id == kInvalidTermId) return std::nullopt;
  return terms.Get(id);
}

/// Resolves a kVar/kLiteral operand to a Term; nullopt if unbound.
std::optional<Term> OperandTerm(const Expr& expr, const Row& row,
                                const TermTable& terms) {
  if (expr.op == ExprOp::kLiteral) return expr.literal;
  assert(expr.op == ExprOp::kVar);
  return TermAt(row, expr.var_id, terms);
}

Ebv Compare(const Expr& expr, const Row& row, const TermTable& terms) {
  const auto lhs = OperandTerm(*expr.lhs, row, terms);
  const auto rhs = OperandTerm(*expr.rhs, row, terms);
  if (!lhs || !rhs) return Ebv::kError;  // unbound in comparison: error

  int cmp = 0;  // -1, 0, +1
  const auto ln = NumericValue(*lhs);
  const auto rn = NumericValue(*rhs);
  if (ln && rn) {
    cmp = (*ln < *rn) ? -1 : (*ln > *rn ? 1 : 0);
  } else if (expr.op == ExprOp::kEq || expr.op == ExprOp::kNe) {
    // Term equality across kinds; datatype-insensitive for literals whose
    // lexical forms match (pragmatic choice: the KB mixes typed and plain
    // numerics).
    const bool equal = lhs->kind == rhs->kind && lhs->lexical == rhs->lexical;
    cmp = equal ? 0 : 1;
  } else {
    // Ordering across non-numeric terms: lexical comparison of same-kind
    // terms, error otherwise.
    if (lhs->kind != rhs->kind) return Ebv::kError;
    cmp = lhs->lexical.compare(rhs->lexical);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }

  bool truth = false;
  switch (expr.op) {
    case ExprOp::kEq:
      truth = cmp == 0;
      break;
    case ExprOp::kNe:
      truth = cmp != 0;
      break;
    case ExprOp::kLt:
      truth = cmp < 0;
      break;
    case ExprOp::kLe:
      truth = cmp <= 0;
      break;
    case ExprOp::kGt:
      truth = cmp > 0;
      break;
    case ExprOp::kGe:
      truth = cmp >= 0;
      break;
    default:
      return Ebv::kError;
  }
  return truth ? Ebv::kTrue : Ebv::kFalse;
}

/// Calls `fn` on the group and every nested OPTIONAL and UNION group,
/// pre-order: a group, then its optionals, then its union branches.
template <typename Fn>
void ForEachGroup(const GroupPattern& group, const Fn& fn) {
  fn(group);
  for (const auto& opt : group.optionals) ForEachGroup(opt, fn);
  for (const auto& branches : group.unions) {
    for (const auto& branch : branches) ForEachGroup(branch, fn);
  }
}

/// Calls `fn` on every triple-pattern variable of the group and its nested
/// groups, in first-appearance order.
template <typename Fn>
void ForEachPatternVar(const GroupPattern& group, const Fn& fn) {
  ForEachGroup(group, [&](const GroupPattern& g) {
    for (const TriplePattern& tp : g.triples) {
      for (const PatternNode* node : {&tp.s, &tp.p, &tp.o}) {
        if (const auto* v = std::get_if<Variable>(node)) fn(*v);
      }
    }
  });
}

/// True if every variable id in the expression indexes `n` variables.
bool IdsInRange(const Expr& expr, std::size_t n) {
  if ((expr.op == ExprOp::kVar || expr.op == ExprOp::kBound) &&
      expr.var_id >= n) {
    return false;
  }
  return (!expr.lhs || IdsInRange(*expr.lhs, n)) &&
         (!expr.rhs || IdsInRange(*expr.rhs, n));
}

/// Shared ORDER BY comparison over two optional terms. Unbound sorts first
/// (SPARQL: lowest); numeric comparison when both sides parse as numbers.
int CompareOrderTerms(const std::optional<Term>& ta,
                      const std::optional<Term>& tb) {
  if (!ta && !tb) return 0;
  if (!ta) return -1;
  if (!tb) return 1;
  const auto na = NumericValue(*ta);
  const auto nb = NumericValue(*tb);
  if (na && nb) return (*na < *nb) ? -1 : (*na > *nb ? 1 : 0);
  const int c = ta->lexical.compare(tb->lexical);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// Stable ORDER BY (ties keep their order): `key(row, k)` is the row's
/// term for the k-th sort key.
template <typename Rows, typename Key>
void SortByKeys(const SelectQuery& query, Rows& rows, const Key& key) {
  if (query.order_by.empty()) return;
  std::stable_sort(rows.begin(), rows.end(), [&](const auto& a,
                                                 const auto& b) {
    for (std::size_t k = 0; k < query.order_by.size(); ++k) {
      const int cmp = CompareOrderTerms(key(a, k), key(b, k));
      if (cmp != 0) return query.order_by[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
}

void ApplyLimitOffset(const SelectQuery& query, ResultSet& result) {
  if (query.offset && *query.offset > 0) {
    if (*query.offset >= result.rows.size()) {
      result.rows.clear();
    } else {
      result.rows.erase(
          result.rows.begin(),
          result.rows.begin() + static_cast<long>(*query.offset));
    }
  }
  if (query.limit && result.rows.size() > *query.limit) {
    result.rows.resize(*query.limit);
  }
}

/// Aggregation path: groups solutions by the GROUP BY variables and
/// evaluates the aggregate projections per group. Groups are emitted in
/// ascending rendered-key order (std::map), matching the original engine.
Result<ResultSet> ExecuteAggregates(const SelectQuery& query,
                                    const TermTable& terms,
                                    const std::vector<Row>& solutions) {
  // Validate: every plain projection must be a GROUP BY variable.
  for (const Projection& p : query.projections) {
    if (p.fn == AggregateFn::kNone &&
        std::find(query.group_by.begin(), query.group_by.end(), p.var) ==
            query.group_by.end()) {
      return InvalidArgumentError("SPARQL: non-aggregated variable ?" + p.var +
                                  " must appear in GROUP BY");
    }
  }

  std::vector<std::uint32_t> group_ids;
  group_ids.reserve(query.group_by.size());
  for (const std::string& var : query.group_by) {
    group_ids.push_back(VarIdOf(query, var).value_or(kNoVarId));
  }

  // Group solutions. With no GROUP BY everything lands in one group.
  auto group_key = [&](const Row& row) {
    std::string key;
    for (const std::uint32_t id : group_ids) {
      const TermId value = RowValue(row, id);
      key += value == kInvalidTermId ? std::string("\x01")
                                     : kb::ToString(terms.Get(value));
      key += '\x02';
    }
    return key;
  };
  std::map<std::string, std::vector<const Row*>> groups;
  for (const Row& row : solutions) {
    groups[group_key(row)].push_back(&row);
  }
  if (groups.empty() && query.group_by.empty()) {
    groups.emplace("", std::vector<const Row*>{});  // COUNT(*) = 0 row
  }

  ResultSet result;
  for (const Projection& p : query.projections) {
    result.variables.push_back(p.alias);
  }
  for (const auto& [key, members] : groups) {
    std::vector<std::optional<Term>> row;
    row.reserve(query.projections.size());
    for (const Projection& p : query.projections) {
      const std::uint32_t var_id =
          p.star ? kNoVarId : VarIdOf(query, p.var).value_or(kNoVarId);
      if (p.fn == AggregateFn::kNone) {
        // Group-by column: take the value from any member (all equal).
        if (members.empty()) {
          row.emplace_back(std::nullopt);
          continue;
        }
        row.push_back(TermAt(*members.front(), var_id, terms));
        continue;
      }
      if (p.fn == AggregateFn::kCount) {
        long long count = 0;
        for (const Row* r : members) {
          if (p.star || RowValue(*r, var_id) != kInvalidTermId) ++count;
        }
        row.emplace_back(MakeIntLiteral(count));
        continue;
      }
      // Numeric folds over bound, numeric values.
      double sum = 0.0;
      double min_v = 0.0;
      double max_v = 0.0;
      std::size_t n = 0;
      for (const Row* r : members) {
        const TermId value_id = RowValue(*r, var_id);
        if (value_id == kInvalidTermId) continue;
        const auto value = NumericValue(terms.Get(value_id));
        if (!value) continue;
        if (n == 0) {
          min_v = max_v = *value;
        } else {
          min_v = std::min(min_v, *value);
          max_v = std::max(max_v, *value);
        }
        sum += *value;
        ++n;
      }
      if (n == 0) {
        row.emplace_back(std::nullopt);  // empty aggregate is unbound
        continue;
      }
      switch (p.fn) {
        case AggregateFn::kSum:
          row.emplace_back(MakeDoubleLiteral(sum));
          break;
        case AggregateFn::kAvg:
          row.emplace_back(MakeDoubleLiteral(sum / static_cast<double>(n)));
          break;
        case AggregateFn::kMin:
          row.emplace_back(MakeDoubleLiteral(min_v));
          break;
        case AggregateFn::kMax:
          row.emplace_back(MakeDoubleLiteral(max_v));
          break;
        default:
          return InternalError("SPARQL: unexpected aggregate");
      }
    }
    result.rows.push_back(std::move(row));
  }

  // ORDER BY over output columns (alias names).
  SortByKeys(query, result.rows,
             [&](const std::vector<std::optional<Term>>& row, std::size_t k) {
               const auto col = result.ColumnOf(query.order_by[k].var);
               return col ? row[*col] : std::optional<Term>{};
             });
  ApplyLimitOffset(query, result);
  return result;
}

Ebv Not(Ebv v) {
  switch (v) {
    case Ebv::kTrue:
      return Ebv::kFalse;
    case Ebv::kFalse:
      return Ebv::kTrue;
    case Ebv::kError:
      return Ebv::kError;
  }
  return Ebv::kError;
}

/// Binds a variable node to `value`; false if the variable already holds a
/// different value.
bool BindIfVar(const PatternNode& node, TermId value, Row& row) {
  const auto* var = std::get_if<Variable>(&node);
  if (var == nullptr) return true;
  if (row[var->id] == kInvalidTermId) {
    row[var->id] = value;
    return true;
  }
  return row[var->id] == value;
}

}  // namespace

void ExtendRow(const TriplePattern& tp, const Triple& t, const Row& row,
               std::vector<Row>& out) {
  Row extended = row;
  if (BindIfVar(tp.s, t.s, extended) && BindIfVar(tp.p, t.p, extended) &&
      BindIfVar(tp.o, t.o, extended)) {
    out.push_back(std::move(extended));
  }
}

Ebv EvalExpr(const Expr& expr, const Row& row, const TermTable& terms) {
  switch (expr.op) {
    case ExprOp::kBound:
      return RowValue(row, expr.var_id) != kInvalidTermId ? Ebv::kTrue
                                                          : Ebv::kFalse;
    case ExprOp::kNot:
      return Not(EvalExpr(*expr.lhs, row, terms));
    case ExprOp::kAnd: {
      const Ebv a = EvalExpr(*expr.lhs, row, terms);
      const Ebv b = EvalExpr(*expr.rhs, row, terms);
      if (a == Ebv::kFalse || b == Ebv::kFalse) return Ebv::kFalse;
      if (a == Ebv::kError || b == Ebv::kError) return Ebv::kError;
      return Ebv::kTrue;
    }
    case ExprOp::kOr: {
      const Ebv a = EvalExpr(*expr.lhs, row, terms);
      const Ebv b = EvalExpr(*expr.rhs, row, terms);
      if (a == Ebv::kTrue || b == Ebv::kTrue) return Ebv::kTrue;
      if (a == Ebv::kError || b == Ebv::kError) return Ebv::kError;
      return Ebv::kFalse;
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return Compare(expr, row, terms);
    case ExprOp::kVar: {
      // Bare variable as boolean: numeric non-zero / non-empty string.
      const auto term = OperandTerm(expr, row, terms);
      if (!term) return Ebv::kError;
      if (const auto num = NumericValue(*term)) {
        return *num != 0.0 ? Ebv::kTrue : Ebv::kFalse;
      }
      return term->lexical.empty() ? Ebv::kFalse : Ebv::kTrue;
    }
    case ExprOp::kLiteral: {
      if (const auto num = NumericValue(expr.literal)) {
        return *num != 0.0 ? Ebv::kTrue : Ebv::kFalse;
      }
      return expr.literal.lexical.empty() ? Ebv::kFalse : Ebv::kTrue;
    }
  }
  return Ebv::kError;
}

Status CheckVarIds(const SelectQuery& query) {
  const std::size_t n = query.var_names.size();
  bool ok = true;
  ForEachPatternVar(query.where, [&](const Variable& v) { ok &= v.id < n; });
  ForEachGroup(query.where, [&](const GroupPattern& g) {
    for (const ExprPtr& filter : g.filters) ok &= IdsInRange(*filter, n);
  });
  if (ok) return Status::Ok();
  return InvalidArgumentError(
      "SPARQL: a variable id is out of range of the query's " +
      std::to_string(query.var_names.size()) + " interned variables");
}

std::optional<std::uint32_t> VarIdOf(const SelectQuery& query,
                                     std::string_view name) {
  for (std::uint32_t i = 0; i < query.var_names.size(); ++i) {
    if (query.var_names[i] == name) return i;
  }
  return std::nullopt;
}

Result<ResultSet> MaterializeResults(const SelectQuery& query,
                                     const TermTable& terms,
                                     std::vector<Row>&& rows) {
  if (query.HasAggregates() || !query.group_by.empty()) {
    return ExecuteAggregates(query, terms, rows);
  }

  // Projection list.
  ResultSet result;
  if (query.variables.empty()) {  // SELECT *
    std::set<std::string> seen;
    ForEachPatternVar(query.where, [&](const Variable& v) {
      if (seen.insert(v.name).second) result.variables.push_back(v.name);
    });
  } else {
    result.variables = query.variables;
  }
  std::vector<std::uint32_t> column_ids;
  column_ids.reserve(result.variables.size());
  for (const std::string& var : result.variables) {
    column_ids.push_back(VarIdOf(query, var).value_or(kNoVarId));
  }

  // ORDER BY over solution variables (they need not be projected).
  std::vector<std::uint32_t> order_ids;
  for (const OrderKey& key : query.order_by) {
    order_ids.push_back(VarIdOf(query, key.var).value_or(kNoVarId));
  }
  SortByKeys(query, rows, [&](const Row& row, std::size_t k) {
    return TermAt(row, order_ids[k], terms);
  });

  // Materialize rows (projection). DISTINCT compares the projected term ids
  // (equivalent to the rendered forms: ids are interned one-to-one).
  std::set<std::vector<TermId>> distinct_seen;
  for (const Row& solution : rows) {
    if (query.distinct) {
      std::vector<TermId> key;
      key.reserve(column_ids.size());
      for (const std::uint32_t id : column_ids) {
        key.push_back(RowValue(solution, id));
      }
      if (!distinct_seen.insert(std::move(key)).second) continue;
    }
    std::vector<std::optional<Term>> row;
    row.reserve(column_ids.size());
    for (const std::uint32_t id : column_ids) {
      row.push_back(TermAt(solution, id, terms));
    }
    result.rows.push_back(std::move(row));
  }

  ApplyLimitOffset(query, result);
  return result;
}

}  // namespace scan::kb::detail
