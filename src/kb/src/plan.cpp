#include "scan/kb/plan.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "scan/kb/query_common.hpp"

namespace scan::kb {

namespace {

using detail::Row;

/// True if the node is a variable currently marked bound.
bool IsBoundVar(const PatternNode& node, const std::vector<bool>& bound) {
  const auto* v = std::get_if<Variable>(&node);
  return v != nullptr && v->id < bound.size() && bound[v->id];
}

void CollectVars(const TriplePattern& tp, std::vector<bool>& bound) {
  for (const PatternNode* node : {&tp.s, &tp.p, &tp.o}) {
    if (const auto* v = std::get_if<Variable>(node)) {
      if (v->id < bound.size()) bound[v->id] = true;
    }
  }
}

/// Resolves the constant positions of a pattern to ids (kInvalidTermId for
/// constants the term table has never seen — such a step matches nothing).
TriplePatternIds ResolveConstants(const TriplePattern& tp,
                                  const TermTable& terms) {
  TriplePatternIds out;
  auto resolve = [&](const PatternNode& node, std::optional<TermId>& slot) {
    if (const auto* term = std::get_if<Term>(&node)) {
      const auto id = terms.Lookup(*term);
      slot = id ? *id : kInvalidTermId;
    }
  };
  resolve(tp.s, out.s);
  resolve(tp.p, out.p);
  resolve(tp.o, out.o);
  return out;
}

bool HasImpossibleConstant(const TriplePatternIds& c) {
  return (c.s && *c.s == kInvalidTermId) || (c.p && *c.p == kInvalidTermId) ||
         (c.o && *c.o == kInvalidTermId);
}

/// Match-count estimate for one step given the simulated bound set and the
/// constant predicates accumulated per subject variable (star context).
template <typename Source>
std::uint64_t EstimateStep(
    const TriplePattern& tp, const TriplePatternIds& constants,
    const std::vector<bool>& bound,
    const std::unordered_map<std::uint32_t, std::vector<TermId>>& star_preds,
    const Source& source) {
  if (HasImpossibleConstant(constants)) return 0;
  std::uint64_t est = source.CountEstimate(constants);

  // Star refinement: (?s, p, ?o) where ?s already carries constant
  // predicates from chosen patterns. CountSubjectsWithPredicates gives the
  // exact number of subjects having the whole predicate set; scale by the
  // average object fan-out of p.
  const auto* s_var = std::get_if<Variable>(&tp.s);
  if (s_var != nullptr && constants.p && !constants.o &&
      std::holds_alternative<Variable>(tp.o)) {
    const auto it = star_preds.find(s_var->id);
    if (it != star_preds.end() && !it->second.empty()) {
      std::vector<TermId> preds = it->second;
      preds.push_back(*constants.p);
      const std::uint64_t star_subjects =
          source.CountSubjectsWithPredicates(preds);
      const std::uint64_t p_subjects = source.CountSubjectsWithPredicates(
          std::span<const TermId>(&*constants.p, 1));
      const std::uint64_t fan_out =
          p_subjects == 0 ? 1 : std::max<std::uint64_t>(1, est / p_subjects);
      est = star_subjects * fan_out;
    }
  }

  // Bound variables narrow the pattern: deflate by the matched dimension's
  // distinct count (a uniformity assumption, only used for ordering).
  const DistinctCounts distinct = source.distinct_counts();
  auto deflate = [&](std::uint64_t dim) {
    if (est > 0) est = std::max<std::uint64_t>(1, est / std::max<std::uint64_t>(1, dim));
  };
  if (IsBoundVar(tp.s, bound)) deflate(distinct.subjects);
  if (IsBoundVar(tp.p, bound)) deflate(distinct.predicates);
  if (IsBoundVar(tp.o, bound)) deflate(distinct.objects);
  return est;
}

JoinStrategy ChooseStrategy(const TriplePattern& tp,
                            const TriplePatternIds& constants,
                            const std::vector<bool>& bound) {
  const bool any_bound_var = IsBoundVar(tp.s, bound) ||
                             IsBoundVar(tp.p, bound) || IsBoundVar(tp.o, bound);
  if (!any_bound_var) return JoinStrategy::kCross;
  if (IsBoundVar(tp.s, bound) && constants.p && constants.o) {
    return JoinStrategy::kMergeFilter;
  }
  return JoinStrategy::kProbe;
}

template <typename Source>
class Executor {
 public:
  Executor(const Source& source, const TermTable& terms)
      : source_(source), terms_(terms) {}

  /// Runs the BGP in planned order over `rows` (the group skeleton's hook).
  void operator()(const std::vector<TriplePattern>& triples,
                  std::vector<bool> bound, std::vector<Row>& rows) const {
    const BgpPlan plan = PlanBgp(triples, std::move(bound), source_, terms_);
    for (const PlanStep& step : plan.steps) {
      if (rows.empty()) return;
      ApplyStep(step, rows);
    }
  }

 private:
  void ApplyStep(const PlanStep& step, std::vector<Row>& rows) const {
    if (HasImpossibleConstant(step.constants)) {
      rows.clear();
      return;
    }
    switch (step.strategy) {
      case JoinStrategy::kCross:
        ApplyCross(step, rows);
        return;
      case JoinStrategy::kMergeFilter:
        ApplyMergeFilter(step, rows);
        return;
      case JoinStrategy::kProbe:
        ApplyProbe(step, rows);
        return;
    }
  }

  /// No bound variables: scan the pattern's matches once, then cross-join
  /// them with every accumulated row (whose bindings are disjoint by
  /// construction; only a variable repeated in the pattern can clash).
  void ApplyCross(const PlanStep& step, std::vector<Row>& rows) const {
    const std::vector<Triple> matches = source_.MatchAll(step.constants);
    std::vector<Row> next;
    next.reserve(rows.size() * matches.size());
    for (const Row& row : rows) {
      for (const Triple& t : matches) {
        detail::ExtendRow(*step.pattern, t, row, next);
      }
    }
    rows = std::move(next);
  }

  /// Merge semi-join: rows sorted by the subject variable, streamed against
  /// the ascending (p, o) posting list in one pass.
  void ApplyMergeFilter(const PlanStep& step, std::vector<Row>& rows) const {
    const auto& var = std::get<Variable>(step.pattern->s);
    const std::uint32_t vid = var.id;
    const TermId p = *step.constants.p;
    const TermId o = *step.constants.o;
    std::stable_sort(rows.begin(), rows.end(),
                     [vid](const Row& a, const Row& b) {
                       return Index(a[vid]) < Index(b[vid]);
                     });
    std::vector<Row> kept;
    std::size_t i = 0;
    source_.SubjectsVisit(p, o, [&](TermId s) {
      while (i < rows.size() && Index(rows[i][vid]) < Index(s)) ++i;
      while (i < rows.size() && rows[i][vid] == s) {
        kept.push_back(std::move(rows[i]));
        ++i;
      }
      return i < rows.size();
    });
    rows = std::move(kept);
  }

  /// General case: per-row index probe with the row's bindings substituted.
  void ApplyProbe(const PlanStep& step, std::vector<Row>& rows) const {
    const TriplePattern& tp = *step.pattern;
    std::vector<Row> next;
    for (const Row& row : rows) {
      TriplePatternIds ids = step.constants;
      auto fill = [&](const PatternNode& node, std::optional<TermId>& slot) {
        if (const auto* v = std::get_if<Variable>(&node)) {
          const TermId value = row[v->id];
          if (value != kInvalidTermId) slot = value;
        }
      };
      fill(tp.s, ids.s);
      fill(tp.p, ids.p);
      fill(tp.o, ids.o);
      source_.Match(ids, [&](const Triple& t) {
        detail::ExtendRow(tp, t, row, next);
        return true;
      });
    }
    rows = std::move(next);
  }

  const Source& source_;
  const TermTable& terms_;
};

}  // namespace

template <typename Source>
BgpPlan PlanBgp(const std::vector<TriplePattern>& triples,
                std::vector<bool> bound, const Source& source,
                const TermTable& terms) {
  BgpPlan plan;
  plan.steps.reserve(triples.size());

  // Grow the bound vector to cover every variable id we may meet (callers
  // normally size it to the query's variable count already).
  for (const TriplePattern& tp : triples) {
    for (const PatternNode* node : {&tp.s, &tp.p, &tp.o}) {
      if (const auto* v = std::get_if<Variable>(node)) {
        if (v->id != kNoVarId && v->id >= bound.size()) {
          bound.resize(v->id + 1, false);
        }
      }
    }
  }

  std::vector<const TriplePattern*> remaining;
  remaining.reserve(triples.size());
  for (const TriplePattern& tp : triples) remaining.push_back(&tp);
  std::vector<TriplePatternIds> constants;
  constants.reserve(triples.size());
  for (const TriplePattern& tp : triples) {
    constants.push_back(ResolveConstants(tp, terms));
  }

  // Constant predicates accumulated per subject variable (star context).
  std::unordered_map<std::uint32_t, std::vector<TermId>> star_preds;

  while (!remaining.empty()) {
    std::size_t best = 0;
    std::uint64_t best_estimate = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      const std::uint64_t est =
          EstimateStep(*remaining[i], constants[i], bound, star_preds, source);
      if (est < best_estimate) {  // ties: keep the earliest (deterministic)
        best_estimate = est;
        best = i;
      }
    }

    PlanStep step;
    step.pattern = remaining[best];
    step.constants = constants[best];
    step.estimate = best_estimate;
    step.strategy = ChooseStrategy(*step.pattern, step.constants, bound);
    plan.steps.push_back(step);

    if (const auto* v = std::get_if<Variable>(&step.pattern->s)) {
      if (step.constants.p && *step.constants.p != kInvalidTermId) {
        star_preds[v->id].push_back(*step.constants.p);
      }
    }
    CollectVars(*step.pattern, bound);
    remaining.erase(remaining.begin() + static_cast<long>(best));
    constants.erase(constants.begin() + static_cast<long>(best));
  }
  return plan;
}

template <typename Source>
Result<ResultSet> ExecuteQuery(const SelectQuery& query, const Source& source,
                               const TermTable& terms) {
  if (Status ids = detail::CheckVarIds(query); !ids.ok()) return ids;
  std::vector<Row> solutions = detail::EvaluateGroup(
      query.where, {Row(query.var_names.size(), kInvalidTermId)}, terms,
      Executor<Source>(source, terms));
  return detail::MaterializeResults(query, terms, std::move(solutions));
}

template BgpPlan PlanBgp(const std::vector<TriplePattern>&, std::vector<bool>,
                         const TripleStore&, const TermTable&);
template BgpPlan PlanBgp(const std::vector<TriplePattern>&, std::vector<bool>,
                         const FrozenIndex&, const TermTable&);
template Result<ResultSet> ExecuteQuery(const SelectQuery&, const TripleStore&,
                                        const TermTable&);
template Result<ResultSet> ExecuteQuery(const SelectQuery&, const FrozenIndex&,
                                        const TermTable&);

Result<ResultSet> QueryEngine::Execute(const SelectQuery& query) const {
  return frozen_ != nullptr ? ExecuteQuery(query, *frozen_, terms_)
                            : ExecuteQuery(query, *store_, terms_);
}

Result<ResultSet> QueryEngine::Execute(std::string_view text) const {
  auto query = ParseSparql(text);
  if (!query.ok()) return query.status();
  return Execute(query.value());
}

}  // namespace scan::kb
