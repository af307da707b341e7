#include "scan/testkit/kb_oracle.hpp"

#include <limits>
#include <string>
#include <vector>

#include "scan/common/str.hpp"
#include "scan/kb/query_common.hpp"

namespace scan::testkit {

namespace {

using namespace kb;
using detail::Row;

/// The greedy BGP evaluator: runs the pattern with the most bound positions
/// next (constants and already-bound variables count; ties keep source
/// order), extending every row by a fresh TripleStore::Match.
class GreedyBgp {
 public:
  explicit GreedyBgp(const TripleStore& store) : store_(store) {}

  void operator()(const std::vector<TriplePattern>& triples,
                  std::vector<bool> bound, std::vector<Row>& rows) const {
    std::vector<const TriplePattern*> remaining;
    remaining.reserve(triples.size());
    for (const auto& tp : triples) remaining.push_back(&tp);
    while (!remaining.empty() && !rows.empty()) {
      std::size_t best = 0;
      int best_score = -1;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        const int score = BoundScore(*remaining[i], bound);
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      const TriplePattern& tp = *remaining[best];
      remaining.erase(remaining.begin() + static_cast<long>(best));

      std::vector<Row> next;
      for (const Row& row : rows) ExtendWithPattern(tp, row, next);
      rows = std::move(next);
      for (const PatternNode* node : {&tp.s, &tp.p, &tp.o}) {
        if (const auto* v = std::get_if<Variable>(node)) bound[v->id] = true;
      }
    }
  }

 private:
  static int BoundScore(const TriplePattern& tp,
                        const std::vector<bool>& bound) {
    auto node_bound = [&](const PatternNode& node) {
      if (std::holds_alternative<Term>(node)) return 2;  // constant: best
      return bound[std::get<Variable>(node).id] ? 2 : 0;
    };
    return node_bound(tp.s) + node_bound(tp.p) + node_bound(tp.o);
  }

  /// Resolves a pattern node under a row: a concrete id, or nullopt for a
  /// still-free variable. Constants not present in the store resolve to
  /// kInvalidTermId, which matches nothing.
  std::optional<TermId> Resolve(const PatternNode& node, const Row& row) const {
    if (const auto* term = std::get_if<Term>(&node)) {
      const auto id = store_.terms().Lookup(*term);
      return id ? *id : kInvalidTermId;
    }
    const TermId value = row[std::get<Variable>(node).id];
    if (value == kInvalidTermId) return std::nullopt;
    return value;
  }

  void ExtendWithPattern(const TriplePattern& tp, const Row& row,
                         std::vector<Row>& out) const {
    const auto s = Resolve(tp.s, row);
    const auto p = Resolve(tp.p, row);
    const auto o = Resolve(tp.o, row);
    // A constant term absent from the store can never match.
    if ((s && *s == kInvalidTermId) || (p && *p == kInvalidTermId) ||
        (o && *o == kInvalidTermId)) {
      return;
    }
    store_.Match(TriplePatternIds{s, p, o}, [&](const Triple& t) {
      detail::ExtendRow(tp, t, row, out);
      return true;
    });
  }

  const TripleStore& store_;
};

}  // namespace

Result<kb::ResultSet> OracleQuery(const kb::TripleStore& store,
                                  const kb::SelectQuery& query) {
  if (Status ids = detail::CheckVarIds(query); !ids.ok()) return ids;
  std::vector<Row> solutions = detail::EvaluateGroup(
      query.where, {Row(query.var_names.size(), kInvalidTermId)},
      store.terms(), GreedyBgp(store));
  return detail::MaterializeResults(query, store.terms(),
                                    std::move(solutions));
}

Result<kb::ResultSet> OracleQuery(const kb::TripleStore& store,
                                  std::string_view text) {
  auto query = ParseSparql(text);
  if (!query.ok()) return query.status();
  return OracleQuery(store, query.value());
}

std::string OracleAdviceQuery(std::string_view application, double min_gb,
                              double max_gb) {
  // OPTIONAL blocks tolerate profiles missing CPU/RAM attributes.
  return KnowledgeBase::QueryPrefixes() +
         StrFormat(
             "SELECT ?ind ?size ?etime ?cpu ?ram WHERE {\n"
             "  ?ind a scan:Application .\n"
             "  ?ind scan:application \"%s\" .\n"
             "  ?ind scan:inputFileSize ?size .\n"
             "  ?ind scan:eTime ?etime .\n"
             "  OPTIONAL { ?ind scan:CPU ?cpu . }\n"
             "  OPTIONAL { ?ind scan:RAM ?ram . }\n"
             "  FILTER(?size >= %.17g && ?size <= %.17g && ?etime > 0)\n"
             "} ORDER BY ASC(?etime)",
             std::string(application).c_str(), min_gb, max_gb);
}

Result<kb::ShardAdvice> OracleAdviseShardSize(const kb::TripleStore& store,
                                              std::string_view application,
                                              double min_gb, double max_gb) {
  if (min_gb < 0.0 || max_gb < min_gb) {
    return InvalidArgumentError("AdviseShardSize: bad size bounds");
  }
  auto result =
      OracleQuery(store, OracleAdviceQuery(application, min_gb, max_gb));
  if (!result.ok()) return result.status();

  const auto& rs = result.value();
  const auto ind_col = rs.ColumnOf("ind");
  const auto size_col = rs.ColumnOf("size");
  const auto etime_col = rs.ColumnOf("etime");
  const auto cpu_col = rs.ColumnOf("cpu");
  const auto ram_col = rs.ColumnOf("ram");
  if (!ind_col || !size_col || !etime_col) {
    return InternalError("AdviseShardSize: projection mismatch");
  }

  ShardAdvice best;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& row : rs.rows) {
    const auto size = NumericValue(*row[*size_col]);
    const auto etime = NumericValue(*row[*etime_col]);
    if (!size || !etime || *size <= 0.0) continue;
    const double score = *etime / *size;
    if (score < best_score) {
      best_score = score;
      best.shard_size_gb = *size;
      best.time_per_gb = score;
      const std::string& iri = row[*ind_col]->lexical;
      const std::size_t hash_pos = iri.rfind('#');
      best.source_individual =
          hash_pos == std::string::npos ? iri : iri.substr(hash_pos + 1);
      best.recommended_cpu =
          (cpu_col && row[*cpu_col])
              ? static_cast<int>(NumericValue(*row[*cpu_col]).value_or(0.0))
              : 0;
      best.recommended_ram_gb =
          (ram_col && row[*ram_col])
              ? NumericValue(*row[*ram_col]).value_or(0.0)
              : 0.0;
    }
  }
  if (best_score == std::numeric_limits<double>::infinity()) {
    return NotFoundError("AdviseShardSize: no profile for application '" +
                         std::string(application) + "' within bounds");
  }
  return best;
}

}  // namespace scan::testkit
