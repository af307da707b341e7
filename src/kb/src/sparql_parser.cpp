#include <algorithm>
#include <charconv>
#include <map>
#include <optional>

#include "scan/kb/rdf_lexer.hpp"
#include "scan/kb/sparql.hpp"

namespace scan::kb {

namespace {

using Slot = TermReader::Slot;

/// A FILTER subtree and its height in nodes.
struct Sub {
  ExprPtr expr;
  std::size_t height = 0;
};

std::optional<AggregateFn> AggregateOf(RdfTok kind) {
  switch (kind) {
    case RdfTok::kCount: return AggregateFn::kCount;
    case RdfTok::kSum: return AggregateFn::kSum;
    case RdfTok::kAvg: return AggregateFn::kAvg;
    case RdfTok::kMin: return AggregateFn::kMin;
    case RdfTok::kMax: return AggregateFn::kMax;
    default: return std::nullopt;
  }
}

std::optional<ExprOp> ComparisonOf(RdfTok kind) {
  switch (kind) {
    case RdfTok::kEqual: return ExprOp::kEq;
    case RdfTok::kNotEqual: return ExprOp::kNe;
    case RdfTok::kLess: return ExprOp::kLt;
    case RdfTok::kLessEqual: return ExprOp::kLe;
    case RdfTok::kGreater: return ExprOp::kGt;
    case RdfTok::kGreaterEqual: return ExprOp::kGe;
    default: return std::nullopt;
  }
}

/// Recursive-descent parser over the shared RDF lexer.
class Parser : RdfCursor {
 public:
  explicit Parser(std::string_view text) : RdfCursor(text) {}

  Result<SelectQuery> Run() {
    SelectQuery query;
    while (Accept(RdfTok::kPrefix)) SCAN_RETURN_IF_ERROR(ParsePrefixDecl());
    if (!Accept(RdfTok::kSelect)) return Err("expected SELECT");
    query.distinct = Accept(RdfTok::kDistinct);
    if (!Accept(RdfTok::kStar)) {
      for (;;) {
        if (Is(RdfTok::kVariable)) {
          Projection projection;
          projection.var = std::string(tok().text);
          projection.alias = projection.var;
          query.variables.push_back(projection.var);
          query.projections.push_back(std::move(projection));
          Next();
          continue;
        }
        if (Is(RdfTok::kLParen)) {
          auto aggregate = ParseAggregateProjection();
          if (!aggregate.ok()) return aggregate.status();
          query.variables.push_back(aggregate->alias);
          query.projections.push_back(std::move(aggregate.value()));
          continue;
        }
        break;
      }
      if (query.projections.empty()) return Err("expected variables or *");
    }
    // FROM <...> clauses are accepted and ignored (the engine queries the
    // single default graph; the paper's example uses FROM <scan-wxing.owl>).
    while (Accept(RdfTok::kFrom)) {
      if (!Accept(RdfTok::kIri)) return Err("expected IRI after FROM");
    }
    Accept(RdfTok::kWhere);
    auto group = ParseGroup();
    if (!group.ok()) return group.status();
    query.where = std::move(group.value());

    if (Accept(RdfTok::kGroup)) {
      if (!Accept(RdfTok::kBy)) return Err("expected BY after GROUP");
      while (Is(RdfTok::kVariable)) {
        query.group_by.emplace_back(tok().text);
        Next();
      }
      if (query.group_by.empty()) return Err("empty GROUP BY");
    }
    if (Accept(RdfTok::kOrder)) {
      if (!Accept(RdfTok::kBy)) return Err("expected BY after ORDER");
      while (Is(RdfTok::kAsc) || Is(RdfTok::kDesc) || Is(RdfTok::kVariable)) {
        OrderKey key;
        if (Is(RdfTok::kVariable)) {
          key.var = std::string(tok().text);
          Next();
        } else {
          key.ascending = Is(RdfTok::kAsc);
          Next();
          if (!Accept(RdfTok::kLParen)) return Err("expected ( after ASC/DESC");
          if (!Is(RdfTok::kVariable)) return Err("expected ORDER BY variable");
          key.var = std::string(tok().text);
          Next();
          if (!Accept(RdfTok::kRParen)) return Err("expected ) in ORDER BY");
        }
        query.order_by.push_back(std::move(key));
      }
      if (query.order_by.empty()) return Err("empty ORDER BY");
    }
    if (Accept(RdfTok::kLimit)) {
      auto limit = ParseCount("LIMIT");
      if (!limit.ok()) return limit.status();
      query.limit = *limit;
    }
    if (Accept(RdfTok::kOffset)) {
      auto offset = ParseCount("OFFSET");
      if (!offset.ok()) return offset.status();
      query.offset = *offset;
    }
    if (!Is(RdfTok::kEof)) return Err("trailing " + DescribeToken(tok()));
    query.var_names = std::move(var_names_);
    return query;
  }

 private:
  /// One more level of nesting (a group, a parenthesis, a `!`) for the
  /// life of the guard.
  struct Nest {
    explicit Nest(std::size_t& d) : depth(d) { ++depth; }
    ~Nest() { --depth; }
    std::size_t& depth;
  };

  [[nodiscard]] Status TooDeep() const {
    return Err("query nests deeper than the limit of " +
               std::to_string(kMaxSparqlDepth) + " levels");
  }

  /// Interns a variable name to its dense id (satellite of the flat-row
  /// engines: a solution row is vector<TermId> indexed by these ids).
  std::uint32_t InternVar(std::string_view name) {
    const auto it = var_ids_.find(name);
    if (it != var_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(var_names_.size());
    var_names_.emplace_back(name);
    var_ids_.emplace(name, id);
    return id;
  }

  /// The LIMIT / OFFSET operand: an unsigned decimal integer that fits in
  /// size_t.
  Result<std::size_t> ParseCount(std::string_view clause) {
    const auto fail = [&] {
      return Err(std::string(clause) +
                 " takes an unsigned integer that fits in 64 bits");
    };
    if (!Is(RdfTok::kInteger)) return fail();
    std::size_t count = 0;
    const char* end = tok().text.data() + tok().text.size();
    const auto [ptr, ec] = std::from_chars(tok().text.data(), end, count);
    if (ec != std::errc{} || ptr != end) return fail();  // a sign, overflow
    Next();
    return count;
  }

  /// Parses "( FN(?v | *) AS ?alias )" after the opening '(' is current.
  Result<Projection> ParseAggregateProjection() {
    Next();  // consume '('
    const auto fn = AggregateOf(tok().kind);
    if (!fn) return Err("expected aggregate function (COUNT/SUM/AVG/MIN/MAX)");
    Projection projection;
    projection.fn = *fn;
    Next();
    if (!Accept(RdfTok::kLParen)) return Err("expected '(' after function");
    if (Is(RdfTok::kStar)) {
      if (projection.fn != AggregateFn::kCount) return Err("only COUNT(*)");
      projection.star = true;
      Next();
    } else if (Is(RdfTok::kVariable)) {
      projection.var = std::string(tok().text);
      Next();
    } else {
      return Err("expected variable or * inside aggregate");
    }
    if (!Accept(RdfTok::kRParen)) return Err("expected ')' after argument");
    if (!Accept(RdfTok::kAs)) return Err("expected AS in aggregate projection");
    if (!Is(RdfTok::kVariable)) return Err("expected alias variable after AS");
    projection.alias = std::string(tok().text);
    Next();
    if (!Accept(RdfTok::kRParen)) return Err("expected ')' after alias");
    return projection;
  }

  /// `PREFIX pfx: <iri>`; any local part after the colon is ignored.
  Status ParsePrefixDecl() {
    if (!Is(RdfTok::kPrefixedName)) return Err("expected 'prefix:' in PREFIX");
    const std::string_view name = tok().text;
    Next();
    if (!Is(RdfTok::kIri)) return Err("expected IRI in PREFIX");
    reader_.Declare(name.substr(0, name.find(':')), tok().text);
    Next();
    return Status::Ok();
  }

  Result<PatternNode> ParseNode(Slot slot) {
    if (Is(RdfTok::kVariable)) {
      Variable v{std::string(tok().text), InternVar(tok().text)};
      Next();
      return PatternNode{std::move(v)};
    }
    if (Is(RdfTok::kBlank)) return Err("blank nodes are Turtle only");
    auto term = reader_.Read(tok(), slot);
    if (!term.ok()) return term.status();
    Next();
    return PatternNode{std::move(term.value())};
  }

  Result<GroupPattern> ParseGroup() {
    const Nest nest(depth_);
    if (depth_ > kMaxSparqlDepth) return TooDeep();
    if (!Accept(RdfTok::kLBrace)) return Err("expected '{'");
    GroupPattern group;
    for (;;) {
      if (Accept(RdfTok::kRBrace)) return group;
      if (Is(RdfTok::kEof)) return Err("unterminated group");
      if (Accept(RdfTok::kFilter)) {
        if (!Is(RdfTok::kLParen)) return Err("expected '(' after FILTER");
        auto expr = ParseBracketed();
        if (!expr.ok()) return expr.status();
        group.filters.push_back(std::move(expr->expr));
      } else if (Accept(RdfTok::kOptional)) {
        auto inner = ParseGroup();
        if (!inner.ok()) return inner.status();
        group.optionals.push_back(std::move(inner.value()));
      } else if (Is(RdfTok::kLBrace)) {
        // `{A} UNION {B} [UNION {C} ...]` alternation.
        std::vector<GroupPattern> branches;
        do {
          auto branch = ParseGroup();
          if (!branch.ok()) return branch.status();
          branches.push_back(std::move(branch.value()));
        } while (Accept(RdfTok::kUnion));
        if (branches.size() < 2) return Err("expected UNION after group");
        group.unions.push_back(std::move(branches));
      } else {
        SCAN_RETURN_IF_ERROR(ParseTriples(group));
      }
      Accept(RdfTok::kDot);
    }
  }

  /// A triple pattern with the `;` and `,` shorthands.
  Status ParseTriples(GroupPattern& group) {
    auto subject = ParseNode(Slot::kSubject);
    if (!subject.ok()) return subject.status();
    for (;;) {
      auto predicate = ParseNode(Slot::kPredicate);
      if (!predicate.ok()) return predicate.status();
      do {
        auto object = ParseNode(Slot::kObject);
        if (!object.ok()) return object.status();
        group.triples.push_back(TriplePattern{
            subject.value(), predicate.value(), std::move(object.value())});
      } while (Accept(RdfTok::kComma));
      if (!Accept(RdfTok::kSemicolon)) return Status::Ok();
      // Tolerate a trailing `;`.
      if (Is(RdfTok::kDot) || Is(RdfTok::kRBrace)) return Status::Ok();
    }
  }

  /// Makes `lhs op rhs` (rhs empty for `!`) in place of lhs; the new node
  /// is one level taller than its taller child.
  Status Join(ExprOp op, Sub& lhs, Sub rhs) {
    const std::size_t height = 1 + std::max(lhs.height, rhs.height);
    if (depth_ + height > kMaxSparqlDepth) return TooDeep();
    auto node = std::make_unique<Expr>();
    node->op = op;
    node->lhs = std::move(lhs.expr);
    node->rhs = std::move(rhs.expr);
    lhs = Sub{std::move(node), height};
    return Status::Ok();
  }

  /// `( expr )` with '(' current: one level of nesting, no node of its own.
  Result<Sub> ParseBracketed() {
    const Nest nest(depth_);
    if (depth_ > kMaxSparqlDepth) return TooDeep();
    Next();
    auto inner = ParseOr();
    if (!inner.ok()) return inner.status();
    if (!Accept(RdfTok::kRParen)) return Err("expected ')'");
    return inner;
  }

  /// `operand (op operand)*`, left-associative: every link makes the chain
  /// one level taller.
  Result<Sub> ParseChain(RdfTok op_token, ExprOp op,
                         Result<Sub> (Parser::*operand)()) {
    auto chain = (this->*operand)();
    if (!chain.ok()) return chain;
    while (Accept(op_token)) {
      auto rhs = (this->*operand)();
      if (!rhs.ok()) return rhs;
      SCAN_RETURN_IF_ERROR(Join(op, chain.value(), std::move(rhs.value())));
    }
    return chain;
  }

  Result<Sub> ParseOr() {
    return ParseChain(RdfTok::kOrOr, ExprOp::kOr, &Parser::ParseAnd);
  }

  Result<Sub> ParseAnd() {
    return ParseChain(RdfTok::kAndAnd, ExprOp::kAnd, &Parser::ParseUnary);
  }

  Result<Sub> ParseUnary() {
    if (!Is(RdfTok::kBang)) return ParseComparison();
    const Nest nest(depth_);
    if (depth_ > kMaxSparqlDepth) return TooDeep();
    Next();
    auto operand = ParseUnary();
    if (!operand.ok()) return operand;
    SCAN_RETURN_IF_ERROR(Join(ExprOp::kNot, operand.value(), Sub{}));
    return operand;
  }

  Result<Sub> ParseComparison() {
    if (Is(RdfTok::kLParen)) return ParseBracketed();
    if (Accept(RdfTok::kBound)) {
      if (!Accept(RdfTok::kLParen)) return Err("expected '(' after BOUND");
      if (!Is(RdfTok::kVariable)) return Err("expected variable in BOUND");
      Sub bound = VariableExpr(ExprOp::kBound);
      if (!Accept(RdfTok::kRParen)) return Err("expected ')' after BOUND");
      return bound;
    }
    auto lhs = ParseOperand();
    if (!lhs.ok()) return lhs;
    const auto op = ComparisonOf(tok().kind);
    if (!op) return lhs;
    Next();
    auto rhs = ParseOperand();
    if (!rhs.ok()) return rhs;
    SCAN_RETURN_IF_ERROR(Join(*op, lhs.value(), std::move(rhs.value())));
    return lhs;
  }

  /// A `kVar` / `kBound` leaf for the current variable token, consumed.
  Sub VariableExpr(ExprOp op) {
    auto node = std::make_unique<Expr>();
    node->op = op;
    node->var = std::string(tok().text);
    node->var_id = InternVar(tok().text);
    Next();
    return Sub{std::move(node), 1};
  }

  /// A variable or a term in the object slot.
  Result<Sub> ParseOperand() {
    if (Is(RdfTok::kVariable)) return VariableExpr(ExprOp::kVar);
    auto term = ParseNode(Slot::kObject);
    if (!term.ok()) return term.status();
    auto node = std::make_unique<Expr>();
    node->op = ExprOp::kLiteral;
    node->literal = std::get<Term>(std::move(term.value()));
    return Sub{std::move(node), 1};
  }

  TermReader reader_;
  std::size_t depth_ = 0;
  std::vector<std::string> var_names_;
  std::map<std::string, std::uint32_t, std::less<>> var_ids_;
};

}  // namespace

Result<SelectQuery> ParseSparql(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace scan::kb
