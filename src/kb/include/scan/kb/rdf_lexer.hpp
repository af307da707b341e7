#pragma once

// The one lexer under the knowledge base's two RDF syntaxes.
//
// SPARQL queries (sparql.hpp) and Turtle documents (turtle.hpp) spell RDF
// terms the same way, so one pull lexer tokenizes both and one TermReader
// turns a term token into a Term. Each parser keeps only its own grammar.
//
// The one rule, for both languages:
//   - `<` opens an IRI only when the text up to the next `>` holds no
//     whitespace (RDF's IRIREF); otherwise it is the `<` or `<=` operator.
//   - A prefixed name is `pfx:local`; either part may be empty and both may
//     hold interior dots (`ex:a.b`).
//   - A string is `"..."` or `'...'` with the escapes \t \n \r \" \' \\,
//     directly followed by nothing, by `^^` and a datatype IRI or prefixed
//     name, or by `@` and a non-empty language tag (the tag is dropped: the
//     literal is stored plain, as Turtle always stored it).
//   - A number is an optional sign, digits, an optional `.digits` fraction
//     and an optional `e[+-]digits` exponent; a fraction or exponent makes
//     it an xsd:double, else it is an xsd:integer. The lexical form is kept
//     as written. An integer must fit in int64 and a double must be finite.
//   - `true` and `false` are plain literals; `a` is rdf:type, and only as a
//     whole word in predicate position; `_:label` is a blank node; `?v` and
//     `$v` are variables.
//   - SPARQL keywords match in any case; `a`, `true`, `false` and
//     `@prefix` match exactly.
//   - Whitespace and `#` comments (to the end of the line) separate tokens.
// A construct only one grammar has is a located error in the other:
// variables in Turtle, blank nodes in SPARQL patterns.
//
// Located errors: every ParseError from either parser ends in
// "at line L, column C", naming the first character of the offending token
// (1-based; columns count bytes; the end of the input is the position just
// past its last character).

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "scan/common/status.hpp"
#include "scan/kb/term.hpp"

namespace scan::kb {

// The token table: one X(kind, spelling) row per fixed spelling.
// Punctuation is tried in row order, so a spelling precedes any shorter
// spelling it begins with. Keywords match in any case; words exactly.
#define SCAN_RDF_PUNCTUATION(X)                                       \
  X(kLBrace, "{") X(kRBrace, "}") X(kLParen, "(") X(kRParen, ")")     \
  X(kDot, ".") X(kSemicolon, ";") X(kComma, ",") X(kStar, "*")        \
  X(kNotEqual, "!=") X(kBang, "!") X(kEqual, "=") X(kLessEqual, "<=") \
  X(kLess, "<") X(kGreaterEqual, ">=") X(kGreater, ">")               \
  X(kAndAnd, "&&") X(kOrOr, "||")
#define SCAN_RDF_KEYWORDS(X)                                           \
  X(kPrefix, "PREFIX") X(kSelect, "SELECT") X(kDistinct, "DISTINCT")   \
  X(kFrom, "FROM") X(kWhere, "WHERE") X(kFilter, "FILTER")             \
  X(kOptional, "OPTIONAL") X(kUnion, "UNION") X(kBound, "BOUND")       \
  X(kAs, "AS") X(kCount, "COUNT") X(kSum, "SUM") X(kAvg, "AVG")        \
  X(kMin, "MIN") X(kMax, "MAX") X(kGroup, "GROUP") X(kOrder, "ORDER")  \
  X(kBy, "BY") X(kAsc, "ASC") X(kDesc, "DESC") X(kLimit, "LIMIT")      \
  X(kOffset, "OFFSET")
#define SCAN_RDF_WORDS(X) \
  X(kA, "a") X(kTrue, "true") X(kFalse, "false") X(kAtPrefix, "@prefix")

enum class RdfTok : std::uint8_t {
  kEof,
  kError,         ///< the text cannot be a token; `error` says why
  kVariable,      ///< ?name or $name
  kIri,           ///< <iri>
  kPrefixedName,  ///< pfx:local
  kBlank,         ///< _:label
  kString,        ///< a quoted literal, maybe ^^typed or @tagged
  kInteger,
  kDouble,
#define SCAN_RDF_TOKEN_ENUM(kind, spelling) kind,
  SCAN_RDF_PUNCTUATION(SCAN_RDF_TOKEN_ENUM)
  SCAN_RDF_KEYWORDS(SCAN_RDF_TOKEN_ENUM)
  SCAN_RDF_WORDS(SCAN_RDF_TOKEN_ENUM)
#undef SCAN_RDF_TOKEN_ENUM
};

/// Every fixed spelling in the token table, in table order.
[[nodiscard]] std::span<const std::string_view> RdfTokenSpellings();

struct RdfToken {
  RdfTok kind = RdfTok::kEof;
  /// A view into the input: the IRI between its brackets, a variable name
  /// or blank-node label without its sigil, a string body between its
  /// quotes (escapes still encoded), and every other token as written.
  std::string_view text;
  /// kString only: the `^^` datatype as written (`<iri>` or a prefixed
  /// name), or empty.
  std::string_view datatype;
  /// kError only: what is wrong.
  std::string_view error;
  std::size_t line = 1;
  std::size_t column = 1;
};

/// Hand-written pull lexer over the text (which must outlive it). Never
/// throws and never allocates. After a kError token the caller stops.
class RdfLexer {
 public:
  explicit RdfLexer(std::string_view text) : text_(text) {}

  /// The next token; kEof forever once the text is exhausted.
  [[nodiscard]] RdfToken Next();

 private:
  [[nodiscard]] char At(std::size_t i) const {
    return i < text_.size() ? text_[i] : '\0';
  }
  /// Moves to offset `end`, keeping the line and column current.
  void MoveTo(std::size_t end);
  void SkipTrivia();
  /// With `<` at `i`: the offset of the `>` that closes an IRI, or npos
  /// when whitespace or the end of the text comes first.
  [[nodiscard]] std::size_t IriEnd(std::size_t i);
  /// Makes `token` a `kind` spelling text_[begin, end) and moves to `next`.
  RdfToken Emit(RdfToken token, RdfTok kind, std::size_t begin,
                std::size_t end, std::size_t next);
  static RdfToken Fail(RdfToken token, std::string_view why);
  RdfToken LexString(RdfToken token);
  RdfToken LexNumber(RdfToken token);
  RdfToken LexWord(RdfToken token);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 1;
  // Scan memos that keep lexing linear: no IRI opens at a '<' before
  // no_iri_before_, and no prefixed name starts before no_prefix_before_.
  std::size_t no_iri_before_ = 0;
  std::size_t no_prefix_before_ = 0;
};

/// "<what> at line L, column C" as a ParseError, located at `at`'s first
/// character. A kError token reports the lexer's own reason instead.
[[nodiscard]] Status RdfError(const RdfToken& at, std::string_view what);

/// How a token reads in a message: its spelling, quoted, or a name such as
/// "end of input".
[[nodiscard]] std::string DescribeToken(const RdfToken& token);

/// One token of lookahead over the lexer, as both parsers read it. A
/// kError token never matches, so it is never consumed, and the first error
/// a grammar reports at it carries the lexer's reason.
class RdfCursor {
 public:
  explicit RdfCursor(std::string_view text)
      : lexer_(text), tok_(lexer_.Next()) {}

  [[nodiscard]] const RdfToken& tok() const { return tok_; }
  [[nodiscard]] bool Is(RdfTok kind) const { return tok_.kind == kind; }
  void Next() { tok_ = lexer_.Next(); }
  /// Consumes the current token if it is a `kind`.
  bool Accept(RdfTok kind) {
    if (!Is(kind)) return false;
    Next();
    return true;
  }
  /// A ParseError located at the current token.
  [[nodiscard]] Status Err(std::string_view what) const {
    return RdfError(tok_, what);
  }

 private:
  RdfLexer lexer_;
  RdfToken tok_;
};

/// Turns term tokens into Terms: resolves prefixed names against the
/// declared prefixes, maps `a` to rdf:type, and types literals.
class TermReader {
 public:
  /// Where a term stands in a triple. Only objects may be literals, and
  /// only predicates may be `a`; FILTER operands read as objects.
  enum class Slot : std::uint8_t { kSubject, kPredicate, kObject };

  /// Declares `prefix:` to expand to `iri` (a later declaration wins).
  void Declare(std::string_view prefix, std::string_view iri);

  /// The term `token` spells in `slot`, or a located ParseError.
  [[nodiscard]] Result<Term> Read(const RdfToken& token, Slot slot) const;

 private:
  [[nodiscard]] Result<std::string> Expand(const RdfToken& at,
                                           std::string_view name) const;
  [[nodiscard]] Result<Term> ReadLiteral(const RdfToken& token) const;

  std::map<std::string, std::string, std::less<>> prefixes_;
};

}  // namespace scan::kb
