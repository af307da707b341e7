// SPARQL and Turtle read RDF terms through one lexer and one term reader,
// so a term spelling must mean the same Term in both, and a spelling
// either grammar rejects must be rejected at the same located token.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "scan/kb/rdf_lexer.hpp"
#include "scan/kb/sparql.hpp"
#include "scan/kb/turtle.hpp"

namespace scan::kb {
namespace {

// Both wrappers put the spelling under test at line 3, column 20.
constexpr std::string_view kSparqlHead =
    "PREFIX ex: <http://e/>\n"
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
    "SELECT * { ?s ex:p ";
constexpr std::string_view kTurtleHead =
    "@prefix ex: <http://e/> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
    "ex:s ex:p          ";
constexpr std::string_view kWhere = "at line 3, column 20";

/// The object the spelling reads as in a SPARQL pattern, or the error.
Result<Term> SparqlObject(std::string_view spelling) {
  auto query = ParseSparql(std::string(kSparqlHead) + std::string(spelling) +
                           " }");
  if (!query.ok()) return query.status();
  const PatternNode& object = query->where.triples.at(0).o;
  if (!std::holds_alternative<Term>(object)) {
    return InvalidArgumentError("not a term");
  }
  return std::get<Term>(object);
}

/// The object the spelling reads as in a Turtle statement, or the error.
Result<Term> TurtleObject(std::string_view spelling) {
  TripleStore store;
  const Status status = ParseTurtle(
      std::string(kTurtleHead) + std::string(spelling) + " .", store);
  if (!status.ok()) return status;
  const auto triples = store.MatchAll({});
  if (triples.size() != 1) return InternalError("expected one triple");
  return store.terms().Get(triples[0].o);
}

Term Literal(std::string lexical, std::string_view datatype = "") {
  return Term{TermKind::kLiteral, std::move(lexical), std::string(datatype)};
}

Term Integer(std::string lexical) {
  return Literal(std::move(lexical), kXsdInteger);
}

Term Double(std::string lexical) {
  return Literal(std::move(lexical), kXsdDouble);
}

enum class Admits { kBoth, kTurtleOnly };

struct Spelled {
  std::string_view text;
  /// The Term the spelling reads as, or nullopt for a located error.
  std::optional<Term> term;
  Admits admits = Admits::kBoth;
};

void ExpectLocatedError(const Result<Term>& read, const char* grammar,
                        std::string_view spelling) {
  ASSERT_FALSE(read.ok()) << grammar << " accepted " << spelling;
  const Status status = read.status();
  EXPECT_EQ(status.code(), ErrorCode::kParseError);
  EXPECT_TRUE(status.message().ends_with(kWhere))
      << grammar << " on " << spelling << ": " << status.message();
}

TEST(RdfSyntaxAgreementTest, OneSpellingOneTermInBothGrammars) {
  const Spelled cases[] = {
      // Strings: either quote, every escape.
      {R"("double")", Literal("double")},
      {R"('single')", Literal("single")},
      {R"("a\rb")", Literal("a\rb")},
      {R"("a\'b")", Literal("a'b")},
      {R"('a\"b')", Literal("a\"b")},
      {R"("t\tn\nr\rq\"a\'b\\")", Literal("t\tn\nr\rq\"a'b\\")},
      {"\"raw\nnewline\"", Literal("raw\nnewline")},
      {R"("")", Literal("")},
      {R"("a\qb")", std::nullopt},
      {R"("open)", std::nullopt},
      {R"("dangling\)", std::nullopt},
      // Typed and language-tagged literals: the tag is dropped.
      {R"("7"^^xsd:integer)", Literal("7", kXsdInteger)},
      {R"("x"^^<http://e/dt>)", Literal("x", "http://e/dt")},
      {R"('x'^^ex:dt)", Literal("x", "http://e/dt")},
      {R"("x"@en)", Literal("x")},
      {R"("x"@en-GB)", Literal("x")},
      {R"("x"@)", std::nullopt},
      {R"("x"^^)", std::nullopt},
      {R"("x"^^nope:dt)", std::nullopt},
      {R"("x"^^<a b>)", std::nullopt},
      // Numbers: optional sign, lexical form kept, int64 and finite.
      {"5", Integer("5")},
      {"+5", Integer("+5")},
      {"-7", Integer("-7")},
      {"007", Integer("007")},
      {"9223372036854775807", Integer("9223372036854775807")},
      {"-9223372036854775808", Integer("-9223372036854775808")},
      {"9223372036854775808", std::nullopt},
      {"99999999999999999999", std::nullopt},
      {"2.5", Double("2.5")},
      {"-0.5", Double("-0.5")},
      {"1e3", Double("1e3")},
      {"+2.5E-3", Double("+2.5E-3")},
      {"1e999", std::nullopt},
      {"1e", std::nullopt},
      {"1e+", std::nullopt},
      // Booleans are plain literals.
      {"true", Literal("true")},
      {"false", Literal("false")},
      {"TRUE", std::nullopt},
      // IRIs: no whitespace up to the closing '>'.
      {"<http://x/y>", MakeIri("http://x/y")},
      {"<a<b>", MakeIri("a<b")},
      {"<a b>", std::nullopt},
      {"<http://open", std::nullopt},
      // Prefixed names, interior dots included.
      {"ex:o", MakeIri("http://e/o")},
      {"ex:a.b", MakeIri("http://e/a.b")},
      {"ex:", MakeIri("http://e/")},
      {"nope:o", std::nullopt},
      // `a` is rdf:type only as a predicate.
      {"a", std::nullopt},
      // Comments separate tokens.
      {"#note\n  5", Integer("5")},
      // Blank nodes are Turtle only.
      {"_:b1", MakeBlank("b1"), Admits::kTurtleOnly},
      {"_:", std::nullopt},
      // Spellings no grammar gives meaning to.
      {"@en", std::nullopt},
      {"^", std::nullopt},
      {"word", std::nullopt},
      {"-", std::nullopt},
  };
  for (const Spelled& c : cases) {
    SCOPED_TRACE(std::string(c.text));
    const Result<Term> sparql = SparqlObject(c.text);
    const Result<Term> turtle = TurtleObject(c.text);
    if (!c.term) {
      ExpectLocatedError(sparql, "SPARQL", c.text);
      ExpectLocatedError(turtle, "Turtle", c.text);
      continue;
    }
    ASSERT_TRUE(turtle.ok()) << turtle.status().ToString();
    EXPECT_EQ(turtle.value(), *c.term) << ToString(turtle.value());
    if (c.admits == Admits::kTurtleOnly) {
      ExpectLocatedError(sparql, "SPARQL", c.text);
      continue;
    }
    ASSERT_TRUE(sparql.ok()) << sparql.status().ToString();
    EXPECT_EQ(sparql.value(), *c.term) << ToString(sparql.value());
  }
}

TEST(RdfSyntaxAgreementTest, VariablesAreSparqlOnly) {
  auto query = ParseSparql(std::string(kSparqlHead) + "?v }");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(std::get<Variable>(query->where.triples[0].o).name, "v");
  ExpectLocatedError(TurtleObject("?v"), "Turtle", "?v");
  ExpectLocatedError(TurtleObject("$v"), "Turtle", "$v");
}

TEST(RdfSyntaxAgreementTest, AIsRdfTypeAsAWholeWordPredicate) {
  // No space is needed between `a` and the object that follows it.
  auto query = ParseSparql("SELECT * { ?s a<http://C> }");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(std::get<Term>(query->where.triples[0].p),
            MakeIri(std::string(kRdfType)));
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("<http://s> a<http://C> .", store).ok());
  const Triple t = store.MatchAll({}).at(0);
  EXPECT_EQ(store.terms().Get(t.p), MakeIri(std::string(kRdfType)));
  EXPECT_EQ(store.terms().Get(t.o), MakeIri("http://C"));

  // `a` only as a whole word: `ab` is no keyword and `a:b` a prefixed name.
  EXPECT_FALSE(ParseSparql("SELECT * { ?s ab ?o }").ok());
  EXPECT_FALSE(ParseTurtle("<http://s> ab <http://o> .", store).ok());
  EXPECT_FALSE(ParseSparql("SELECT * { a ?p ?o }").ok());
}

TEST(RdfSyntaxAgreementTest, ErrorsNameTheFirstCharacterOfTheToken) {
  // The error names the column where the offending token starts, not
  // the one after it, on any line.
  const std::string line = "ex:s ex:p 1 , \"x\" , 2.5 , +5 ; ex:q nope:x .";
  TripleStore store;
  Status status = ParseTurtle("@prefix ex: <http://e/> .\n" + line, store);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.message().ends_with(
      "at line 2, column " + std::to_string(line.find("nope:x") + 1)))
      << status.message();

  status = ParseTurtle("<http://s> <http://p> ;", store);
  EXPECT_TRUE(status.message().ends_with("at line 1, column 23"))
      << status.message();
  // An error at the end of the input names the position just past it.
  status = ParseTurtle("<http://s> <http://p>\n", store);
  EXPECT_TRUE(status.message().ends_with("at line 2, column 1"))
      << status.message();

  auto query = ParseSparql("SELECT ?x\nWHERE {\n  ?x <http://p> ?y .\n"
                           "  FILTER(?y > )\n}");
  ASSERT_FALSE(query.ok());
  EXPECT_TRUE(query.status().message().ends_with("at line 4, column 15"))
      << query.status().message();
  query = ParseSparql("SELECT ?x WHERE { ?x ?p ?o . } junk");
  EXPECT_TRUE(query.status().message().ends_with("at line 1, column 32"))
      << query.status().message();
}

TEST(RdfSyntaxAgreementTest, TokenTableListsEverySpellingOnce) {
  const auto spellings = RdfTokenSpellings();
  for (const std::string_view expected : {"{", "||", "<=", "SELECT", "OFFSET",
                                          "a", "true", "@prefix"}) {
    EXPECT_NE(std::find(spellings.begin(), spellings.end(), expected),
              spellings.end())
        << expected;
  }
  for (std::size_t i = 0; i < spellings.size(); ++i) {
    for (std::size_t j = i + 1; j < spellings.size(); ++j) {
      EXPECT_NE(spellings[i], spellings[j]);
    }
  }
  // Each spelling lexes, on its own, as a single token.
  for (const std::string_view spelling : spellings) {
    RdfLexer lexer(spelling);
    const RdfToken token = lexer.Next();
    EXPECT_NE(token.kind, RdfTok::kError) << spelling;
    EXPECT_EQ(token.text, spelling);
    EXPECT_EQ(lexer.Next().kind, RdfTok::kEof) << spelling;
  }
}

TEST(RdfSyntaxAgreementTest, KeywordsIgnoreCaseButTermWordsDoNot) {
  EXPECT_TRUE(ParseSparql("select ?x where { ?x ?p ?o } order by desc(?x) "
                          "limit 1 offset 0")
                  .ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x { ?x A ?o }").ok());
  TripleStore store;
  EXPECT_FALSE(ParseTurtle("@PREFIX ex: <http://e/> .", store).ok());
}

TEST(RdfSyntaxAgreementTest, PathologicalRunsLexInLinearTime) {
  // Every '<' that opens no IRI, and every word inside a dotted run that
  // is no prefixed name, must not rescan the text after it.
  const std::string angles(200'000, '<');
  RdfLexer lexer(angles);
  std::size_t tokens = 0;
  while (lexer.Next().kind == RdfTok::kLess) ++tokens;
  EXPECT_EQ(tokens, angles.size());

  std::string dotted;
  for (int i = 0; i < 100'000; ++i) dotted += "a.";
  RdfLexer words(dotted);
  tokens = 0;
  for (RdfToken t = words.Next(); t.kind != RdfTok::kEof; t = words.Next()) {
    ASSERT_NE(t.kind, RdfTok::kError);
    ++tokens;
  }
  EXPECT_EQ(tokens, dotted.size());
}

}  // namespace
}  // namespace scan::kb
