#include "scan/kb/sparql.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "scan/kb/frozen_index.hpp"
#include "scan/kb/turtle.hpp"

namespace scan::kb {
namespace {

/// Small fixture graph mirroring the paper's GATK profile individuals.
class SparqlTest : public testing::Test {
 protected:
  void SetUp() override {
    const char* turtle =
        "@prefix scan: <http://scan/> .\n"
        "scan:GATK1 a scan:Application ; scan:inputFileSize 10 ; "
        "scan:eTime 180 ; scan:CPU 8 ; scan:RAM 4 .\n"
        "scan:GATK2 a scan:Application ; scan:inputFileSize 5 ; "
        "scan:eTime 200 ; scan:CPU 8 ; scan:RAM 4 .\n"
        "scan:GATK3 a scan:Application ; scan:inputFileSize 20 ; "
        "scan:eTime 280 ; scan:CPU 8 ; scan:RAM 4 .\n"
        "scan:GATK4 a scan:Application ; scan:inputFileSize 4 ; "
        "scan:eTime 80 ; scan:CPU 8 .\n"  // no RAM: exercises OPTIONAL
        "scan:BWA1 a scan:Aligner ; scan:inputFileSize 12 .\n";
    ASSERT_TRUE(ParseTurtle(turtle, store_).ok());
  }

  Result<ResultSet> Run(const std::string& body) {
    const QueryEngine engine(store_);
    return engine.Execute("PREFIX scan: <http://scan/>\n" + body);
  }

  TripleStore store_;
};

TEST_F(SparqlTest, SelectAllApplications) {
  auto rs = Run("SELECT ?app WHERE { ?app a scan:Application . }");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 4u);
}

TEST_F(SparqlTest, JoinOnSharedVariable) {
  auto rs = Run(
      "SELECT ?app ?size WHERE { ?app a scan:Application . "
      "?app scan:inputFileSize ?size . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);
  EXPECT_EQ(rs->variables, (std::vector<std::string>{"app", "size"}));
}

TEST_F(SparqlTest, FilterNumericComparison) {
  auto rs = Run(
      "SELECT ?app WHERE { ?app scan:inputFileSize ?s . FILTER(?s >= 10) }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);  // GATK1 (10), GATK3 (20), BWA1 (12)
}

TEST_F(SparqlTest, FilterConjunction) {
  auto rs = Run(
      "SELECT ?app WHERE { ?app scan:inputFileSize ?s . ?app scan:eTime ?t . "
      "FILTER(?s >= 5 && ?t < 250) }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);  // GATK1, GATK2
}

TEST_F(SparqlTest, FilterDisjunctionAndNot) {
  auto rs = Run(
      "SELECT ?app WHERE { ?app scan:eTime ?t . "
      "FILTER(?t = 80 || ?t = 280) }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);

  auto rs2 = Run(
      "SELECT ?app WHERE { ?app scan:eTime ?t . FILTER(!(?t = 80)) }");
  ASSERT_TRUE(rs2.ok());
  EXPECT_EQ(rs2->rows.size(), 3u);
}

TEST_F(SparqlTest, FilterStringEquality) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("@prefix s: <http://scan/> .\n"
                          "s:x s:performance \"good\" .\n"
                          "s:y s:performance \"poor\" .",
                          store)
                  .ok());
  const QueryEngine engine(store);
  auto rs = engine.Execute(
      "PREFIX scan: <http://scan/>\n"
      "SELECT ?i WHERE { ?i scan:performance ?p . FILTER(?p = \"good\") }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
}

TEST_F(SparqlTest, OptionalKeepsRowWithoutMatch) {
  auto rs = Run(
      "SELECT ?app ?ram WHERE { ?app a scan:Application . "
      "OPTIONAL { ?app scan:RAM ?ram . } }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);
  const auto ram_col = rs->ColumnOf("ram");
  ASSERT_TRUE(ram_col.has_value());
  int unbound = 0;
  for (const auto& row : rs->rows) {
    if (!row[*ram_col]) ++unbound;
  }
  EXPECT_EQ(unbound, 1);  // GATK4 has no RAM
}

TEST_F(SparqlTest, BoundFilterDetectsOptionalMisses) {
  auto rs = Run(
      "SELECT ?app WHERE { ?app a scan:Application . "
      "OPTIONAL { ?app scan:RAM ?ram . } FILTER(!BOUND(?ram)) }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
}

TEST_F(SparqlTest, UnboundComparisonIsErrorNotFalse) {
  // FILTER on an unbound var eliminates the row (error semantics), so
  // GATK4 (no RAM) disappears entirely rather than passing the inverted
  // test.
  auto rs = Run(
      "SELECT ?app WHERE { ?app a scan:Application . "
      "OPTIONAL { ?app scan:RAM ?ram . } FILTER(?ram >= 0) }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);
}

TEST_F(SparqlTest, OrderByAscendingNumeric) {
  auto rs = Run(
      "SELECT ?app ?t WHERE { ?app scan:eTime ?t . } ORDER BY ASC(?t)");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 4u);
  const auto t_col = *rs->ColumnOf("t");
  double prev = -1.0;
  for (const auto& row : rs->rows) {
    const double v = *NumericValue(*row[t_col]);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(prev, 280.0);
}

TEST(SparqlSignTest, PlusSignedLiteralsAreNumbersOnBothBackends) {
  // "+5" used to compare as a term: unequal to 5, and sorted by its
  // lexical form ("+5" < "3" < "40" < "7").
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("@prefix ex: <http://e/> .\n"
                          "ex:a ex:v +5 .\n"
                          "ex:b ex:v 3 .\n"
                          "ex:c ex:v 7 .\n"
                          "ex:d ex:v 40 .\n"
                          "ex:e ex:v \"+\" .\n"
                          "ex:f ex:v \"+-5\" .\n",
                          store)
                  .ok());
  const FrozenIndex frozen = FrozenIndex::Freeze(store);
  const QueryEngine staging(store);
  const QueryEngine serving(frozen, store.terms());
  for (const QueryEngine* engine : {&staging, &serving}) {
    const auto subjects = [&](const std::string& filter) {
      auto rs = engine->Execute("PREFIX ex: <http://e/>\nSELECT ?s WHERE { "
                                "?s ex:v ?v . FILTER(" + filter + ") }");
      EXPECT_TRUE(rs.ok()) << rs.status().ToString();
      std::vector<std::string> out;
      if (rs.ok()) {
        for (const auto& row : rs->rows) out.push_back(row[0]->lexical);
      }
      return out;
    };
    EXPECT_EQ(subjects("?v = 5"), std::vector<std::string>{"http://e/a"});
    EXPECT_EQ(subjects("?v = +3"), std::vector<std::string>{"http://e/b"});
    // "+" and "+-5" stay terms, equal only to themselves.
    EXPECT_EQ(subjects("?v = \"+-5\""), std::vector<std::string>{"http://e/f"});
    EXPECT_EQ(subjects("?v = -5"), std::vector<std::string>{});

    auto ordered = engine->Execute(
        "PREFIX ex: <http://e/>\nSELECT ?v WHERE { ?s ex:v ?v . "
        "FILTER(?s != ex:e && ?s != ex:f) } ORDER BY ASC(?v)");
    ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
    std::vector<std::string> values;
    for (const auto& row : ordered->rows) values.push_back(row[0]->lexical);
    EXPECT_EQ(values, (std::vector<std::string>{"3", "+5", "7", "40"}));
  }
}

TEST_F(SparqlTest, OrderByDescending) {
  auto rs = Run(
      "SELECT ?t WHERE { ?app scan:eTime ?t . } ORDER BY DESC(?t) LIMIT 1");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(*NumericValue(*rs->rows[0][0]), 280.0);
}

TEST_F(SparqlTest, LimitAndOffset) {
  auto rs = Run(
      "SELECT ?t WHERE { ?app scan:eTime ?t . } ORDER BY ASC(?t) "
      "LIMIT 2 OFFSET 1");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_DOUBLE_EQ(*NumericValue(*rs->rows[0][0]), 180.0);
  EXPECT_DOUBLE_EQ(*NumericValue(*rs->rows[1][0]), 200.0);
}

TEST_F(SparqlTest, OffsetBeyondEndYieldsEmpty) {
  auto rs = Run("SELECT ?t WHERE { ?app scan:eTime ?t . } OFFSET 100");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
}

TEST_F(SparqlTest, DistinctRemovesDuplicates) {
  auto rs = Run("SELECT DISTINCT ?cpu WHERE { ?app scan:CPU ?cpu . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);  // all CPUs are 8
}

TEST_F(SparqlTest, SelectStarCollectsAllVariables) {
  auto rs = Run("SELECT * WHERE { ?app scan:inputFileSize ?size . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->variables.size(), 2u);
}

TEST_F(SparqlTest, ConstantObjectPattern) {
  auto rs = Run("SELECT ?app WHERE { ?app scan:inputFileSize 10 . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
}

TEST_F(SparqlTest, ConstantAbsentFromStoreMatchesNothing) {
  auto rs = Run("SELECT ?app WHERE { ?app scan:inputFileSize 99999 . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
}

TEST_F(SparqlTest, RepeatedVariableMustAgree) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("@prefix s: <http://scan/> .\n"
                          "s:a s:links s:a .\n"
                          "s:b s:links s:c .",
                          store)
                  .ok());
  const QueryEngine engine(store);
  auto rs = engine.Execute(
      "PREFIX scan: <http://scan/>\n"
      "SELECT ?x WHERE { ?x scan:links ?x . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);  // only the self-loop
}

TEST_F(SparqlTest, FromClauseIsAcceptedAndIgnored) {
  // Mirrors the paper's query shape: SELECT ... FROM <scan-wxing.owl> WHERE.
  auto rs = Run(
      "SELECT ?app FROM <scan-wxing.owl> WHERE { ?app a scan:Application . }");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 4u);
}

TEST_F(SparqlTest, ParseErrors) {
  EXPECT_FALSE(ParseSparql("SELECT WHERE { }").ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x { ?x ?p ?o }").ok() &&
               false);  // WHERE keyword optional, so this parses
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x ?p }").ok());
  EXPECT_FALSE(ParseSparql("FOO BAR").ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x nope:p ?o . }").ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x <p> ?o . } LIMIT ?x").ok());
}

/// Whether a failed parse is a ParseError located at `line`, `column`.
void ExpectParseErrorAt(const Status& status, int line, int column) {
  EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.ToString();
  EXPECT_TRUE(status.message().ends_with("at line " + std::to_string(line) +
                                         ", column " +
                                         std::to_string(column)))
      << status.message();
}

TEST_F(SparqlTest, LimitAndOffsetTakeOnlyUnsignedIntegers) {
  // Regression: a sign, an overflow or a fraction must be a ParseError at
  // the number, never a read of an empty optional or a wrapped -1.
  const std::string head = "SELECT ?x WHERE { ?x ?p ?o } ";
  for (const char* tail :
       {"LIMIT +5", "LIMIT 99999999999999999999", "OFFSET -1", "LIMIT 2.5",
        "LIMIT 1e3", "LIMIT -0", "OFFSET 18446744073709551616", "LIMIT ?x"}) {
    SCOPED_TRACE(tail);
    const auto query = ParseSparql(head + tail);
    ASSERT_FALSE(query.ok());
    const std::string_view clause(tail);
    ExpectParseErrorAt(query.status(), 1,
                       static_cast<int>(head.size() + clause.find(' ') + 2));
  }
  const auto widest = ParseSparql(head + "LIMIT 18446744073709551615 OFFSET 0");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->limit, std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(widest->offset, 0u);
}

TEST_F(SparqlTest, DeepParenthesesAreALocatedErrorNotAStackOverflow) {
  constexpr int kDepth = 10'000;
  const std::string query = "SELECT ?x WHERE { ?x ?p ?v . FILTER(" +
                            std::string(kDepth, '(') + "?v > 1" +
                            std::string(kDepth, ')') + ") }";
  const auto parsed = ParseSparql(query);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find(std::to_string(kMaxSparqlDepth)),
            std::string::npos)
      << parsed.status().message();
  ExpectParseErrorAt(parsed.status(), 1,
                     static_cast<int>(query.find('(') + kMaxSparqlDepth));

  // Well inside the limit the same shape parses and runs.
  const std::string shallow = "SELECT ?x WHERE { ?x scan:eTime ?v . FILTER(" +
                              std::string(200, '(') + "?v > 190" +
                              std::string(200, ')') + ") }";
  const auto rs = Run(shallow);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 2u);  // GATK2 (200), GATK3 (280)
}

TEST_F(SparqlTest, LongOrChainIsALocatedErrorNotAStackOverflow) {
  // Regression: a chain counts one level per link, so a 100,000-term chain
  // is a ParseError, never a tree deep enough to overflow the stack when
  // the engine evaluates or frees it.
  std::string filter = "?t = 0";
  for (int i = 1; i < 100'000; ++i) filter += " || ?t = " + std::to_string(i);
  const QueryEngine engine(store_);
  const auto rs = engine.Execute(
      "PREFIX scan: <http://scan/>\n"
      "SELECT ?app WHERE { ?app scan:eTime ?t . FILTER(" + filter + ") }");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), ErrorCode::kParseError);
  EXPECT_NE(rs.status().message().find(std::to_string(kMaxSparqlDepth)),
            std::string::npos)
      << rs.status().message();

  // A chain that fits evaluates as before.
  std::string fits = "?t = 0";
  for (int i = 1; i < 200; ++i) fits += " || ?t = " + std::to_string(i * 10);
  const auto ok = Run("SELECT ?app WHERE { ?app scan:eTime ?t . FILTER(" +
                      fits + ") }");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows.size(), 4u);  // 80, 180, 200, 280
}

TEST_F(SparqlTest, DeepGroupsAndNegationsAreBounded) {
  std::string groups = "SELECT ?x WHERE { ?x ?p ?o ";
  for (int i = 0; i < 10'000; ++i) groups += "OPTIONAL { ?x ?p ?o ";
  groups += std::string(10'001, '}');
  EXPECT_EQ(ParseSparql(groups).status().code(), ErrorCode::kParseError);

  const std::string nots = "SELECT ?x WHERE { ?x ?p ?o FILTER(" +
                           std::string(10'000, '!') + "BOUND(?x)) }";
  EXPECT_EQ(ParseSparql(nots).status().code(), ErrorCode::kParseError);

  std::string unions = "SELECT ?x WHERE ";
  for (int i = 0; i < 10'000; ++i) unions += "{ { ?x ?p ?o } UNION ";
  EXPECT_EQ(ParseSparql(unions).status().code(), ErrorCode::kParseError);

  // Nesting up to the limit is fine: the WHERE group plus 255 OPTIONALs;
  // one more is not.
  const auto nested = [](std::size_t optionals) {
    std::string query = "SELECT ?x WHERE { ?x scan:eTime ?o ";
    for (std::size_t i = 0; i < optionals; ++i) {
      query += "OPTIONAL { ?x scan:eTime ?o ";
    }
    return query + std::string(optionals + 1, '}');
  };
  const auto rs = Run(nested(kMaxSparqlDepth - 1));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 4u);
  EXPECT_EQ(Run(nested(kMaxSparqlDepth)).status().code(),
            ErrorCode::kParseError);
}

TEST_F(SparqlTest, WhereKeywordIsOptional) {
  auto rs = Run("SELECT ?app { ?app a scan:Application . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);
}

TEST_F(SparqlTest, ResultSetToStringContainsHeader) {
  auto rs = Run("SELECT ?app WHERE { ?app a scan:Application . } LIMIT 1");
  ASSERT_TRUE(rs.ok());
  const std::string text = rs->ToString();
  EXPECT_NE(text.find("?app"), std::string::npos);
}

TEST_F(SparqlTest, PredicateObjectListShorthandsInPatterns) {
  auto rs = Run(
      "SELECT ?app WHERE { ?app a scan:Application ; scan:inputFileSize ?s . "
      "}");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);
}

TEST_F(SparqlTest, OutOfRangeVariableIdIsInvalidArgument) {
  // SelectQuery is a plain struct: a hand-built query can carry ids that do
  // not index var_names. The engine rejects them up front instead of
  // indexing past its solution rows.
  auto parsed = ParseSparql(
      "PREFIX scan: <http://scan/>\n"
      "SELECT ?app WHERE { ?app scan:inputFileSize ?s . FILTER(?s > 1) }");
  ASSERT_TRUE(parsed.ok());
  const QueryEngine engine(store_);
  ASSERT_TRUE(engine.Execute(parsed.value()).ok());

  SelectQuery bad_pattern = std::move(parsed.value());
  std::get<Variable>(bad_pattern.where.triples[0].o).id = kNoVarId;
  auto rs = engine.Execute(bad_pattern);
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), ErrorCode::kInvalidArgument);

  auto reparsed = ParseSparql(
      "PREFIX scan: <http://scan/>\n"
      "SELECT ?app WHERE { ?app scan:inputFileSize ?s . FILTER(?s > 1) }");
  ASSERT_TRUE(reparsed.ok());
  SelectQuery bad_filter = std::move(reparsed.value());
  bad_filter.where.filters[0]->lhs->var_id = 7;
  rs = engine.Execute(bad_filter);
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace scan::kb
