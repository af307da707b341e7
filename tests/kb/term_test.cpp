#include "scan/kb/term.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace scan::kb {
namespace {

TEST(TermTest, FactoriesSetKind) {
  EXPECT_EQ(MakeIri("http://x").kind, TermKind::kIri);
  EXPECT_EQ(MakeStringLiteral("v").kind, TermKind::kLiteral);
  EXPECT_EQ(MakeBlank("b1").kind, TermKind::kBlank);
}

TEST(TermTest, IntLiteralHasXsdIntegerType) {
  const Term t = MakeIntLiteral(42);
  EXPECT_EQ(t.lexical, "42");
  EXPECT_EQ(t.datatype, kXsdInteger);
}

TEST(TermTest, DoubleLiteralRoundTrips) {
  const Term t = MakeDoubleLiteral(2.5);
  EXPECT_EQ(t.datatype, kXsdDouble);
  EXPECT_DOUBLE_EQ(*NumericValue(t), 2.5);
}

TEST(TermTest, NumericValueOnUntypedNumber) {
  // The paper's RDF uses untyped numeric literals like "180".
  const Term t = MakeStringLiteral("180");
  ASSERT_TRUE(NumericValue(t).has_value());
  EXPECT_DOUBLE_EQ(*NumericValue(t), 180.0);
}

TEST(TermTest, NumericValueRejectsNonNumbers) {
  EXPECT_FALSE(NumericValue(MakeStringLiteral("good")).has_value());
  EXPECT_FALSE(NumericValue(MakeIri("http://5")).has_value());
}

TEST(TermTest, NumericValueTakesOneLeadingPlus) {
  EXPECT_EQ(NumericValue(Term{TermKind::kLiteral, "+5", std::string(kXsdInteger)}),
            std::optional<double>(5.0));
  EXPECT_EQ(NumericValue(MakeStringLiteral("+2.5e1")),
            std::optional<double>(25.0));
  EXPECT_EQ(NumericValue(MakeStringLiteral("+.5")), std::optional<double>(0.5));
  EXPECT_EQ(NumericValue(MakeStringLiteral("-5")), std::optional<double>(-5.0));
  for (const char* text : {"+", "++5", "+-5", "+ 5", "+x"}) {
    EXPECT_FALSE(NumericValue(MakeStringLiteral(text)).has_value()) << text;
  }
}

TEST(TermTest, ToStringForms) {
  EXPECT_EQ(ToString(MakeIri("http://a")), "<http://a>");
  EXPECT_EQ(ToString(MakeBlank("n1")), "_:n1");
  EXPECT_EQ(ToString(MakeStringLiteral("hi")), "\"hi\"");
  EXPECT_EQ(ToString(MakeStringLiteral("say \"hi\"")),
            "\"say \\\"hi\\\"\"");
  const std::string typed = ToString(MakeIntLiteral(7));
  EXPECT_NE(typed.find("\"7\"^^<"), std::string::npos);
}

TEST(TermTest, EqualityIsStructural) {
  EXPECT_EQ(MakeIri("http://a"), MakeIri("http://a"));
  EXPECT_NE(MakeIri("http://a"), MakeStringLiteral("http://a"));
  EXPECT_NE(MakeIntLiteral(5), MakeStringLiteral("5"));  // datatypes differ
}

TEST(TermTableTest, InternReturnsSameIdForSameTerm) {
  TermTable table;
  const TermId a = table.Intern(MakeIri("http://a"));
  const TermId b = table.Intern(MakeIri("http://a"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 1u);
}

TEST(TermTableTest, DistinctTermsGetDistinctIds) {
  TermTable table;
  const TermId a = table.Intern(MakeIri("http://a"));
  const TermId b = table.Intern(MakeStringLiteral("http://a"));
  const TermId c = table.Intern(MakeBlank("http://a"));
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_EQ(table.size(), 3u);
}

TEST(TermTableTest, GetDecodesInternedTerm) {
  TermTable table;
  const Term original = MakeIntLiteral(99);
  const TermId id = table.Intern(original);
  EXPECT_EQ(table.Get(id), original);
}

TEST(TermTableTest, LookupFindsOnlyInterned) {
  TermTable table;
  EXPECT_FALSE(table.Lookup(MakeIri("http://missing")).has_value());
  const TermId id = table.Intern(MakeIri("http://present"));
  ASSERT_TRUE(table.Lookup(MakeIri("http://present")).has_value());
  EXPECT_EQ(*table.Lookup(MakeIri("http://present")), id);
}

TEST(TermTableTest, IdZeroIsInvalidSentinel) {
  TermTable table;
  const TermId id = table.Intern(MakeIri("http://first"));
  EXPECT_NE(Index(id), 0u);
  EXPECT_EQ(Index(kInvalidTermId), 0u);
}

}  // namespace
}  // namespace scan::kb
