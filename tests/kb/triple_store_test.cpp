#include "scan/kb/triple_store.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "scan/kb/frozen_index.hpp"
#include "scan/kb/ontology.hpp"

namespace scan::kb {
namespace {

Term S(int i) { return MakeIri("http://s/" + std::to_string(i)); }
Term P(int i) { return MakeIri("http://p/" + std::to_string(i)); }
Term O(int i) { return MakeIri("http://o/" + std::to_string(i)); }

TEST(TripleStoreTest, AddAndContains) {
  TripleStore store;
  EXPECT_TRUE(store.Add(S(1), P(1), O(1)));
  EXPECT_EQ(store.size(), 1u);
  const Triple t{*store.terms().Lookup(S(1)), *store.terms().Lookup(P(1)),
                 *store.terms().Lookup(O(1))};
  EXPECT_TRUE(store.Contains(t));
}

TEST(TripleStoreTest, DuplicateAddIsIgnored) {
  TripleStore store;
  EXPECT_TRUE(store.Add(S(1), P(1), O(1)));
  EXPECT_FALSE(store.Add(S(1), P(1), O(1)));
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreTest, RemoveDeletesFromAllIndexes) {
  TripleStore store;
  store.Add(S(1), P(1), O(1));
  const Triple t{*store.terms().Lookup(S(1)), *store.terms().Lookup(P(1)),
                 *store.terms().Lookup(O(1))};
  EXPECT_TRUE(store.Remove(t));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Contains(t));
  EXPECT_TRUE(store.MatchAll({t.s, std::nullopt, std::nullopt}).empty());
  EXPECT_TRUE(store.MatchAll({std::nullopt, t.p, std::nullopt}).empty());
  EXPECT_TRUE(store.MatchAll({std::nullopt, std::nullopt, t.o}).empty());
  EXPECT_FALSE(store.Remove(t));  // second remove fails
}

TEST(TripleStoreTest, RemoveErasesEmptyPostingLists) {
  // Regression: Remove used to keep the emptied posting lists in all three
  // indexes, so a full scan kept visiting dead subjects and Match on the
  // removed key walked an empty list instead of missing the index.
  TripleStore store;
  store.Add(S(1), P(1), O(1));
  store.Add(S(2), P(2), O(2));  // survivor: the store must not go empty
  const Triple t{*store.terms().Lookup(S(1)), *store.terms().Lookup(P(1)),
                 *store.terms().Lookup(O(1))};
  EXPECT_TRUE(store.Remove(t));
  EXPECT_EQ(store.size(), 1u);

  // The full scan must see exactly the surviving triple — an empty spo_
  // posting list for S(1) would still be iterated here.
  const auto all = store.MatchAll({});
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.front().s, *store.terms().Lookup(S(2)));

  // Re-adding the removed triple must behave like a fresh insert.
  EXPECT_TRUE(store.Add(S(1), P(1), O(1)));
  EXPECT_TRUE(store.Contains(t));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.MatchAll({}).size(), 2u);
  EXPECT_EQ(store.MatchAll({std::nullopt, t.p, std::nullopt}).size(), 1u);
  EXPECT_EQ(store.MatchAll({std::nullopt, std::nullopt, t.o}).size(), 1u);
}

TEST(TripleStoreTest, MatchBySubject) {
  TripleStore store;
  store.Add(S(1), P(1), O(1));
  store.Add(S(1), P(2), O(2));
  store.Add(S(2), P(1), O(3));
  const auto s1 = *store.terms().Lookup(S(1));
  const auto matches = store.MatchAll({s1, std::nullopt, std::nullopt});
  EXPECT_EQ(matches.size(), 2u);
}

TEST(TripleStoreTest, MatchByPredicate) {
  TripleStore store;
  store.Add(S(1), P(1), O(1));
  store.Add(S(2), P(1), O(2));
  store.Add(S(3), P(2), O(3));
  const auto p1 = *store.terms().Lookup(P(1));
  EXPECT_EQ(store.MatchAll({std::nullopt, p1, std::nullopt}).size(), 2u);
}

TEST(TripleStoreTest, MatchByObject) {
  TripleStore store;
  store.Add(S(1), P(1), O(9));
  store.Add(S(2), P(2), O(9));
  store.Add(S(3), P(3), O(1));
  const auto o9 = *store.terms().Lookup(O(9));
  EXPECT_EQ(store.MatchAll({std::nullopt, std::nullopt, o9}).size(), 2u);
}

TEST(TripleStoreTest, FullScanReturnsEverything) {
  TripleStore store;
  for (int i = 0; i < 10; ++i) store.Add(S(i), P(i % 3), O(i));
  EXPECT_EQ(store.MatchAll({}).size(), 10u);
}

TEST(TripleStoreTest, FullyBoundPattern) {
  TripleStore store;
  store.Add(S(1), P(1), O(1));
  const TriplePatternIds exact{*store.terms().Lookup(S(1)),
                               *store.terms().Lookup(P(1)),
                               *store.terms().Lookup(O(1))};
  EXPECT_EQ(store.MatchAll(exact).size(), 1u);
}

TEST(TripleStoreTest, EarlyStopFromCallback) {
  TripleStore store;
  for (int i = 0; i < 10; ++i) store.Add(S(1), P(i), O(i));
  int seen = 0;
  store.Match({*store.terms().Lookup(S(1)), std::nullopt, std::nullopt},
              [&](const Triple&) {
                ++seen;
                return seen < 3;
              });
  EXPECT_EQ(seen, 3);
}

TEST(TripleStoreTest, ObjectsAndSubjectsHelpers) {
  TripleStore store;
  store.Add(S(1), P(1), O(1));
  store.Add(S(1), P(1), O(2));
  store.Add(S(2), P(1), O(1));
  const auto s1 = *store.terms().Lookup(S(1));
  const auto p1 = *store.terms().Lookup(P(1));
  const auto o1 = *store.terms().Lookup(O(1));
  EXPECT_EQ(store.Objects(s1, p1).size(), 2u);
  EXPECT_EQ(store.Subjects(p1, o1).size(), 2u);
  ASSERT_TRUE(store.FirstObject(s1, p1).has_value());
}

TEST(TripleStoreTest, FirstObjectAbsent) {
  TripleStore store;
  store.Add(S(1), P(1), O(1));
  const auto s1 = *store.terms().Lookup(S(1));
  const auto p2 = store.terms().Intern(P(2));
  EXPECT_FALSE(store.FirstObject(s1, p2).has_value());
}

TEST(TripleStoreTest, InstancesOf) {
  TripleStore store;
  const Term cls = MakeIri("http://example/Class");
  const Term rdf_type = MakeIri(std::string(kRdfType));
  store.Add(S(1), rdf_type, cls);
  store.Add(S(2), rdf_type, cls);
  store.Add(S(3), P(1), cls);  // not a type assertion
  const auto cls_id = *store.terms().Lookup(cls);
  EXPECT_EQ(store.InstancesOf(cls_id).size(), 2u);
}

TEST(TripleStoreTest, MatchOnEmptyStore) {
  TripleStore store;
  EXPECT_TRUE(store.MatchAll({}).empty());
}

TEST(OntologyTest, SeedCreatesClasses) {
  TripleStore store;
  const std::size_t added = SeedScanOntology(store);
  EXPECT_GT(added, 10u);
  const auto owl_class = store.terms().Lookup(vocab::OwlClass());
  ASSERT_TRUE(owl_class.has_value());
  EXPECT_FALSE(store.InstancesOf(*owl_class).empty());
}

TEST(OntologyTest, SeedDataFormatsRegistersSix) {
  TripleStore store;
  SeedScanOntology(store);
  SeedDataFormats(store);
  const auto format_class = store.terms().Lookup(vocab::ClassDataFormat());
  ASSERT_TRUE(format_class.has_value());
  EXPECT_EQ(store.InstancesOf(*format_class).size(), 6u);
}

TEST(OntologyTest, SeedIsIdempotentOnTripleCount) {
  TripleStore store;
  SeedScanOntology(store);
  const std::size_t first = store.size();
  SeedScanOntology(store);
  EXPECT_EQ(store.size(), first);
}

TEST(TripleStoreTest, AddRejectsIdsTheTableNeverIssued) {
  TripleStore store;
  store.Add(S(1), P(1), O(1));
  const TermId s = *store.terms().Lookup(S(1));
  const TermId p = *store.terms().Lookup(P(1));
  const TermId unissued{static_cast<std::uint32_t>(store.terms().size() + 50)};
  const std::uint64_t revision = store.revision();

  EXPECT_THROW(store.Add(Triple{unissued, p, s}), std::invalid_argument);
  EXPECT_THROW(store.Add(Triple{s, kInvalidTermId, s}), std::invalid_argument);
  EXPECT_THROW(store.Add(Triple{s, p, unissued}), std::invalid_argument);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.revision(), revision);
  // The store stays freezable: no posting holds an id past the table.
  EXPECT_EQ(FrozenIndex::Freeze(store).size(), 1u);
}

TEST(TripleStoreTest, AddBatchRejectsTheWholeBatchOnAnUnissuedId) {
  TripleStore store;
  store.Add(S(1), P(1), O(1));
  const TermId s2 = store.terms().Intern(S(2));
  const TermId p = *store.terms().Lookup(P(1));
  const TermId o = *store.terms().Lookup(O(1));
  const TermId unissued{static_cast<std::uint32_t>(store.terms().size() + 1)};
  const std::vector<Triple> batch = {Triple{s2, p, o}, Triple{s2, p, unissued}};
  const std::uint64_t revision = store.revision();
  const auto before = store.MatchAll({});

  EXPECT_THROW(store.AddBatch(batch), std::invalid_argument);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.revision(), revision);
  EXPECT_EQ(store.MatchAll({}), before);
  EXPECT_TRUE(store.MatchAll({s2, std::nullopt, std::nullopt}).empty());
  EXPECT_EQ(FrozenIndex::Freeze(store).size(), 1u);
}

}  // namespace
}  // namespace scan::kb
