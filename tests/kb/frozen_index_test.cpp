// Units for the frozen KB index stack: varbyte posting arrays, FrozenIndex
// accessors, the BGP planner, and the query engine over a frozen snapshot
// (against the testkit oracle on small fixtures; the randomized
// differential suite lives in frozen_differential_test.cpp).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scan/common/rng.hpp"
#include "scan/kb/frozen_index.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/kb/plan.hpp"
#include "scan/kb/sparql.hpp"
#include "scan/kb/triple_store.hpp"
#include "scan/kb/vbyte.hpp"
#include "scan/testkit/kb_oracle.hpp"

namespace scan::kb {
namespace {

TEST(Vbyte, RoundTripsRepresentativeValues) {
  const std::vector<std::uint32_t> values = {
      0, 1, 127, 128, 129, 16383, 16384, 1u << 21, 0x0fffffffu, 0xffffffffu};
  std::vector<std::uint8_t> bytes;
  for (const std::uint32_t v : values) VbyteEncode(v, bytes);
  std::size_t pos = 0;
  for (const std::uint32_t v : values) {
    EXPECT_EQ(VbyteDecode(bytes.data(), pos), v);
  }
  EXPECT_EQ(pos, bytes.size());
}

std::vector<std::uint32_t> AscendingSequence(std::size_t n,
                                             std::uint64_t seed) {
  RandomStream rng(seed, "vbyte-test");
  std::vector<std::uint32_t> out;
  out.reserve(n);
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    value += 1 + rng.UniformBelow(300);  // strictly ascending, varied gaps
    out.push_back(value);
  }
  return out;
}

TEST(CompressedPostings, AccessorsMatchSourceAcrossSizes) {
  for (const std::size_t n : {0ul, 1ul, 31ul, 32ul, 33ul, 100ul, 1000ul}) {
    const auto values = AscendingSequence(n, 7 + n);
    const auto postings = CompressedPostings::Build(values.data(), n);
    ASSERT_EQ(postings.size(), n);
    EXPECT_EQ(postings.empty(), n == 0);

    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(postings.At(i), values[i]) << "n=" << n << " i=" << i;
    }

    std::vector<std::uint32_t> streamed;
    postings.ForEach([&](std::uint32_t v) {
      streamed.push_back(v);
      return true;
    });
    EXPECT_EQ(streamed, values);

    std::vector<std::uint32_t> appended;
    postings.AppendTo(appended);
    EXPECT_EQ(appended, values);

    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(postings.LowerBound(values[i]), i);
      ASSERT_TRUE(postings.Contains(values[i]));
      // Gaps are >= 1; value - 1 must never report present unless it is the
      // previous element.
      const std::uint32_t probe = values[i] - 1;
      const bool is_prev = i > 0 && values[i - 1] == probe;
      ASSERT_EQ(postings.Contains(probe), is_prev);
      ASSERT_EQ(postings.LowerBound(probe), is_prev ? i - 1 : i);
    }
    if (n > 0) {
      EXPECT_EQ(postings.LowerBound(values.back() + 1), n);
      EXPECT_FALSE(postings.Contains(values.back() + 1));
      EXPECT_EQ(postings.LowerBound(0), 0u);
    }
  }
}

TEST(CompressedPostings, EarlyStopAndCompression) {
  const auto values = AscendingSequence(500, 99);
  const auto postings = CompressedPostings::Build(values.data(), values.size());
  std::size_t visited = 0;
  postings.ForEach([&](std::uint32_t) { return ++visited < 10; });
  EXPECT_EQ(visited, 10u);
  // Gaps under 300 fit two varbyte bytes: well under 4 bytes/value raw.
  EXPECT_LT(postings.byte_size(), values.size() * 4);
}

/// Small mixed-shape graph used across the FrozenIndex tests.
TripleStore MakeFixtureStore() {
  TripleStore store;
  const Term type = MakeIri(std::string(kRdfType));
  store.Add(MakeIri("s/alice"), type, MakeIri("c/Person"));
  store.Add(MakeIri("s/alice"), MakeIri("p/age"), MakeIntLiteral(30));
  store.Add(MakeIri("s/alice"), MakeIri("p/knows"), MakeIri("s/bob"));
  store.Add(MakeIri("s/alice"), MakeIri("p/knows"), MakeIri("s/carol"));
  store.Add(MakeIri("s/bob"), type, MakeIri("c/Person"));
  store.Add(MakeIri("s/bob"), MakeIri("p/age"), MakeIntLiteral(25));
  store.Add(MakeIri("s/carol"), type, MakeIri("c/Robot"));
  store.Add(MakeIri("s/carol"), MakeIri("p/age"), MakeIntLiteral(5));
  store.Add(MakeIri("s/carol"), MakeIri("p/knows"), MakeIri("s/alice"));
  return store;
}

TermId Id(const TripleStore& store, const Term& term) {
  const auto id = store.terms().Lookup(term);
  EXPECT_TRUE(id.has_value()) << ToString(term);
  return id.value_or(kInvalidTermId);
}

TEST(FrozenIndex, HotPathAccessorsMatchStore) {
  const TripleStore store = MakeFixtureStore();
  const FrozenIndex frozen = FrozenIndex::Freeze(store);
  EXPECT_EQ(frozen.size(), store.size());

  const TermId alice = Id(store, MakeIri("s/alice"));
  const TermId knows = Id(store, MakeIri("p/knows"));
  const TermId age = Id(store, MakeIri("p/age"));
  const TermId person = Id(store, MakeIri("c/Person"));
  const TermId type = Id(store, MakeIri(std::string(kRdfType)));

  const auto knows_span = frozen.Objects(alice, knows);
  const std::vector<TermId> knows_vec(knows_span.begin(), knows_span.end());
  EXPECT_EQ(knows_vec, store.Objects(alice, knows));
  EXPECT_EQ(frozen.FirstObject(alice, knows), store.FirstObject(alice, knows));
  EXPECT_EQ(frozen.FirstObject(alice, person), std::nullopt);

  const auto instances = frozen.InstancesOf(person);
  EXPECT_EQ(std::vector<TermId>(instances.begin(), instances.end()),
            store.InstancesOf(person));
  EXPECT_TRUE(frozen.InstancesOf(knows).empty());

  const auto preds = frozen.PredicatesOf(alice);
  EXPECT_EQ(preds.size(), 3u);  // rdf:type, age, knows
  EXPECT_TRUE(std::is_sorted(preds.begin(), preds.end(),
                             [](TermId a, TermId b) {
                               return Index(a) < Index(b);
                             }));

  EXPECT_TRUE(frozen.Contains(Triple{alice, type, person}));
  EXPECT_FALSE(frozen.Contains(Triple{alice, type, knows}));

  EXPECT_EQ(frozen.Subjects(type, person), store.Subjects(type, person));
  EXPECT_EQ(frozen.SubjectCount(type, person), 2u);
  EXPECT_EQ(frozen.SubjectCount(age, person), 0u);

  // Ids outside the frozen id range are simply absent.
  const TermId bogus{0x7fffffff};
  EXPECT_TRUE(frozen.Objects(bogus, knows).empty());
  EXPECT_TRUE(frozen.InstancesOf(bogus).empty());
  EXPECT_FALSE(frozen.Contains(Triple{bogus, bogus, bogus}));
}

TEST(FrozenIndex, MatchEmitsLegacyOrderForEveryShape) {
  const TripleStore store = MakeFixtureStore();
  const FrozenIndex frozen = FrozenIndex::Freeze(store);

  const TermId alice = Id(store, MakeIri("s/alice"));
  const TermId knows = Id(store, MakeIri("p/knows"));
  const TermId bob = Id(store, MakeIri("s/bob"));
  const std::optional<TermId> none;

  const std::vector<TriplePatternIds> shapes = {
      {none, none, none},   {alice, none, none}, {none, knows, none},
      {none, none, bob},    {alice, knows, none}, {alice, none, bob},
      {none, knows, bob},   {alice, knows, bob},
  };
  for (const auto& pattern : shapes) {
    EXPECT_EQ(frozen.MatchAll(pattern), store.MatchAll(pattern));
  }
}

TEST(FrozenIndex, StatsAndCharacteristicSets) {
  const TripleStore store = MakeFixtureStore();
  const FrozenIndex frozen = FrozenIndex::Freeze(store);

  const auto& stats = frozen.stats();
  EXPECT_EQ(stats.triples, store.size());
  EXPECT_EQ(stats.subjects, 3u);
  EXPECT_EQ(stats.predicates, 3u);  // rdf:type, age, knows
  EXPECT_GT(stats.raw_posting_values, 0u);
  EXPECT_GT(stats.compressed_postings_bytes, 0u);

  // alice and carol share {type, age, knows}; bob has {type, age}.
  EXPECT_EQ(stats.characteristic_sets, 2u);
  std::uint64_t total = 0;
  for (const auto& cs : frozen.characteristic_sets()) {
    total += cs.subject_count;
  }
  EXPECT_EQ(total, 3u);

  const TermId age = Id(store, MakeIri("p/age"));
  const TermId knows = Id(store, MakeIri("p/knows"));
  EXPECT_EQ(frozen.CountSubjectsWithPredicates(
                std::vector<TermId>{age, knows}),
            2u);
  EXPECT_EQ(frozen.CountSubjectsWithPredicates(std::vector<TermId>{age}), 3u);

  const TermId alice = Id(store, MakeIri("s/alice"));
  EXPECT_EQ(frozen.CountEstimate({alice, std::nullopt, std::nullopt}), 4u);
  EXPECT_EQ(frozen.CountEstimate({std::nullopt, knows, std::nullopt}), 3u);
  EXPECT_EQ(frozen.CountEstimate({std::nullopt, std::nullopt, std::nullopt}),
            store.size());
}

TEST(PlanBgp, OrdersBySelectivityAndPicksMergeStrategies) {
  KnowledgeBase kb;
  for (int i = 0; i < 40; ++i) {
    ApplicationProfile p;
    p.application = i % 4 == 0 ? "GATK" : "BWA";
    p.input_file_size_gb = 1.0 + i;
    p.etime = 10.0 + i;
    kb.AddProfile(p);
  }
  const FrozenIndex frozen = FrozenIndex::Freeze(kb.store());

  const auto query = ParseSparql(
      KnowledgeBase::QueryPrefixes() +
      "SELECT ?ind ?size WHERE {\n"
      "  ?ind a scan:Application .\n"
      "  ?ind scan:application \"GATK\" .\n"
      "  ?ind scan:inputFileSize ?size .\n"
      "}");
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  const BgpPlan plan =
      PlanBgp(query.value().where.triples,
              std::vector<bool>(query.value().var_names.size(), false), frozen,
              kb.store().terms());
  ASSERT_EQ(plan.steps.size(), 3u);

  // The app="GATK" pattern is the most selective (10 subjects vs 40), so it
  // leads as a one-time scan; the type pattern then merge-filters the bound
  // subjects; the size expansion runs last as per-row probes.
  EXPECT_EQ(plan.steps[0].strategy, JoinStrategy::kCross);
  EXPECT_EQ(plan.steps[0].estimate, 10u);
  EXPECT_EQ(plan.steps[1].strategy, JoinStrategy::kMergeFilter);
  EXPECT_EQ(plan.steps[2].strategy, JoinStrategy::kProbe);

  // The staging store's statistics are exact too: the same plan.
  const BgpPlan store_plan =
      PlanBgp(query.value().where.triples,
              std::vector<bool>(query.value().var_names.size(), false),
              kb.store(), kb.store().terms());
  ASSERT_EQ(store_plan.steps.size(), plan.steps.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(store_plan.steps[i].pattern, plan.steps[i].pattern);
    EXPECT_EQ(store_plan.steps[i].estimate, plan.steps[i].estimate);
    EXPECT_EQ(store_plan.steps[i].strategy, plan.steps[i].strategy);
  }
}

/// Renders a result set as sorted row strings (order-insensitive compare).
std::vector<std::string> SortedRows(const ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string key;
    for (const auto& cell : row) {
      key += cell ? ToString(*cell) : std::string("UNBOUND");
      key += '\x1f';
    }
    rows.push_back(std::move(key));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(QueryEngine, MatchesOracleOnFixtureQueries) {
  KnowledgeBase kb;
  for (int i = 0; i < 12; ++i) {
    ApplicationProfile p;
    p.application = i % 3 == 0 ? "GATK" : "BWA";
    p.input_file_size_gb = 1.0 + i % 5;
    p.etime = 5.0 * (1 + i % 4);
    p.threads = 1 + i % 2;
    p.cpu = i % 2 == 0 ? 8 : 0;
    p.stage = i % 3;
    kb.AddProfile(p);
  }
  const TripleStore& store = kb.store();
  const FrozenIndex frozen = FrozenIndex::Freeze(store);
  const QueryEngine planned(frozen, store.terms());

  const std::string prefixes = KnowledgeBase::QueryPrefixes();
  const std::vector<std::string> queries = {
      // Star join + filter.
      "SELECT ?ind ?size WHERE { ?ind a scan:Application . "
      "?ind scan:inputFileSize ?size . FILTER(?size > 2) }",
      // OPTIONAL with partially-missing attribute.
      "SELECT ?ind ?cpu WHERE { ?ind scan:application \"GATK\" . "
      "OPTIONAL { ?ind scan:CPU ?cpu . } }",
      // UNION.
      "SELECT ?ind WHERE { { ?ind scan:application \"GATK\" . } UNION "
      "{ ?ind scan:application \"BWA\" . } }",
      // ORDER BY: fully ordered, exact row-sequence equality applies.
      "SELECT ?ind ?etime WHERE { ?ind scan:eTime ?etime . } "
      "ORDER BY DESC(?etime) ASC(?ind)",
      // DISTINCT projection.
      "SELECT DISTINCT ?size WHERE { ?ind scan:inputFileSize ?size . }",
      // Aggregates with GROUP BY.
      "SELECT ?app (COUNT(*) AS ?n) (AVG(?etime) AS ?mean) WHERE { "
      "?ind scan:application ?app . ?ind scan:eTime ?etime . } GROUP BY ?app",
      // Unsatisfiable constant.
      "SELECT ?x WHERE { ?x scan:application \"NOPE\" . }",
      // Repeated variable in one pattern.
      "SELECT ?x WHERE { ?x scan:knows ?x . }",
  };
  for (const std::string& body : queries) {
    const std::string text = prefixes + body;
    const auto a = testkit::OracleQuery(store, text);
    const auto b = planned.Execute(text);
    ASSERT_TRUE(a.ok()) << a.status().ToString() << "\n" << body;
    ASSERT_TRUE(b.ok()) << b.status().ToString() << "\n" << body;
    EXPECT_EQ(a.value().variables, b.value().variables) << body;
    EXPECT_EQ(SortedRows(a.value()), SortedRows(b.value())) << body;
  }

  // The ORDER BY query is fully ordered: row sequences must agree exactly.
  const std::string ordered =
      prefixes +
      "SELECT ?ind ?etime WHERE { ?ind scan:eTime ?etime . } "
      "ORDER BY ASC(?etime) ASC(?ind)";
  const auto a = testkit::OracleQuery(store, ordered);
  const auto b = planned.Execute(ordered);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().ToString(), b.value().ToString());
}

TEST(TripleStore, AddBatchMatchesIncrementalAdds) {
  RandomStream rng(1234, "addbatch-test");
  TripleStore incremental;
  TripleStore batched;
  std::vector<Triple> staged;
  for (int i = 0; i < 400; ++i) {
    const Term s = MakeIri("s/" + std::to_string(rng.UniformBelow(40)));
    const Term p = MakeIri("p/" + std::to_string(rng.UniformBelow(6)));
    const Term o = MakeIntLiteral(rng.UniformBelow(25));
    incremental.Add(s, p, o);
    staged.push_back(Triple{batched.terms().Intern(s),
                            batched.terms().Intern(p),
                            batched.terms().Intern(o)});
  }
  // Duplicate a slice of the batch: AddBatch must collapse them.
  staged.insert(staged.end(), staged.begin(), staged.begin() + 50);
  const std::uint64_t rev_before = batched.revision();
  const std::size_t added = batched.AddBatch(staged);
  EXPECT_EQ(added, incremental.size());
  EXPECT_EQ(batched.size(), incremental.size());
  EXPECT_GT(batched.revision(), rev_before);
  EXPECT_EQ(batched.MatchAll({std::nullopt, std::nullopt, std::nullopt}),
            incremental.MatchAll({std::nullopt, std::nullopt, std::nullopt}));
  // A second identical batch is a no-op and does not bump the revision.
  const std::uint64_t rev_after = batched.revision();
  EXPECT_EQ(batched.AddBatch(staged), 0u);
  EXPECT_EQ(batched.revision(), rev_after);
}

TEST(KnowledgeBase, FreezeLifecycleAndBulkLoad) {
  KnowledgeBase incremental;
  KnowledgeBase bulk;
  std::vector<ApplicationProfile> profiles;
  for (int i = 0; i < 30; ++i) {
    ApplicationProfile p;
    p.application = i % 2 == 0 ? "GATK" : "BWA";
    p.input_file_size_gb = 1.0 + i % 7;
    p.etime = 3.0 + i % 5;
    p.cpu = 4;
    p.ram_gb = 8.0;
    profiles.push_back(p);
  }
  for (const auto& p : profiles) incremental.AddProfile(p);
  const auto ids = bulk.AddProfilesBulk(profiles);
  EXPECT_EQ(ids.size(), profiles.size());
  EXPECT_EQ(bulk.store().size(), incremental.store().size());
  EXPECT_EQ(bulk.ProfileCount("GATK"), incremental.ProfileCount("GATK"));

  // Freshness routing: stale after mutation, fresh again after Freeze().
  EXPECT_FALSE(bulk.FrozenFresh());
  EXPECT_EQ(bulk.frozen(), nullptr);
  bulk.Freeze();
  EXPECT_TRUE(bulk.FrozenFresh());
  ASSERT_NE(bulk.frozen(), nullptr);

  const auto legacy_advice = incremental.AdviseShardSize("GATK", 0.5, 100.0);
  const auto frozen_advice = bulk.AdviseShardSize("GATK", 0.5, 100.0);
  ASSERT_TRUE(legacy_advice.ok()) << legacy_advice.status().ToString();
  ASSERT_TRUE(frozen_advice.ok()) << frozen_advice.status().ToString();
  EXPECT_EQ(frozen_advice.value().shard_size_gb,
            legacy_advice.value().shard_size_gb);
  EXPECT_EQ(frozen_advice.value().time_per_gb,
            legacy_advice.value().time_per_gb);
  EXPECT_EQ(frozen_advice.value().source_individual,
            legacy_advice.value().source_individual);
  EXPECT_EQ(frozen_advice.value().recommended_cpu,
            legacy_advice.value().recommended_cpu);
  EXPECT_EQ(frozen_advice.value().recommended_ram_gb,
            legacy_advice.value().recommended_ram_gb);

  // Profiles are byte-identical through either path.
  const auto a = incremental.Profiles("BWA");
  const auto b = bulk.Profiles("BWA");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].individual, b[i].individual);
    EXPECT_EQ(a[i].etime, b[i].etime);
  }

  // Mutation invalidates the snapshot; advice is then served by the
  // staging store and sees the new log.
  ApplicationProfile extra;
  extra.application = "GATK";
  extra.input_file_size_gb = 2.0;
  extra.etime = 0.1;
  bulk.RecordTaskLog(extra);
  EXPECT_FALSE(bulk.FrozenFresh());
  const auto stale_advice = bulk.AdviseShardSize("GATK", 0.5, 100.0);
  ASSERT_TRUE(stale_advice.ok());
  EXPECT_NEAR(stale_advice.value().time_per_gb, 0.05, 1e-12);
}

TEST(KnowledgeBase, FrozenQueryRoutingPreservesResults) {
  KnowledgeBase kb;
  for (int i = 0; i < 10; ++i) {
    ApplicationProfile p;
    p.application = "GATK";
    p.input_file_size_gb = 1.0 + i;
    p.etime = 2.0 * (i + 1);
    kb.AddProfile(p);
  }
  const std::string query = KnowledgeBase::QueryPrefixes() +
                            "SELECT ?ind ?etime WHERE { ?ind scan:eTime "
                            "?etime . } ORDER BY ASC(?etime)";
  const auto before = kb.Query(query);
  kb.Freeze();
  const auto after = kb.Query(query);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before.value().ToString(), after.value().ToString());
}

}  // namespace
}  // namespace scan::kb
