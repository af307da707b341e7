// Randomized differential fuzz over the KB's two backends. Because Freeze()
// keeps the staging store's term ids, every FrozenIndex answer must be
// id-identical to the TripleStore's — pattern scans in the same emission
// order, broker accessors element-for-element, and the planner statistics
// value-for-value. On top of that, the one executor returns the same
// ResultSet row for row over either backend, and both agree with the
// testkit oracle (greedy evaluator, SPARQL advice): solution multisets
// query-for-query, ORDER BY rows in sequence, AdviseShardSize field-equal.
//
// The suites run under ASan/UBSan/TSan in CI (see .github/workflows/ci.yml);
// the concurrency test at the bottom exercises the const, cache-free read
// paths of both backends under TSan.

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scan/common/rng.hpp"
#include "scan/kb/frozen_index.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/kb/plan.hpp"
#include "scan/kb/sparql.hpp"
#include "scan/kb/triple_store.hpp"
#include "scan/testkit/kb_oracle.hpp"

namespace scan::kb {
namespace {

/// Small closed vocabularies keep the graphs dense enough that random
/// patterns actually hit postings (and produce repeated-id collisions).
Term RandomSubject(RandomStream& rng) {
  return MakeIri("s/" + std::to_string(rng.UniformBelow(30)));
}

Term RandomPredicate(RandomStream& rng) {
  if (rng.UniformBelow(8) == 0) return MakeIri(std::string(kRdfType));
  return MakeIri("p/" + std::to_string(rng.UniformBelow(8)));
}

Term RandomObject(RandomStream& rng) {
  switch (rng.UniformBelow(4)) {
    case 0:
      return MakeIri("s/" + std::to_string(rng.UniformBelow(30)));
    case 1:
      return MakeIri("c/" + std::to_string(rng.UniformBelow(5)));
    case 2:
      return MakeIntLiteral(static_cast<int>(rng.UniformBelow(20)));
    default:
      return MakeDoubleLiteral(0.5 * (1 + rng.UniformBelow(10)));
  }
}

/// Builds a random store: a batch of adds followed by a sprinkle of
/// removes, so Freeze() sees a store whose postings have holes.
TripleStore RandomStore(std::uint64_t seed, std::size_t triples) {
  RandomStream rng(seed, "differential/store");
  TripleStore store;
  std::vector<Triple> added;
  for (std::size_t i = 0; i < triples; ++i) {
    const Term s = RandomSubject(rng);
    const Term p = RandomPredicate(rng);
    const Term o = RandomObject(rng);
    store.Add(s, p, o);
    added.push_back(Triple{*store.terms().Lookup(s), *store.terms().Lookup(p),
                           *store.terms().Lookup(o)});
  }
  const std::size_t removals = triples / 10;
  for (std::size_t i = 0; i < removals && !added.empty(); ++i) {
    const std::size_t at = rng.UniformBelow(
        static_cast<std::uint32_t>(added.size()));
    store.Remove(added[at]);
  }
  return store;
}

/// A random id biased toward ids that exist in the store (plus a few
/// absent / out-of-range ids to probe the miss paths).
std::optional<TermId> RandomPosition(RandomStream& rng,
                                     const TripleStore& store) {
  switch (rng.UniformBelow(6)) {
    case 0:
      return std::nullopt;  // wildcard
    case 1:
      return TermId{1 + rng.UniformBelow(
                 static_cast<std::uint32_t>(store.terms().size() + 8))};
    default:
      return TermId{1 + rng.UniformBelow(
                 static_cast<std::uint32_t>(store.terms().size()))};
  }
}

TEST(FrozenDifferential, MatchOrderAndAccessorsAgreeWithLegacy) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    const TripleStore store = RandomStore(seed, 600);
    const FrozenIndex frozen = FrozenIndex::Freeze(store);
    ASSERT_EQ(frozen.size(), store.size()) << "seed=" << seed;

    RandomStream rng(seed, "differential/patterns");
    for (int i = 0; i < 300; ++i) {
      const TriplePatternIds pattern{RandomPosition(rng, store),
                                     RandomPosition(rng, store),
                                     RandomPosition(rng, store)};
      ASSERT_EQ(frozen.MatchAll(pattern), store.MatchAll(pattern))
          << "seed=" << seed << " iter=" << i;
    }

    for (int i = 0; i < 300; ++i) {
      const TermId s{1 + rng.UniformBelow(
          static_cast<std::uint32_t>(store.terms().size() + 4))};
      const TermId p{1 + rng.UniformBelow(
          static_cast<std::uint32_t>(store.terms().size() + 4))};
      const auto frozen_objects = frozen.Objects(s, p);
      ASSERT_EQ(std::vector<TermId>(frozen_objects.begin(),
                                    frozen_objects.end()),
                store.Objects(s, p))
          << "seed=" << seed;
      ASSERT_EQ(frozen.FirstObject(s, p), store.FirstObject(s, p));
      ASSERT_EQ(frozen.Subjects(p, s), store.Subjects(p, s));
      ASSERT_EQ(frozen.SubjectCount(p, s), store.Subjects(p, s).size());
      const auto frozen_instances = frozen.InstancesOf(s);
      ASSERT_EQ(std::vector<TermId>(frozen_instances.begin(),
                                    frozen_instances.end()),
                store.InstancesOf(s));
      ASSERT_EQ(frozen.Contains(Triple{s, p, s}),
                store.Contains(Triple{s, p, s}));
    }

    // CountEstimate is exact on constants-only patterns.
    for (int i = 0; i < 100; ++i) {
      const TriplePatternIds pattern{RandomPosition(rng, store),
                                     RandomPosition(rng, store),
                                     RandomPosition(rng, store)};
      if (pattern.s && pattern.p && pattern.o) {
        ASSERT_EQ(frozen.CountEstimate(pattern),
                  store.Contains(Triple{*pattern.s, *pattern.p, *pattern.o})
                      ? 1u
                      : 0u);
      } else if (!pattern.s && !pattern.p && !pattern.o) {
        ASSERT_EQ(frozen.CountEstimate(pattern), store.size());
      } else if (pattern.s && !pattern.p && pattern.o) {
        // (s, ?, o) is estimated by the subject's degree: an upper bound.
        ASSERT_GE(frozen.CountEstimate(pattern),
                  store.MatchAll(pattern).size());
      } else {
        ASSERT_EQ(frozen.CountEstimate(pattern),
                  store.MatchAll(pattern).size())
            << "seed=" << seed;
      }
    }
  }
}

TEST(FrozenDifferential, PlannerStatisticsAgreeAcrossBackends) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    const TripleStore store = RandomStore(seed, 600);
    const FrozenIndex frozen = FrozenIndex::Freeze(store);
    EXPECT_EQ(store.distinct_counts(), frozen.distinct_counts())
        << "seed=" << seed;

    RandomStream rng(seed, "differential/statistics");
    const auto id_in_range = [&] {
      return TermId{1 + rng.UniformBelow(
                        static_cast<std::uint32_t>(store.terms().size()))};
    };
    // Every one of the 8 pattern shapes, over random constants.
    for (int i = 0; i < 200; ++i) {
      const TermId s = id_in_range();
      const TermId p = id_in_range();
      const TermId o = id_in_range();
      for (unsigned shape = 0; shape < 8; ++shape) {
        TriplePatternIds pattern;
        if (shape & 1u) pattern.s = s;
        if (shape & 2u) pattern.p = p;
        if (shape & 4u) pattern.o = o;
        ASSERT_EQ(store.CountEstimate(pattern), frozen.CountEstimate(pattern))
            << "seed=" << seed << " shape=" << shape;
      }
    }
    // Random predicate sets, drawn mostly from predicates in use, with
    // repeats and the odd absent id.
    for (int i = 0; i < 200; ++i) {
      std::vector<TermId> predicates;
      const std::uint32_t n = rng.UniformBelow(4);
      for (std::uint32_t k = 0; k < n; ++k) {
        predicates.push_back(rng.UniformBelow(10) == 0
                                 ? id_in_range()
                                 : store.terms()
                                       .Lookup(RandomPredicate(rng))
                                       .value_or(kInvalidTermId));
      }
      ASSERT_EQ(store.CountSubjectsWithPredicates(predicates),
                frozen.CountSubjectsWithPredicates(predicates))
          << "seed=" << seed << " iter=" << i;
    }
  }
}

TEST(FrozenDifferential, FreezeAfterMutationTracksTheStore) {
  RandomStream rng(77, "differential/mutation");
  TripleStore store;
  std::vector<Triple> live;
  for (int round = 0; round < 6; ++round) {
    // Mutate: a mix of single adds, batch adds, and removes.
    std::vector<Triple> staged;
    for (int i = 0; i < 120; ++i) {
      const Term s = RandomSubject(rng);
      const Term p = RandomPredicate(rng);
      const Term o = RandomObject(rng);
      if (rng.UniformBelow(2) == 0) {
        store.Add(s, p, o);
      } else {
        staged.push_back(Triple{store.terms().Intern(s),
                                store.terms().Intern(p),
                                store.terms().Intern(o)});
      }
    }
    store.AddBatch(staged);
    live = store.MatchAll({std::nullopt, std::nullopt, std::nullopt});
    for (int i = 0; i < 25 && !live.empty(); ++i) {
      store.Remove(live[rng.UniformBelow(
          static_cast<std::uint32_t>(live.size()))]);
    }

    const FrozenIndex frozen = FrozenIndex::Freeze(store);
    ASSERT_EQ(frozen.size(), store.size()) << "round=" << round;
    ASSERT_EQ(frozen.MatchAll({std::nullopt, std::nullopt, std::nullopt}),
              store.MatchAll({std::nullopt, std::nullopt, std::nullopt}));
  }
}

/// Renders solution rows order-insensitively.
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

TEST(FrozenDifferential, SparqlResultSetsAgreeOnRandomProfileGraphs) {
  for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
    RandomStream rng(seed, "differential/profiles");
    KnowledgeBase kb;
    const std::vector<std::string> apps = {"GATK", "BWA", "SAMtools"};
    for (int i = 0; i < 60; ++i) {
      ApplicationProfile p;
      p.application = apps[rng.UniformBelow(3)];
      // Quantized lattices force score ties and shared literals.
      p.input_file_size_gb = 0.5 * (1 + rng.UniformBelow(8));
      p.etime = 2.0 * (1 + rng.UniformBelow(6));
      p.threads = 1 + static_cast<int>(rng.UniformBelow(4));
      p.stage = static_cast<int>(rng.UniformBelow(3));
      if (rng.UniformBelow(2) == 0) p.cpu = 4 << rng.UniformBelow(3);
      if (rng.UniformBelow(3) == 0) p.ram_gb = 8.0 * (1 + rng.UniformBelow(4));
      kb.AddProfile(p);
    }

    const std::string prefixes = KnowledgeBase::QueryPrefixes();
    std::vector<std::string> queries;
    for (const std::string& app : apps) {
      queries.push_back(
          "SELECT ?ind ?size ?etime WHERE { ?ind a scan:Application . ?ind "
          "scan:application \"" + app + "\" . ?ind scan:inputFileSize ?size "
          ". ?ind scan:eTime ?etime . }");
      queries.push_back(
          "SELECT ?ind ?cpu WHERE { ?ind scan:application \"" + app +
          "\" . OPTIONAL { ?ind scan:CPU ?cpu . } FILTER(BOUND(?cpu) || "
          "!BOUND(?cpu)) }");
    }
    queries.push_back(
        "SELECT ?ind WHERE { { ?ind scan:application \"GATK\" . ?ind "
        "scan:threads ?t . FILTER(?t >= 2) } UNION { ?ind scan:application "
        "\"BWA\" . } }");
    queries.push_back(
        "SELECT DISTINCT ?size WHERE { ?ind scan:inputFileSize ?size . }");
    queries.push_back(
        "SELECT ?app (COUNT(*) AS ?n) (MIN(?etime) AS ?best) WHERE { ?ind "
        "scan:application ?app . ?ind scan:eTime ?etime . } GROUP BY ?app");
    queries.push_back(
        "SELECT ?ind ?etime WHERE { ?ind scan:eTime ?etime . ?ind "
        "scan:threads ?t . FILTER(?t < 3) } ORDER BY ASC(?etime) ASC(?ind) "
        "LIMIT 20");
    // Star and object-join shapes where a greedy order and the planner's
    // order produce rows in different sequences.
    queries.push_back(
        "SELECT ?ind ?size WHERE { ?ind scan:inputFileSize ?size . ?ind "
        "scan:threads ?t . ?ind scan:stage ?st . }");
    queries.push_back(
        "SELECT ?a ?b WHERE { ?a scan:eTime ?e . ?b scan:eTime ?e . ?a "
        "scan:CPU ?c . }");

    // The staging store answers first (the KB has never been frozen) ...
    std::vector<std::string> staged_answers;
    for (const std::string& body : queries) {
      const auto rs = kb.Query(prefixes + body);
      ASSERT_TRUE(rs.ok()) << rs.status().ToString() << "\n" << body;
      staged_answers.push_back(rs.value().ToString());
    }
    // ... then the frozen snapshot: the same rows in the same order.
    kb.Freeze();
    ASSERT_TRUE(kb.FrozenFresh());
    const TripleStore& store = kb.store();
    const QueryEngine over_store(store);
    const QueryEngine over_frozen(*kb.frozen(), store.terms());

    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::string& body = queries[q];
      const std::string text = prefixes + body;
      const auto fresh = kb.Query(text);
      const auto a = over_store.Execute(text);
      const auto b = over_frozen.Execute(text);
      const auto oracle = testkit::OracleQuery(store, text);
      ASSERT_TRUE(fresh.ok() && a.ok() && b.ok()) << body;
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\n" << body;
      EXPECT_EQ(fresh.value().ToString(), staged_answers[q])
          << "seed=" << seed << "\n" << body;
      EXPECT_EQ(a.value().ToString(), b.value().ToString())
          << "seed=" << seed << "\n" << body;
      ASSERT_EQ(oracle.value().variables, b.value().variables) << body;
      ASSERT_EQ(SortedRows(oracle.value()), SortedRows(b.value()))
          << "seed=" << seed << "\n" << body;
      if (body.find("ORDER BY") != std::string::npos) {
        EXPECT_EQ(oracle.value().ToString(), b.value().ToString())
            << "seed=" << seed << "\n" << body;
      }
    }
  }
}

/// Field-by-field advice comparison, errors included.
void ExpectSameAdvice(const Result<ShardAdvice>& expected,
                      const Result<ShardAdvice>& actual,
                      const std::string& where) {
  ASSERT_EQ(expected.ok(), actual.ok())
      << where << " expected=" << expected.status().ToString()
      << " actual=" << actual.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().ToString(), actual.status().ToString())
        << where;
    return;
  }
  EXPECT_EQ(expected.value().shard_size_gb, actual.value().shard_size_gb)
      << where;
  EXPECT_EQ(expected.value().time_per_gb, actual.value().time_per_gb)
      << where;
  EXPECT_EQ(expected.value().source_individual,
            actual.value().source_individual)
      << where;
  EXPECT_EQ(expected.value().recommended_cpu, actual.value().recommended_cpu)
      << where;
  EXPECT_EQ(expected.value().recommended_ram_gb,
            actual.value().recommended_ram_gb)
      << where;
}

TEST(FrozenDifferential, BrokerAdvicePathsAreBitIdentical) {
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    RandomStream rng(seed, "differential/advice");
    std::vector<ApplicationProfile> profiles;
    const std::vector<std::string> apps = {"GATK", "BWA"};
    for (int i = 0; i < 80; ++i) {
      ApplicationProfile p;
      p.application = apps[rng.UniformBelow(2)];
      // Heavy quantization: many profiles tie on (etime / size) so the
      // advice paths must agree on tie-breaking, not just scoring.
      p.input_file_size_gb = 1.0 * (1 + rng.UniformBelow(4));
      p.etime = 4.0 * (1 + rng.UniformBelow(3));
      if (rng.UniformBelow(2) == 0) p.cpu = 8;
      if (rng.UniformBelow(2) == 0) p.ram_gb = 16.0;
      profiles.push_back(p);
    }

    KnowledgeBase staged_kb;  // never frozen: served by the staging store
    for (const auto& p : profiles) staged_kb.AddProfile(p);
    KnowledgeBase frozen_kb;
    frozen_kb.AddProfilesBulk(profiles);
    frozen_kb.Freeze();
    ASSERT_TRUE(frozen_kb.FrozenFresh());

    const std::vector<std::pair<double, double>> bounds = {
        {0.5, 10.0}, {2.0, 3.0}, {3.5, 4.0}, {9.0, 9.5}, {3.0, 2.0}};
    for (const std::string& app : apps) {
      for (const auto& [lo, hi] : bounds) {
        const std::string where = "seed=" + std::to_string(seed) + " app=" +
                                  app + " [" + std::to_string(lo) + "," +
                                  std::to_string(hi) + "]";
        const auto oracle =
            testkit::OracleAdviseShardSize(staged_kb.store(), app, lo, hi);
        ExpectSameAdvice(oracle, staged_kb.AdviseShardSize(app, lo, hi),
                         where + " staged");
        ExpectSameAdvice(oracle, frozen_kb.AdviseShardSize(app, lo, hi),
                         where + " fresh");
      }

      // Profiles() answers element-for-element through either backend.
      const auto pa = staged_kb.Profiles(app);
      const auto pb = frozen_kb.Profiles(app);
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].individual, pb[i].individual);
        EXPECT_EQ(pa[i].input_file_size_gb, pb[i].input_file_size_gb);
        EXPECT_EQ(pa[i].etime, pb[i].etime);
        EXPECT_EQ(pa[i].cpu, pb[i].cpu);
        EXPECT_EQ(pa[i].ram_gb, pb[i].ram_gb);
      }
    }

    // A task log makes the snapshot stale: advice now comes from the
    // staging store and must still match the oracle over it.
    ApplicationProfile log;
    log.application = "GATK";
    log.input_file_size_gb = 2.0;
    log.etime = 4.0;
    frozen_kb.RecordTaskLog(log);
    ASSERT_FALSE(frozen_kb.FrozenFresh());
    for (const std::string& app : apps) {
      for (const auto& [lo, hi] : bounds) {
        ExpectSameAdvice(
            testkit::OracleAdviseShardSize(frozen_kb.store(), app, lo, hi),
            frozen_kb.AdviseShardSize(app, lo, hi),
            "seed=" + std::to_string(seed) + " app=" + app + " stale");
      }
    }
  }
}

TEST(FrozenDifferential, ConcurrentReadsAreRaceFree) {
  const TripleStore store = RandomStore(999, 800);
  const FrozenIndex frozen = FrozenIndex::Freeze(store);
  const auto expected =
      frozen.MatchAll({std::nullopt, std::nullopt, std::nullopt});

  // Two KBs with the same content: one served by its frozen snapshot, one
  // by its staging store.
  std::vector<ApplicationProfile> profiles;
  RandomStream profile_rng(999, "differential/concurrent-profiles");
  for (int i = 0; i < 60; ++i) {
    ApplicationProfile p;
    p.application = profile_rng.UniformBelow(2) == 0 ? "GATK" : "BWA";
    p.input_file_size_gb = 1.0 * (1 + profile_rng.UniformBelow(4));
    p.etime = 4.0 * (1 + profile_rng.UniformBelow(3));
    p.threads = 1 + static_cast<int>(profile_rng.UniformBelow(4));
    if (profile_rng.UniformBelow(2) == 0) p.cpu = 8;
    profiles.push_back(p);
  }
  KnowledgeBase staged_kb;
  staged_kb.AddProfilesBulk(profiles);
  KnowledgeBase frozen_kb;
  frozen_kb.AddProfilesBulk(profiles);
  frozen_kb.Freeze();
  const QueryEngine over_store(staged_kb.store());
  const QueryEngine over_frozen(*frozen_kb.frozen(), frozen_kb.store().terms());
  const std::string query =
      KnowledgeBase::QueryPrefixes() +
      "SELECT ?ind ?size WHERE { ?ind scan:inputFileSize ?size . ?ind "
      "scan:threads ?t . FILTER(?t >= 2) }";
  const std::string expected_rows = over_store.Execute(query)->ToString();
  const auto expected_advice = staged_kb.AdviseShardSize("GATK", 0.5, 10.0);
  ASSERT_TRUE(expected_advice.ok());

  std::vector<std::thread> readers;
  std::vector<char> ok(4, 0);  // not vector<bool>: its bits share bytes
  for (std::size_t t = 0; t < ok.size(); ++t) {
    readers.emplace_back([&, t] {
      bool all_good = true;
      RandomStream rng(1000 + t, "differential/concurrent");
      for (int i = 0; i < 50; ++i) {
        const TermId s{1 + rng.UniformBelow(
            static_cast<std::uint32_t>(store.terms().size()))};
        const TermId p{1 + rng.UniformBelow(
            static_cast<std::uint32_t>(store.terms().size()))};
        const auto objects = frozen.Objects(s, p);
        all_good = all_good &&
                   std::is_sorted(objects.begin(), objects.end(),
                                  [](TermId a, TermId b) {
                                    return Index(a) < Index(b);
                                  });
        all_good = all_good && frozen.Subjects(p, s) == store.Subjects(p, s);
      }
      all_good =
          all_good &&
          frozen.MatchAll({std::nullopt, std::nullopt, std::nullopt}) ==
              expected;
      for (int i = 0; i < 5; ++i) {
        for (const QueryEngine* engine : {&over_store, &over_frozen}) {
          const auto rows = engine->Execute(query);
          all_good = all_good && rows.ok() && rows->ToString() == expected_rows;
        }
        for (const KnowledgeBase* kb : {&staged_kb, &frozen_kb}) {
          const auto advice = kb->AdviseShardSize("GATK", 0.5, 10.0);
          all_good = all_good && advice.ok() &&
                     advice->source_individual ==
                         expected_advice->source_individual &&
                     advice->shard_size_gb == expected_advice->shard_size_gb;
        }
      }
      ok[t] = all_good;
    });
  }
  for (auto& reader : readers) reader.join();
  for (std::size_t t = 0; t < ok.size(); ++t) {
    EXPECT_TRUE(ok[t]) << "reader " << t;
  }
}

}  // namespace
}  // namespace scan::kb
