// KB serving hot path: the frozen index vs the legacy reads on a
// bulk-loaded profile graph (DESIGN.md §13). The legacy leg reads the
// hash-map TripleStore directly and, for advice, runs the testkit oracle's
// SPARQL path. Both legs answer the identical seeded query script and must
// agree on a result checksum, so every speedup is measured on provably
// identical answers.
//
// The default instance is the ISSUE target: --profiles=1250000 stages
// ~10M triples (8 per profile on average) through AddProfilesBulk, then
// Freeze() builds the serving index once. Literal values are quantized
// onto small lattices (64 sizes, 64 etimes, 4 thread counts) like real
// profile corpora, which is what makes the POS postings long and
// compressible.
//
// Scenarios (ops auto-scale down on small instances):
//   objects_lookup — Objects(s, p): the broker's per-candidate attribute
//                    fetch. Legacy: hash find + alloc + copy. Frozen: O(1)
//                    row + binary search over the subject's few
//                    predicates, zero-alloc span.
//   first_object   — FirstObject(s, p), the cpu/ram advice probe.
//   subject_count  — |subjects(p, o)|. Legacy materializes the posting;
//                    frozen reads a compressed list's length. O(log).
//   instances_scan — InstancesOf(Application) over every profile. Legacy
//                    copies a million-id vector per call; frozen returns
//                    a span into the type index.
//   advise_query   — shard advice: testkit::OracleAdviseShardSize (the
//                    paper's SPARQL query, parsed and run by the greedy
//                    evaluator over the store) vs AdviseShardSize on the
//                    frozen KB (streaming ranking, span reads).
//
// Each leg runs --reps times after one untimed warm-up and reports its
// best repetition; the frozen leg additionally reports the median
// per-batch ns/op (1000-op batches) as `frozen_median_ns`.
//
// Usage: bench_kb_hotpath [--profiles=N] [--reps=R] [--csv=PATH]
//                         [--json=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "scan/common/csv.hpp"
#include "scan/common/rng.hpp"
#include "scan/common/str.hpp"
#include "scan/kb/frozen_index.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/kb/ontology.hpp"
#include "scan/testkit/kb_oracle.hpp"

namespace scan::bench {
namespace {

using kb::ApplicationProfile;
using kb::FrozenIndex;
using kb::Index;
using kb::KnowledgeBase;
using kb::TermId;
using kb::TripleStore;

constexpr std::size_t kBatchOps = 1000;  // median granularity

struct LegResult {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t checksum = 0;
  double median_ns = 0.0;
};

/// Times `op` (called once per opIndex) in kBatchOps batches; returns the
/// total plus the median per-batch ns/op.
template <typename Op>
LegResult TimeOps(std::uint64_t ops, Op&& op) {
  LegResult result;
  result.ops = ops;
  std::vector<double> batch_ns;
  batch_ns.reserve(ops / kBatchOps + 1);
  std::uint64_t done = 0;
  const auto start = std::chrono::steady_clock::now();
  while (done < ops) {
    const std::uint64_t batch =
        std::min<std::uint64_t>(kBatchOps, ops - done);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < batch; ++i) {
      result.checksum += op(done + i);
    }
    const auto t1 = std::chrono::steady_clock::now();
    batch_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(batch));
    done += batch;
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::sort(batch_ns.begin(), batch_ns.end());
  result.median_ns =
      batch_ns.empty() ? 0.0 : batch_ns[batch_ns.size() / 2];
  return result;
}

struct Workload {
  KnowledgeBase kb;                 // frozen after load
  KnowledgeBase legacy_kb;          // identical content, never frozen
  std::vector<TermId> individuals;  // profile subjects
  std::vector<TermId> attr_preds;   // size/etime/threads/steps
  std::vector<TermId> sparse_preds; // cpu/ram (half the profiles)
  TermId rdf_type = kb::kInvalidTermId;
  TermId class_application = kb::kInvalidTermId;
  std::vector<std::string> apps;
  std::vector<TermId> size_objects;  // interned size literals
};

Workload BuildWorkload(std::size_t profiles) {
  Workload w;
  for (int i = 0; i < 16; ++i) w.apps.push_back("App" + std::to_string(i));

  std::vector<ApplicationProfile> batch;
  batch.reserve(profiles);
  RandomStream rng(2025, "kb-hotpath/profiles");
  for (std::size_t i = 0; i < profiles; ++i) {
    ApplicationProfile p;
    p.application = w.apps[rng.UniformBelow(16)];
    // Quantized literal lattices: realistic repetition, long postings.
    p.input_file_size_gb = 0.5 * (1 + rng.UniformBelow(64));
    p.etime = 2.0 * (1 + rng.UniformBelow(64));
    p.threads = 1 + static_cast<int>(rng.UniformBelow(4));
    p.steps = 1 + static_cast<int>(rng.UniformBelow(3));
    // cpu on even profiles, ram on odd: 8 triples per profile on average
    // (type x2, application, size, etime, threads, steps, cpu|ram).
    if (i % 2 == 0) {
      p.cpu = 4 << rng.UniformBelow(3);
    } else {
      p.ram_gb = 8.0 * (1 + rng.UniformBelow(4));
    }
    batch.push_back(std::move(p));
  }

  // Both KBs bulk-load (per-triple Add would hit the quadratic posting-
  // insert path at millions of profiles); only w.kb is ever frozen, and
  // the legacy leg reads legacy_kb's hash-map store. Identical staging
  // order means identical term ids on both sides.
  w.individuals = w.kb.AddProfilesBulk(batch);
  w.legacy_kb.AddProfilesBulk(batch);

  const auto& terms = w.kb.store().terms();
  const auto id = [&](const kb::Term& t) { return *terms.Lookup(t); };
  w.attr_preds = {id(kb::vocab::PropInputFileSize()), id(kb::vocab::PropETime()),
                  id(kb::vocab::PropThreads()), id(kb::vocab::PropSteps())};
  w.sparse_preds = {id(kb::vocab::PropCpu()), id(kb::vocab::PropRam())};
  w.rdf_type = id(kb::MakeIri(std::string(kb::kRdfType)));
  w.class_application = id(kb::vocab::ClassApplication());
  for (int v = 1; v <= 64; ++v) {
    if (const auto sid = terms.Lookup(kb::MakeDoubleLiteral(0.5 * v))) {
      w.size_objects.push_back(*sid);
    }
  }
  return w;
}

std::uint64_t HashAdvice(const Result<kb::ShardAdvice>& advice) {
  if (!advice.ok()) return 0x9e3779b97f4a7c15ull;
  std::uint64_t h = Fnv1a64(advice.value().source_individual);
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &advice.value().shard_size_gb, sizeof(bits));
  h = MixSeed(h, bits);
  std::memcpy(&bits, &advice.value().time_per_gb, sizeof(bits));
  return MixSeed(h, bits);
}

}  // namespace
}  // namespace scan::bench

static int Main(int argc, char** argv) {
  using namespace scan;
  using namespace scan::bench;

  const Flags flags(argc, argv);
  const auto obs = MakeObsSession(flags);
  const auto profiles =
      static_cast<std::size_t>(flags.GetDouble("profiles", 1'250'000));
  const int reps = flags.GetInt("reps", 3);
  const TableOutput output(flags);
  flags.RejectUnread();

  std::fprintf(stderr, "building workload: %zu profiles...\n", profiles);
  Workload w = BuildWorkload(profiles);
  const std::size_t triples = w.kb.store().size();
  std::fprintf(stderr, "staged %zu triples; freezing...\n", triples);
  const auto freeze_start = std::chrono::steady_clock::now();
  const FrozenIndex& frozen = w.kb.Freeze();
  const double freeze_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - freeze_start)
                              .count();
  std::fprintf(stderr,
               "frozen in %.1fs: %zu charsets, %.1f MB compressed postings "
               "(%.2f bytes/value)\n",
               freeze_s, frozen.stats().characteristic_sets,
               static_cast<double>(frozen.stats().compressed_postings_bytes) /
                   1e6,
               static_cast<double>(frozen.stats().compressed_postings_bytes) /
                   static_cast<double>(
                       std::max<std::size_t>(1,
                                             frozen.stats().raw_posting_values)));
  const TripleStore& store = w.legacy_kb.store();

  // Pre-drawn query scripts so both legs replay identical ops.
  RandomStream rng(7, "kb-hotpath/queries");
  const std::uint64_t point_ops =
      std::min<std::uint64_t>(2'000'000, profiles * 2);
  std::vector<std::pair<TermId, TermId>> point_queries;  // (subject, pred)
  point_queries.reserve(point_ops);
  const auto n_ind = static_cast<std::uint32_t>(w.individuals.size());
  for (std::uint64_t i = 0; i < point_ops; ++i) {
    const TermId s = w.individuals[rng.UniformBelow(n_ind)];
    // 1 in 4 probes a sparse predicate (cpu/ram), exercising misses.
    const TermId p = rng.UniformBelow(4) == 0
                         ? w.sparse_preds[rng.UniformBelow(2)]
                         : w.attr_preds[rng.UniformBelow(4)];
    point_queries.emplace_back(s, p);
  }

  // The legacy leg linearly scans the whole per-predicate posting (1.25M
  // pairs at full scale, ~ms per op), so large instances cap the op count.
  const std::uint64_t count_ops =
      profiles >= 100'000 ? 1'000 : std::min<std::uint64_t>(200'000, point_ops);
  std::vector<std::pair<TermId, TermId>> count_queries;  // (pred, object)
  count_queries.reserve(count_ops);
  for (std::uint64_t i = 0; i < count_ops; ++i) {
    count_queries.emplace_back(
        w.attr_preds[0], w.size_objects[rng.UniformBelow(
                             static_cast<std::uint32_t>(
                                 w.size_objects.size()))]);
  }

  const std::uint64_t instance_ops = profiles >= 100'000 ? 50 : 500;
  const std::uint64_t advise_ops = profiles >= 100'000 ? 20 : 100;
  std::vector<std::pair<std::string, std::pair<double, double>>> advises;
  for (std::uint64_t i = 0; i < advise_ops; ++i) {
    const double lo = 0.5 * (1 + rng.UniformBelow(16));
    advises.emplace_back(w.apps[rng.UniformBelow(16)],
                         std::make_pair(lo, lo + 0.5 * (1 + rng.UniformBelow(32))));
  }

  struct Scenario {
    std::string name;
    std::uint64_t ops;
    std::function<LegResult()> legacy;
    std::function<LegResult()> frozen_leg;
  };

  const std::vector<Scenario> scenarios = {
      {"objects_lookup", point_ops,
       [&] {
         return TimeOps(point_ops, [&](std::uint64_t i) {
           const auto& [s, p] = point_queries[i];
           std::uint64_t sum = 0;
           for (const TermId o : store.Objects(s, p)) sum += Index(o);
           return sum;
         });
       },
       [&] {
         return TimeOps(point_ops, [&](std::uint64_t i) {
           const auto& [s, p] = point_queries[i];
           std::uint64_t sum = 0;
           for (const TermId o : frozen.Objects(s, p)) sum += Index(o);
           return sum;
         });
       }},
      {"first_object", point_ops,
       [&] {
         return TimeOps(point_ops, [&](std::uint64_t i) {
           const auto& [s, p] = point_queries[i];
           const auto o = store.FirstObject(s, p);
           return o ? static_cast<std::uint64_t>(Index(*o)) : 0ull;
         });
       },
       [&] {
         return TimeOps(point_ops, [&](std::uint64_t i) {
           const auto& [s, p] = point_queries[i];
           const auto o = frozen.FirstObject(s, p);
           return o ? static_cast<std::uint64_t>(Index(*o)) : 0ull;
         });
       }},
      {"subject_count", count_ops,
       [&] {
         return TimeOps(count_ops, [&](std::uint64_t i) {
           const auto& [p, o] = count_queries[i];
           return static_cast<std::uint64_t>(store.Subjects(p, o).size());
         });
       },
       [&] {
         return TimeOps(count_ops, [&](std::uint64_t i) {
           const auto& [p, o] = count_queries[i];
           return static_cast<std::uint64_t>(frozen.SubjectCount(p, o));
         });
       }},
      {"instances_scan", instance_ops,
       [&] {
         return TimeOps(instance_ops, [&](std::uint64_t) {
           const auto instances = store.InstancesOf(w.class_application);
           return static_cast<std::uint64_t>(instances.size()) +
                  (instances.empty() ? 0 : Index(instances.front()) +
                                               Index(instances.back()));
         });
       },
       [&] {
         return TimeOps(instance_ops, [&](std::uint64_t) {
           const auto instances = frozen.InstancesOf(w.class_application);
           return static_cast<std::uint64_t>(instances.size()) +
                  (instances.empty() ? 0 : Index(instances.front()) +
                                               Index(instances.back()));
         });
       }},
      {"advise_query", advise_ops,
       [&] {
         return TimeOps(advise_ops, [&](std::uint64_t i) {
           const auto& [app, bounds] = advises[i];
           return HashAdvice(testkit::OracleAdviseShardSize(
               store, app, bounds.first, bounds.second));
         });
       },
       [&] {
         return TimeOps(advise_ops, [&](std::uint64_t i) {
           const auto& [app, bounds] = advises[i];
           return HashAdvice(
               w.kb.AdviseShardSize(app, bounds.first, bounds.second));
         });
       }},
  };

  CsvTable table({"scenario", "profiles", "triples", "ops", "legacy_ns",
                  "frozen_ns", "frozen_median_ns", "speedup",
                  "checksum_match"});
  for (const Scenario& scenario : scenarios) {
    // Untimed warm-up primes page cache and branch predictors.
    (void)scenario.frozen_leg();
    (void)scenario.legacy();

    LegResult frozen_best = scenario.frozen_leg();
    LegResult legacy_best = scenario.legacy();
    for (int rep = 1; rep < reps; ++rep) {
      const LegResult f = scenario.frozen_leg();
      if (f.seconds < frozen_best.seconds) frozen_best = f;
      const LegResult l = scenario.legacy();
      if (l.seconds < legacy_best.seconds) legacy_best = l;
    }

    const double legacy_ns =
        legacy_best.seconds * 1e9 / static_cast<double>(legacy_best.ops);
    const double frozen_ns =
        frozen_best.seconds * 1e9 / static_cast<double>(frozen_best.ops);
    const bool match = frozen_best.checksum == legacy_best.checksum;
    table.AddRow({scenario.name,
                  StrFormat("%zu", profiles),
                  StrFormat("%zu", triples),
                  StrFormat("%llu", (unsigned long long)scenario.ops),
                  StrFormat("%.1f", legacy_ns),
                  StrFormat("%.1f", frozen_ns),
                  StrFormat("%.1f", frozen_best.median_ns),
                  StrFormat("%.2f", legacy_ns / frozen_ns),
                  match ? "yes" : "DIVERGED"});
    if (!match) {
      std::fprintf(stderr, "FATAL: legs diverged on %s\n",
                   scenario.name.c_str());
      return 1;
    }
  }

  Emit(table, output);
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
