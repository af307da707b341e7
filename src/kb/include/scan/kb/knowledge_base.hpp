#pragma once

// The SCAN knowledge base (§III-A): application profiles stored as
// OWL-style named individuals, expanded over time from task logs, and
// queried (in SPARQL) by the Data Broker to choose shard sizes and
// resource settings.
//
// Life cycle, as in the paper:
//  1. bootstrap by profiling common genome applications (AddProfile),
//  2. expand from the logs of every task run on the platform
//     (RecordTaskLog),
//  3. query for advice (AdviseShardSize / AdviseThreads / FitETimeModel).
//
// Reads run one code path over the fresh FrozenIndex snapshot, or over the
// staging TripleStore once a write made it stale: answers (advice, profiles,
// SPARQL rows in order) never depend on freshness, only speed does.

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "scan/common/stats.hpp"
#include "scan/common/status.hpp"
#include "scan/kb/frozen_index.hpp"
#include "scan/kb/ontology.hpp"
#include "scan/kb/sparql.hpp"
#include "scan/kb/triple_store.hpp"

namespace scan::kb {

/// One profile observation of an application: matches the GATKn individuals
/// in the paper (inputFileSize / steps / RAM / eTime / CPU), extended with
/// the pipeline stage and thread count needed for per-stage advice.
struct ApplicationProfile {
  std::string individual;   ///< local name, e.g. "GATK1"; "" = auto-named
  std::string application;  ///< tool name, e.g. "GATK", "BWA", "MaxQuant"
  int stage = 0;            ///< 1-based pipeline stage; 0 = whole pipeline
  double input_file_size_gb = 0.0;
  int steps = 1;
  int cpu = 0;      ///< cores of the machine the profile ran on
  double ram_gb = 0.0;
  double etime = 0.0;  ///< measured execution time
  int threads = 1;     ///< threads the run used
  std::string performance;  ///< optional qualitative tag ("good", ...)
};

/// Advice produced by ranking profile individuals, following §III-A-2:
/// "the selected GATK instances are ranked according to the values of their
/// execution time and the size of input files".
struct ShardAdvice {
  double shard_size_gb = 0.0;
  int recommended_cpu = 0;
  double recommended_ram_gb = 0.0;
  std::string source_individual;  ///< the winning profile
  double time_per_gb = 0.0;       ///< the ranking score (lower is better)
};

class KnowledgeBase {
 public:
  /// Seeds the SCAN ontology schema and standard data formats.
  KnowledgeBase();

  /// Adds a bootstrap profile; returns the individual's term id.
  TermId AddProfile(const ApplicationProfile& profile);

  /// Bulk bootstrap: stages every profile's triples with one
  /// TripleStore::AddBatch (O(n log n) where per-triple insertion into
  /// large posting lists is quadratic). The path for loading millions of
  /// profiles before Freeze(). Returns the individuals' term ids.
  std::vector<TermId> AddProfilesBulk(
      std::span<const ApplicationProfile> profiles);

  /// Expands the KB from the log of a finished task (same payload as a
  /// profile; auto-named "<App>N" like the paper's GATK1..GATK4 sequence).
  TermId RecordTaskLog(const ApplicationProfile& log_entry);

  /// Number of profile individuals stored for an application.
  [[nodiscard]] std::size_t ProfileCount(std::string_view application) const;

  /// All profiles of an application (stage filter optional), in insertion
  /// order of their individuals.
  [[nodiscard]] std::vector<ApplicationProfile> Profiles(
      std::string_view application,
      std::optional<int> stage = std::nullopt) const;

  /// Chooses a shard size for `application` with size clamped to
  /// [min_gb, max_gb]: ranks the application's profile individuals by
  /// eTime per GB and picks the lowest (ties: lower eTime, then earlier
  /// individual). NotFound if no profile qualifies.
  /// testkit::OracleAdviseShardSize states the same ranking as the
  /// paper's SPARQL query.
  [[nodiscard]] Result<ShardAdvice> AdviseShardSize(
      std::string_view application, double min_gb, double max_gb) const;

  /// Recommends a thread count for a pipeline stage: the profiled thread
  /// count with the lowest eTime among profiles of that stage.
  [[nodiscard]] Result<int> AdviseThreads(std::string_view application,
                                          int stage) const;

  /// Fits eTime = slope * inputFileSize + intercept over profiles of the
  /// given application/stage run with `threads` threads. Feeds the
  /// scheduler's execution-time estimator (paper Eq. E_i(d) = a_i d + b_i).
  [[nodiscard]] LinearFit FitETimeModel(std::string_view application,
                                        std::optional<int> stage,
                                        int threads = 1) const;

  /// Raw SPARQL access (examples, diagnostics). Runs the planner-driven
  /// executor over the serving backend; rows and their order are the same
  /// whether or not the snapshot is fresh.
  [[nodiscard]] Result<ResultSet> Query(std::string_view sparql) const;

  /// Builds (or rebuilds) the read-optimized serving index from the current
  /// staging store. Reads use it until the next mutation makes it stale;
  /// the returned reference is valid until the KB's next write.
  const FrozenIndex& Freeze();

  /// True if a frozen snapshot exists and reflects the current store
  /// revision.
  [[nodiscard]] bool FrozenFresh() const {
    return frozen_.has_value() && frozen_revision_ == store_.revision();
  }

  /// The fresh frozen snapshot, or nullptr when absent / stale.
  [[nodiscard]] const FrozenIndex* frozen() const {
    return FrozenFresh() ? &*frozen_ : nullptr;
  }

  [[nodiscard]] const TripleStore& store() const { return store_; }
  [[nodiscard]] TripleStore& mutable_store() { return store_; }

  /// Standard prefix block used in SCAN SPARQL queries:
  /// scan:, owl:, rdfs:.
  [[nodiscard]] static std::string QueryPrefixes();

 private:
  TermId InsertIndividual(const ApplicationProfile& profile,
                          const std::string& name);
  [[nodiscard]] std::string NextIndividualName(std::string_view application);
  TermId StageProfileTriples(const ApplicationProfile& profile,
                             const std::string& name,
                             std::vector<Triple>& out);

  TripleStore store_;
  /// Released by the KB's own writes once stale: revisions only grow, so a
  /// stale snapshot never serves again.
  std::optional<FrozenIndex> frozen_;
  std::uint64_t frozen_revision_ = 0;
  std::size_t auto_name_counter_ = 0;
};

}  // namespace scan::kb
