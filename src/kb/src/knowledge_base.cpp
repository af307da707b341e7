#include "scan/kb/knowledge_base.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "scan/common/str.hpp"
#include "scan/kb/plan.hpp"

namespace scan::kb {

using namespace vocab;

KnowledgeBase::KnowledgeBase() {
  SeedScanOntology(store_);
  SeedDataFormats(store_);
}

std::string KnowledgeBase::QueryPrefixes() {
  return "PREFIX scan: <" + std::string(kScanNs) +
         ">\n"
         "PREFIX owl: <" +
         std::string(kOwlNs) +
         ">\n"
         "PREFIX rdfs: <" +
         std::string(kRdfsNs) + ">\n";
}

std::string KnowledgeBase::NextIndividualName(std::string_view application) {
  // Names follow the paper's expansion sequence GATK1, GATK2, ... Skip
  // names already present (e.g. when bootstrap profiles were added with
  // explicit names) so a task log never merges into an existing individual.
  for (;;) {
    ++auto_name_counter_;
    std::string name =
        std::string(application) + std::to_string(auto_name_counter_);
    if (!store_.terms().Lookup(MakeIri(Scan(name))).has_value()) {
      return name;
    }
  }
}

TermId KnowledgeBase::StageProfileTriples(const ApplicationProfile& profile,
                                          const std::string& name,
                                          std::vector<Triple>& out) {
  TermTable& terms = store_.terms();
  const TermId individual = terms.Intern(MakeIri(Scan(name)));
  const TermId rdf_type = terms.Intern(RdfType());
  auto add = [&](const Term& p, const Term& o) {
    out.push_back(Triple{individual, terms.Intern(p), terms.Intern(o)});
  };
  out.push_back(Triple{individual, rdf_type, terms.Intern(ClassApplication())});
  out.push_back(
      Triple{individual, rdf_type, terms.Intern(OwlNamedIndividual())});
  add(PropApplication(), MakeStringLiteral(profile.application));
  add(PropInputFileSize(), MakeDoubleLiteral(profile.input_file_size_gb));
  add(PropSteps(), MakeIntLiteral(profile.steps));
  add(PropETime(), MakeDoubleLiteral(profile.etime));
  add(PropThreads(), MakeIntLiteral(profile.threads));
  if (profile.cpu > 0) {
    add(PropCpu(), MakeIntLiteral(profile.cpu));
  }
  if (profile.ram_gb > 0.0) {
    add(PropRam(), MakeDoubleLiteral(profile.ram_gb));
  }
  if (profile.stage > 0) {
    add(PropStage(), MakeIntLiteral(profile.stage));
  }
  if (!profile.performance.empty()) {
    add(PropPerformance(), MakeStringLiteral(profile.performance));
  }
  return individual;
}

TermId KnowledgeBase::InsertIndividual(const ApplicationProfile& profile,
                                       const std::string& name) {
  std::vector<Triple> staged;
  staged.reserve(10);
  const TermId individual = StageProfileTriples(profile, name, staged);
  for (const Triple& t : staged) store_.Add(t);
  if (!FrozenFresh()) frozen_.reset();
  return individual;
}

TermId KnowledgeBase::AddProfile(const ApplicationProfile& profile) {
  const std::string name = profile.individual.empty()
                               ? NextIndividualName(profile.application)
                               : profile.individual;
  return InsertIndividual(profile, name);
}

TermId KnowledgeBase::RecordTaskLog(const ApplicationProfile& log_entry) {
  // Task logs always get fresh auto names: each run extends the KB, as in
  // the paper's GATK1 -> GATK2 -> GATK3 -> GATK4 expansion example.
  return InsertIndividual(log_entry, NextIndividualName(log_entry.application));
}

std::vector<TermId> KnowledgeBase::AddProfilesBulk(
    std::span<const ApplicationProfile> profiles) {
  std::vector<TermId> ids;
  ids.reserve(profiles.size());
  std::vector<Triple> staged;
  staged.reserve(profiles.size() * 10);
  for (const ApplicationProfile& profile : profiles) {
    const std::string name = profile.individual.empty()
                                 ? NextIndividualName(profile.application)
                                 : profile.individual;
    ids.push_back(StageProfileTriples(profile, name, staged));
  }
  store_.AddBatch(staged);
  if (!FrozenFresh()) frozen_.reset();
  return ids;
}

const FrozenIndex& KnowledgeBase::Freeze() {
  frozen_.emplace(FrozenIndex::Freeze(store_));
  frozen_revision_ = store_.revision();
  return *frozen_;
}

std::size_t KnowledgeBase::ProfileCount(std::string_view application) const {
  return Profiles(application).size();
}

namespace {

/// "...#GATK1" -> "GATK1".
std::string LocalName(const std::string& iri) {
  const std::size_t hash_pos = iri.rfind('#');
  return hash_pos == std::string::npos ? iri : iri.substr(hash_pos + 1);
}

/// The one place the knowledge base picks a read backend: the fresh frozen
/// snapshot when there is one, the staging store otherwise. Each read below
/// is one template run over either; both backends yield subjects and
/// objects in ascending id order, so the answers are identical.
template <typename Read>
auto Serve(const KnowledgeBase& kb, Read&& read) {
  if (const FrozenIndex* fz = kb.frozen()) return read(*fz);
  return read(kb.store());
}

template <typename Source>
std::vector<ApplicationProfile> ReadProfiles(const Source& source,
                                             const TermTable& terms,
                                             std::string_view application,
                                             std::optional<int> stage) {
  std::vector<ApplicationProfile> out;
  const auto app_prop = terms.Lookup(PropApplication());
  const auto app_value =
      terms.Lookup(MakeStringLiteral(std::string(application)));
  if (!app_prop || !app_value) return out;
  auto first_term = [&](TermId subject, const Term& prop) -> const Term* {
    const auto pid = terms.Lookup(prop);
    const auto obj = pid ? source.FirstObject(subject, *pid) : std::nullopt;
    return obj ? &terms.Get(*obj) : nullptr;
  };
  auto numeric_of = [&](TermId subject, const Term& prop) {
    const Term* term = first_term(subject, prop);
    return term ? NumericValue(*term).value_or(0.0) : 0.0;
  };

  source.SubjectsVisit(*app_prop, *app_value, [&](TermId subject) {
    ApplicationProfile profile;
    profile.individual = LocalName(terms.Get(subject).lexical);
    profile.application = std::string(application);
    profile.stage = static_cast<int>(numeric_of(subject, PropStage()));
    profile.input_file_size_gb = numeric_of(subject, PropInputFileSize());
    profile.steps = static_cast<int>(numeric_of(subject, PropSteps()));
    profile.cpu = static_cast<int>(numeric_of(subject, PropCpu()));
    profile.ram_gb = numeric_of(subject, PropRam());
    profile.etime = numeric_of(subject, PropETime());
    const int threads = static_cast<int>(numeric_of(subject, PropThreads()));
    profile.threads = threads > 0 ? threads : 1;
    const Term* performance = first_term(subject, PropPerformance());
    if (performance != nullptr) profile.performance = performance->lexical;
    if (!stage || profile.stage == *stage) out.push_back(std::move(profile));
    return true;
  });
  return out;
}

/// Ranks the application's profiles by eTime per GB (§III-A-2) without
/// materializing a result set. The winner is the lexicographic minimum by
/// (score, etime, subject id, size): the selection the broker's SPARQL
/// query (ORDER BY ASC(?etime), first strictly-best score) makes, kept as
/// testkit::OracleAdviseShardSize. Candidates stream off the
/// (application, name) subject posting in ascending id order; attribute
/// reads are span lookups on the frozen index.
template <typename Source>
Result<ShardAdvice> RankShardAdvice(const Source& source,
                                    const TermTable& terms,
                                    std::string_view application,
                                    double min_gb, double max_gb) {
  const auto app_prop = terms.Lookup(PropApplication());
  const auto app_value =
      terms.Lookup(MakeStringLiteral(std::string(application)));
  const auto rdf_type = terms.Lookup(RdfType());
  const auto app_class = terms.Lookup(ClassApplication());
  const auto size_prop = terms.Lookup(PropInputFileSize());
  const auto etime_prop = terms.Lookup(PropETime());

  // (score, etime, subject id, size) of the best candidate so far.
  std::optional<std::tuple<double, double, std::uint32_t, double>> best;
  if (app_prop && app_value && rdf_type && app_class && size_prop &&
      etime_prop) {
    source.SubjectsVisit(*app_prop, *app_value, [&](TermId ind) {
      if (!source.Contains(Triple{ind, *rdf_type, *app_class})) return true;
      for (const TermId size_id : source.Objects(ind, *size_prop)) {
        // Written as the query's FILTER, so NaN never qualifies.
        const auto size = NumericValue(terms.Get(size_id));
        if (!size || !(*size >= min_gb && *size <= max_gb && *size > 0.0)) {
          continue;
        }
        for (const TermId etime_id : source.Objects(ind, *etime_prop)) {
          const auto etime = NumericValue(terms.Get(etime_id));
          if (!etime || !(*etime > 0.0)) continue;
          const std::tuple candidate(*etime / *size, *etime, Index(ind), *size);
          if (!best || candidate < *best) best = candidate;
        }
      }
      return true;
    });
  }
  if (!best) {
    return NotFoundError("AdviseShardSize: no profile for application '" +
                         std::string(application) + "' within bounds");
  }

  const auto [score, etime, ind, size] = *best;
  auto numeric_attr = [&](const Term& prop) {
    const auto pid = terms.Lookup(prop);
    const auto obj = pid ? source.FirstObject(TermId{ind}, *pid) : std::nullopt;
    return obj ? NumericValue(terms.Get(*obj)).value_or(0.0) : 0.0;
  };
  ShardAdvice advice;
  advice.shard_size_gb = size;
  advice.recommended_cpu = static_cast<int>(numeric_attr(PropCpu()));
  advice.recommended_ram_gb = numeric_attr(PropRam());
  advice.source_individual = LocalName(terms.Get(TermId{ind}).lexical);
  advice.time_per_gb = score;
  return advice;
}

}  // namespace

std::vector<ApplicationProfile> KnowledgeBase::Profiles(
    std::string_view application, std::optional<int> stage) const {
  return Serve(*this, [&](const auto& source) {
    return ReadProfiles(source, store_.terms(), application, stage);
  });
}

Result<ShardAdvice> KnowledgeBase::AdviseShardSize(
    std::string_view application, double min_gb, double max_gb) const {
  if (min_gb < 0.0 || max_gb < min_gb) {
    return InvalidArgumentError("AdviseShardSize: bad size bounds");
  }
  return Serve(*this, [&](const auto& source) {
    return RankShardAdvice(source, store_.terms(), application, min_gb,
                           max_gb);
  });
}

Result<int> KnowledgeBase::AdviseThreads(std::string_view application,
                                         int stage) const {
  const auto profiles = Profiles(application, stage);
  if (profiles.empty()) {
    return NotFoundError(StrFormat(
        "AdviseThreads: no profiles for stage %d of '%s'", stage,
        std::string(application).c_str()));
  }
  // Normalize by input size so differently-sized profile runs compare
  // fairly, then pick the thread count with the best normalized time.
  int best_threads = 1;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& p : profiles) {
    if (p.input_file_size_gb <= 0.0 || p.etime <= 0.0) continue;
    const double score = p.etime / p.input_file_size_gb;
    if (score < best_score) {
      best_score = score;
      best_threads = p.threads;
    }
  }
  if (best_score == std::numeric_limits<double>::infinity()) {
    return NotFoundError("AdviseThreads: no usable profiles");
  }
  return best_threads;
}

LinearFit KnowledgeBase::FitETimeModel(std::string_view application,
                                       std::optional<int> stage,
                                       int threads) const {
  std::vector<double> xs;
  std::vector<double> ys;
  for (const auto& p : Profiles(application, stage)) {
    if (p.threads != threads) continue;
    xs.push_back(p.input_file_size_gb);
    ys.push_back(p.etime);
  }
  return FitLine(xs, ys);
}

Result<ResultSet> KnowledgeBase::Query(std::string_view sparql) const {
  const auto query = ParseSparql(sparql);
  if (!query.ok()) return query.status();
  return Serve(*this, [&](const auto& source) {
    return ExecuteQuery(query.value(), source, store_.terms());
  });
}

}  // namespace scan::kb
