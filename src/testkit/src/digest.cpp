#include "scan/testkit/digest.hpp"

#include <bit>
#include <cmath>

#include "scan/common/rng.hpp"
#include "scan/common/str.hpp"

namespace scan::testkit {

void Fnv1aDigest::MixU64(std::uint64_t v) { hash_ = Fnv1aMixU64(hash_, v); }

void Fnv1aDigest::MixDouble(double v) {
  // Canonicalize -0.0 so an algebraically identical result cannot flip the
  // digest on sign-of-zero alone; NaNs never appear in valid metrics and
  // hash as their bit pattern (so they still fail loudly).
  if (v == 0.0) v = 0.0;
  MixU64(std::bit_cast<std::uint64_t>(v));
}

void Fnv1aDigest::MixString(std::string_view s) {
  MixU64(s.size());
  for (const char c : s) {
    hash_ ^= static_cast<std::uint8_t>(c);
    hash_ *= kFnv1aPrime;
  }
}

namespace {

void AddStats(std::vector<FingerprintField>& fields, const std::string& name,
              const RunningStats& stats) {
  fields.push_back({name + ".count", static_cast<double>(stats.count())});
  fields.push_back({name + ".mean", stats.mean()});
  fields.push_back({name + ".stddev", stats.stddev()});
  fields.push_back({name + ".min", stats.min()});
  fields.push_back({name + ".max", stats.max()});
}

}  // namespace

MetricsFingerprint MetricsFingerprint::Of(const core::RunMetrics& metrics) {
  MetricsFingerprint fp;
  auto& f = fp.fields;
  f.push_back({"jobs_arrived", static_cast<double>(metrics.jobs_arrived)});
  f.push_back({"jobs_completed", static_cast<double>(metrics.jobs_completed)});
  f.push_back({"total_reward", metrics.total_reward});
  f.push_back({"total_cost", metrics.total_cost});
  f.push_back({"cost.private", metrics.cost_report.private_tier.value()});
  f.push_back({"cost.public", metrics.cost_report.public_tier.value()});
  f.push_back({"cost.private_core_tus", metrics.cost_report.private_core_tus});
  f.push_back({"cost.public_core_tus", metrics.cost_report.public_core_tus});
  AddStats(f, "latency", metrics.latency);
  AddStats(f, "queue_wait", metrics.queue_wait);
  AddStats(f, "worker_utilization", metrics.worker_utilization);
  AddStats(f, "core_stages", metrics.core_stages);
  for (std::size_t stage = 0; stage < metrics.stage_queue_wait.size();
       ++stage) {
    AddStats(f, StrFormat("stage%zu_queue_wait", stage),
             metrics.stage_queue_wait[stage]);
  }
  f.push_back({"private_hires", static_cast<double>(metrics.private_hires)});
  f.push_back({"public_hires", static_cast<double>(metrics.public_hires)});
  f.push_back(
      {"reconfigurations", static_cast<double>(metrics.reconfigurations)});
  f.push_back({"releases", static_cast<double>(metrics.releases)});
  f.push_back(
      {"worker_failures", static_cast<double>(metrics.worker_failures)});
  f.push_back({"task_retries", static_cast<double>(metrics.task_retries)});
  // Fault-recovery counters join the fingerprint only when any of them is
  // nonzero: fault-free runs keep the exact field list (and hence digest)
  // that the pinned goldens were recorded against.
  if (metrics.worker_flaps != 0 || metrics.breaker_opens != 0 ||
      metrics.checkpoints_saved != 0 || metrics.speculative_launches != 0 ||
      metrics.speculative_wasted != 0 || metrics.straggles_injected != 0 ||
      metrics.jobs_abandoned != 0) {
    f.push_back({"worker_flaps", static_cast<double>(metrics.worker_flaps)});
    f.push_back({"breaker_opens", static_cast<double>(metrics.breaker_opens)});
    f.push_back(
        {"checkpoints_saved", static_cast<double>(metrics.checkpoints_saved)});
    f.push_back({"speculative_launches",
                 static_cast<double>(metrics.speculative_launches)});
    f.push_back({"speculative_wasted",
                 static_cast<double>(metrics.speculative_wasted)});
    f.push_back({"straggles_injected",
                 static_cast<double>(metrics.straggles_injected)});
    f.push_back(
        {"jobs_abandoned", static_cast<double>(metrics.jobs_abandoned)});
  }
  f.push_back({"duration", metrics.duration.value()});
  f.push_back(
      {"timeline.points", static_cast<double>(metrics.timeline.size())});

  Fnv1aDigest digest;
  for (const FingerprintField& field : f) {
    digest.MixString(field.name);
    digest.MixDouble(field.value);
  }
  // Timeline samples enter the digest (not the named fields, which stay
  // human-sized): any drift in the sampled series changes the digest and
  // the diff reports it via timeline.points or the digest line itself.
  for (const core::TimelinePoint& point : metrics.timeline) {
    digest.MixDouble(point.time.value());
    digest.MixSize(point.queued_jobs);
    digest.MixSize(point.busy_workers);
    digest.MixSize(point.idle_workers);
    digest.MixSize(point.private_cores);
    digest.MixSize(point.public_cores);
    digest.MixDouble(point.cost_rate);
  }
  fp.digest = digest.value();
  return fp;
}

std::string MetricsFingerprint::ToString() const {
  std::string out;
  for (const FingerprintField& field : fields) {
    out += StrFormat("%s = %.17g\n", field.name.c_str(), field.value);
  }
  out += StrFormat("digest = 0x%016llx\n",
                   static_cast<unsigned long long>(digest));
  return out;
}

std::vector<std::string> MetricsFingerprint::DiffAgainst(
    const MetricsFingerprint& other) const {
  std::vector<std::string> diffs;
  const std::size_t common = std::min(fields.size(), other.fields.size());
  for (std::size_t i = 0; i < common; ++i) {
    const FingerprintField& a = fields[i];
    const FingerprintField& b = other.fields[i];
    if (a.name != b.name) {
      diffs.push_back(
          StrFormat("field %zu: %s vs %s", i, a.name.c_str(), b.name.c_str()));
    } else if (std::bit_cast<std::uint64_t>(a.value) !=
               std::bit_cast<std::uint64_t>(b.value)) {
      diffs.push_back(StrFormat("%s: %.17g != %.17g", a.name.c_str(), a.value,
                                b.value));
    }
  }
  if (fields.size() != other.fields.size()) {
    diffs.push_back(StrFormat("field count: %zu != %zu", fields.size(),
                              other.fields.size()));
  }
  if (diffs.empty() && digest != other.digest) {
    diffs.push_back(StrFormat(
        "digest: 0x%016llx != 0x%016llx (timeline samples differ)",
        static_cast<unsigned long long>(digest),
        static_cast<unsigned long long>(other.digest)));
  }
  return diffs;
}

}  // namespace scan::testkit
