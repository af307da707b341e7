// broker_feedback: the paper's knowledge-expansion loop. Set-up bulk-loads
// a seeded profile corpus into a KnowledgeBase and freezes it; then one
// caller runs a closed loop of jobs. Each job asks the DataBroker for a
// shard plan (KB advice), shards a synthetic FASTQ payload with it, and
// feeds the job's per-stage task logs back with RecordCompletion. The
// logged times come from the Table II model, so the loop is deterministic.
// The first write makes the frozen index stale, so from the second job on
// advice runs on the staging store.
//
// One episode = set-up + Size::jobs jobs; episodes repeat from a fresh KB
// (same seed, same inputs) until the wall budget is spent.

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/core/config.hpp"
#include "scan/core/data_broker.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/genomics/fastq.hpp"
#include "scan/genomics/sharder.hpp"
#include "scan/genomics/synthetic.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/workload/reward.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace scan;

/// The profile corpus covers a fixed lattice per application: every
/// (input size, eTime) pair of `sizes` x `etimes` lattice points, `copies`
/// times. The advice winner (lowest eTime per GB within the shard bounds)
/// is then the same for every seed; the seed shuffles the insertion order
/// (and so the store's term ids and postings) and draws the side
/// attributes.
struct Size {
  std::size_t sizes;   ///< input sizes 0.5, 1.0, ... GB
  std::size_t etimes;  ///< eTimes 2, 4, ...
  std::size_t copies;
  std::size_t jobs;
  std::size_t reads_per_payload;
};
constexpr Size kFull{32, 64, 1, 80, 2000};
constexpr Size kTiny{16, 4, 1, 5, 100};

constexpr const char* kApps[] = {"GATK", "BWA", "Picard", "FreeBayes"};
constexpr std::size_t kPayloads = 4;

/// Job sizes span [kMinJobGb, kMaxJobGb): never below the broker's largest
/// shard, so a job's shard size is always the advised one.
constexpr double kMinJobGb = 8.0;
constexpr double kMaxJobGb = 64.0;

/// Shards of one job run on this many workers, in waves.
constexpr std::size_t kWorkersPerJob = 4;

/// Advice checksum over one episode at kDefaultSeed and full size.
constexpr std::uint64_t kPinnedAdviceChecksum = 0x4f59e524cf1f1068ULL;

struct Job {
  const char* app;
  double total_gb;
  std::size_t payload;
};

struct Inputs {
  std::vector<kb::ApplicationProfile> profiles;
  std::vector<std::string> payloads;
  std::vector<Job> jobs;
};

/// Fisher-Yates over the stream (std::shuffle's draws are unspecified).
template <typename T>
void Shuffle(std::vector<T>& v, RandomStream& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.UniformBelow(static_cast<std::uint32_t>(i))]);
  }
}

Inputs MakeInputs(std::uint64_t seed, const Size& size) {
  Inputs in;
  RandomStream rng(seed, "perfbench/broker/profiles");
  for (const char* app : kApps) {
    for (std::size_t copy = 0; copy < size.copies; ++copy) {
      for (std::size_t si = 0; si < size.sizes; ++si) {
        for (std::size_t ei = 0; ei < size.etimes; ++ei) {
          kb::ApplicationProfile p;
          p.application = app;
          p.input_file_size_gb = 0.5 * static_cast<double>(si + 1);
          p.etime = 2.0 * static_cast<double>(ei + 1);
          p.steps = static_cast<int>(copy) + 1;
          p.cpu = 4 << ((si + ei) % 3);
          p.ram_gb = 8.0 * static_cast<double>(1 + si % 4);
          p.threads = 1 << rng.UniformBelow(4);
          in.profiles.push_back(std::move(p));
        }
      }
    }
  }
  Shuffle(in.profiles, rng);

  genomics::SyntheticGenerator gen(MixSeed(seed, Fnv1a64("payloads")));
  const genomics::FastaRecord reference = gen.Reference("chr1", 200'000);
  genomics::ReadSimSpec spec;
  spec.read_count = size.reads_per_payload;
  for (std::size_t i = 0; i < kPayloads; ++i) {
    in.payloads.push_back(genomics::WriteFastq(gen.Reads(reference, spec)));
  }

  // Stratified job mix: one size per equal-width stratum of the job-size
  // range and
  // an equal share of jobs per application, each shuffled, so the seed
  // changes which job comes when but barely moves the mix as a whole.
  RandomStream jobs(seed, "perfbench/broker/jobs");
  std::vector<double> sizes;
  std::vector<std::size_t> apps;
  for (std::size_t j = 0; j < size.jobs; ++j) {
    sizes.push_back(kMinJobGb + (kMaxJobGb - kMinJobGb) *
                                    (static_cast<double>(j) + jobs.Uniform()) /
                                    static_cast<double>(size.jobs));
    apps.push_back(j % std::size(kApps));
  }
  Shuffle(sizes, jobs);
  Shuffle(apps, jobs);
  for (std::size_t j = 0; j < size.jobs; ++j) {
    in.jobs.push_back(Job{kApps[apps[j]], sizes[j], j % kPayloads});
  }
  return in;
}

std::uint64_t MixDouble(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return MixSeed(h, bits);
}

struct Episode {
  double setup_s = 0.0;
  double freeze_s = 0.0;
  /// Per job: plan + shard + record wall seconds (checks excluded).
  std::vector<double> job_s;
  double shard_s = 0.0;
  double payload_mb = 0.0;
  std::uint64_t shards = 0;
  std::uint64_t frozen_calls = 0;
  std::uint64_t writes = 0;
  double cost = 0.0;
  double profit = 0.0;
  double latency_tu = 0.0;
  std::uint64_t advice_checksum = 0;
  std::vector<double> plan_us;
  std::vector<double> advise_us;  ///< traced runs only
  std::vector<double> write_us;
};

/// Models one job's outcome under the plan from Table II: the shards run
/// on kWorkersPerJob workers in waves, so latency is the number of waves
/// times one full shard's pipeline time; cost is the core time of every
/// shard at the private-tier price.
void ModelJob(const gatk::PipelineModel& model,
              const core::SimulationConfig& config, const Job& job,
              const core::BrokerPlan& plan, int threads, Episode& ep) {
  double shard_tu = 0.0;
  for (std::size_t s = 0; s < model.stage_count(); ++s) {
    shard_tu += config.stage_time_scale *
                model.ThreadedTime(s, threads, DataSize{plan.shard_size_gb})
                    .value();
  }
  const std::size_t waves =
      (plan.shard_count + kWorkersPerJob - 1) / kWorkersPerJob;
  const double latency = static_cast<double>(waves) * shard_tu;
  double core_tu = 0.0;
  for (std::size_t i = 0; i < plan.shard_count; ++i) {
    for (std::size_t s = 0; s < model.stage_count(); ++s) {
      core_tu += config.stage_time_scale *
                 model.CoreTime(s, threads, DataSize{plan.ShardSize(i)});
    }
  }
  const workload::RewardFunction reward(config.MakeRewardParams());
  const double cost = core_tu * config.private_cost_per_core_tu;
  ep.cost += cost;
  ep.profit += reward(DataSize{job.total_gb}, SimTime{latency}).value() - cost;
  ep.latency_tu += latency;
}

Episode RunEpisode(const Inputs& in, SpanLog* spans, std::uint64_t episode,
                   Outcome& out) {
  Episode ep;
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
  const core::SimulationConfig config;

  const Clock::time_point t0 = Clock::now();
  auto knowledge = std::make_unique<kb::KnowledgeBase>();
  knowledge->AddProfilesBulk(in.profiles);
  const Clock::time_point t1 = Clock::now();
  knowledge->Freeze();
  const Clock::time_point t2 = Clock::now();
  core::DataBroker broker(*knowledge);
  ep.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  ep.freeze_s = std::chrono::duration<double>(t2 - t1).count();
  if (spans != nullptr) {
    const std::uint64_t request = episode * 1000;
    spans->Record(spans->NextId(), "kb.load", t0, t1, 0, request);
    spans->Record(spans->NextId(), "kb.freeze", t1, t2, 0, request);
  }

  const core::ShardBounds bounds;
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    const Job& job = in.jobs[j];
    const std::string& payload = in.payloads[job.payload];
    const std::uint64_t request = episode * 1000 + j + 1;
    const std::uint64_t job_span = spans != nullptr ? spans->NextId() : 0;
    const Clock::time_point job_start = Clock::now();
    ep.frozen_calls += knowledge->FrozenFresh() ? 1 : 0;

    if (spans != nullptr) {
      // The KB layer on its own: the advice query PlanJob is built on.
      ep.advise_us.push_back(1e6 * TimedCall(spans, "kb.advise", job_span,
                                             request, [&] {
        (void)knowledge->AdviseShardSize(job.app, bounds.min_gb,
                                         bounds.max_gb);
      }));
    }
    Result<core::BrokerPlan> plan = InternalError("not planned");
    const double plan_s = TimedCall(spans, "broker.plan", job_span, request,
                                    [&] { plan = broker.PlanJob(job.app,
                                                                job.total_gb,
                                                                bounds); });
    if (!plan.ok()) {
      out.Fail("PlanJob: " + plan.status().ToString(), 1);
      continue;
    }
    Result<genomics::ShardSet> shards = InternalError("not sharded");
    const double bytes_per_gb =
        static_cast<double>(payload.size()) / job.total_gb;
    const double shard_s =
        TimedCall(spans, "genomics.shard", job_span, request, [&] {
          shards = broker.ShardFastqPayload(payload, *plan, bytes_per_gb);
        });
    if (!shards.ok()) {
      out.Fail("ShardFastqPayload: " + shards.status().ToString(), 1);
      continue;
    }

    // Knowledge expansion: one task log per pipeline stage of a full
    // shard, timed by the Table II model at the advised thread count.
    const int threads =
        plan->recommended_cpu > 0 ? std::min(plan->recommended_cpu, 16) : 4;
    double record_s = 0.0;
    for (std::size_t s = 0; s < model.stage_count(); ++s) {
      const double elapsed =
          config.stage_time_scale *
          model.ThreadedTime(s, threads, DataSize{plan->shard_size_gb})
              .value();
      const double write_s =
          TimedCall(spans, "kb.record", job_span, request, [&] {
            broker.RecordCompletion(job.app, static_cast<int>(s) + 1,
                                    plan->shard_size_gb, threads, elapsed,
                                    plan->recommended_cpu,
                                    plan->recommended_ram_gb);
          });
      record_s += write_s;
      ep.write_us.push_back(1e6 * write_s);
    }
    if (spans != nullptr) {
      spans->Record(job_span, "broker.job", job_start, Clock::now(), 0,
                    request);
    }
    ep.job_s.push_back(plan_s + shard_s + record_s);
    ep.shard_s += shard_s;
    ep.plan_us.push_back(1e6 * plan_s);
    ep.writes += model.stage_count();
    ep.shards += shards->count();
    ep.payload_mb += static_cast<double>(payload.size()) / 1e6;

    // Checks (untimed): shards conserve and round-trip the payload.
    if (shards->total_bytes() != payload.size() ||
        genomics::MergeFastq(shards->shards) != payload) {
      out.Fail("job " + std::to_string(j) + ": shards do not round-trip", 1);
    }
    std::uint64_t h = MixSeed(ep.advice_checksum, Fnv1a64(plan->advice_source));
    h = MixDouble(h, plan->shard_size_gb);
    h = MixSeed(h, plan->shard_count);
    ep.advice_checksum = MixSeed(h, shards->count());
    ModelJob(model, config, job, *plan, threads, ep);
  }
  return ep;
}

}  // namespace

Outcome RunBrokerFeedback(const RunOptions& opts) {
  Outcome out;
  const Size& size = opts.tiny ? kTiny : kFull;
  const Inputs in =
      MakeInputs(MixSeed(opts.seed, Fnv1a64("broker_feedback")), size);

  SpanLog spans;
  SpanLog* span_log = opts.trace ? &spans : nullptr;
  std::vector<Episode> episodes;
  const Clock::time_point loop_start = Clock::now();
  do {
    episodes.push_back(RunEpisode(in, span_log, episodes.size() + 1, out));
    out.AddAttempted(in.jobs.size());
  } while (SecondsSince(loop_start) < opts.seconds);

  const Episode& first = episodes.front();
  std::vector<double> setup, freeze, shard_s;
  std::size_t plan_samples = 0;
  for (const Episode& ep : episodes) {
    if (ep.advice_checksum != first.advice_checksum ||
        ep.job_s.size() != first.job_s.size()) {
      out.Fail("broker: episode diverged from the first (advice checksum " +
                   Hex(ep.advice_checksum) + " vs " +
                   Hex(first.advice_checksum) + ")",
               in.jobs.size());
      return out;
    }
    setup.push_back(ep.setup_s);
    freeze.push_back(ep.freeze_s);
    shard_s.push_back(ep.shard_s);
    plan_samples += ep.plan_us.size();
  }
  if (opts.pinned() && first.advice_checksum != kPinnedAdviceChecksum) {
    out.Fail("broker: advice checksum " + Hex(first.advice_checksum) +
                 " != pinned " + Hex(kPinnedAdviceChecksum),
             in.jobs.size());
  }
  // Per-job wall times: the fastest of the run's episodes. On a shared
  // host other tenants slow whole stretches of a run; the fastest
  // repetition is the one they disturbed least (the best-of-N rule of the
  // repository's other benches).
  double episode_s = 0.0;
  std::vector<double> best_plan_us;
  for (std::size_t j = 0; j < first.job_s.size(); ++j) {
    double job_s = first.job_s[j];
    double plan = first.plan_us[j];
    for (const Episode& ep : episodes) {
      job_s = std::min(job_s, ep.job_s[j]);
      plan = std::min(plan, ep.plan_us[j]);
    }
    episode_s += job_s;
    best_plan_us.push_back(plan);
  }
  const double jobs = static_cast<double>(in.jobs.size());
  out.Set("jobs_per_s", static_cast<double>(first.job_s.size()) / episode_s);
  out.Set("op_p50_us", Quantile(best_plan_us, 0.5));
  out.Set("op_p99_us", Quantile(best_plan_us, 0.99));
  out.Set("cost_per_job", first.cost / jobs);
  out.Set("latency_mean_tu", first.latency_tu / jobs);
  out.Set("setup_s", Median(setup));
  out.Note("broker_feedback: profit_per_job=" +
           std::to_string(first.profit / jobs) +
           " episodes=" + std::to_string(episodes.size()) +
           " profiles=" + std::to_string(in.profiles.size()) +
           " jobs_per_episode=" + std::to_string(in.jobs.size()) +
           " plan_samples=" + std::to_string(plan_samples) +
           " advice_checksum=" + Hex(first.advice_checksum));

  if (!opts.trace) return out;

  std::vector<double> advise_us, write_us;
  for (const Episode& ep : episodes) {
    advise_us.insert(advise_us.end(), ep.advise_us.begin(), ep.advise_us.end());
    write_us.insert(write_us.end(), ep.write_us.begin(), ep.write_us.end());
  }
  double write_sum = 0.0;
  for (const double us : write_us) write_sum += us;
  out.Set("kb.advise_calls", static_cast<double>(first.advise_us.size()));
  out.Set("kb.advise_p50_us", Quantile(advise_us, 0.5));
  out.Set("kb.frozen_share", static_cast<double>(first.frozen_calls) / jobs);
  out.Set("kb.writes", static_cast<double>(first.writes));
  out.Set("kb.write_mean_us",
          write_sum / static_cast<double>(std::max<std::size_t>(
                          1, write_us.size())));
  out.Set("kb.freeze_s", Median(freeze));
  out.Set("genomics.shard_s", Median(shard_s));
  out.Set("genomics.shard_mb_per_s", first.payload_mb / Median(shard_s));
  out.Set("genomics.shards", static_cast<double>(first.shards));

  // The obs cost, paired: one obs-off episode and, right after it, one
  // with the program's trace recorder (shard-split events) and decision
  // audit on.
  const Episode untraced = RunEpisode(in, span_log, episodes.size() + 1, out);
  ObsPass obs;
  const Episode traced = RunEpisode(in, span_log, episodes.size() + 2, out);
  obs.Harvest();
  if (traced.advice_checksum != first.advice_checksum) {
    out.Fail("broker: obs-on advice checksum diverged", in.jobs.size());
  }
  out.Set("obs.trace_events", static_cast<double>(obs.events()));
  out.Set("obs.trace_slowdown",
          std::accumulate(traced.job_s.begin(), traced.job_s.end(), 0.0) /
              std::accumulate(untraced.job_s.begin(), untraced.job_s.end(),
                              0.0));
  out.Note("obs events by kind (retained window):" + obs.by_kind());
  WriteSpans(opts, spans, out);
  return out;
}

}  // namespace perfbench
