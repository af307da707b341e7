// serve_mixed and serve_overload: multi-tenant serving episodes through
// ServeFrontend -> RuntimePlatform on the virtual clock. Arrivals are an
// open loop in modeled time, replayed as fast as the platform can go; one
// episode covers kEpisodeTu of modeled time, and episodes cycle through
// kSubSeeds seeds until the run's wall budget is spent.
//
// The front end is wired in through a pass-through runtime::IngestSource
// so the benchmark can time the serve layer from outside: every platform
// call into the front end is one span in the traced run.

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/common/stats.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/runtime/runtime_platform.hpp"
#include "scan/serve/serve.hpp"
#include "scan/testkit/tenancy.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace scan;

/// Modeled TU per serving episode (the bench_serve_throughput horizon).
constexpr double kEpisodeTu = 2000.0;
constexpr double kTinyEpisodeTu = 100.0;

/// Executor threads in the platform's pool. Pinned rather than the
/// platform's default (hardware concurrency), which together with the
/// coordinator thread oversubscribes the host; coordinator + executors
/// stay within nproc.
constexpr std::size_t kExecThreads = 1;

/// Episodes cycle through this many seeds derived from the run's seed, so
/// one run averages over several arrival realizations (modeled outcomes
/// vary less from run seed to run seed) while each sub-seed still repeats
/// often enough for a median wall time.
constexpr std::size_t kSubSeeds = 4;

struct Scenario {
  const char* name;
  std::vector<serve::TenantSpec> tenants;
  serve::ServeOptions options;
  /// Episode digest per sub-seed at kDefaultSeed and full size.
  std::array<std::uint64_t, kSubSeeds> pinned_digests;
};

serve::TenantSpec Tenant(std::uint64_t id, const char* name,
                         workload::ArrivalPattern pattern, double weight,
                         double rate_scale, std::size_t max_queue_depth) {
  serve::TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.pattern.pattern = pattern;
  spec.weight = weight;
  spec.rate_scale = rate_scale;
  spec.max_queue_depth = max_queue_depth;
  return spec;
}

Scenario MixedScenario() {
  Scenario s{"serve_mixed",
             {},
             {},
             {0xf808b51683baead1ULL, 0x0bb22e7392d91e39ULL,
              0x5d33c083dbb78354ULL, 0x7e4421f54f1d78c2ULL}};
  using P = workload::ArrivalPattern;
  s.tenants = {Tenant(1, "steady", P::kHomogeneous, 1.0, 1.0, 4096),
               Tenant(2, "diurnal", P::kDiurnal, 2.0, 1.0, 4096),
               Tenant(3, "bursty", P::kBursty, 1.0, 1.5, 4096),
               Tenant(4, "flash", P::kFlashCrowd, 1.0, 1.0, 4096)};
  s.options.global_max_in_flight = 256;
  return s;
}

Scenario OverloadScenario() {
  Scenario s{"serve_overload",
             {},
             {},
             {0xed5dfa2bf63d3df2ULL, 0x3fd20437682ad29fULL,
              0xa44711b5758ce76fULL, 0x694d3520e1b0fa0fULL}};
  using P = workload::ArrivalPattern;
  s.tenants = {Tenant(1, "heavy", P::kBursty, 3.0, 4.0, 16),
               Tenant(2, "light", P::kHomogeneous, 1.0, 2.0, 16)};
  s.options.global_max_in_flight = 32;
  return s;
}

/// Pass-through IngestSource: forwards every platform call to the front
/// end, and with a span log attached times each call as a serve span.
class TimedIngest final : public runtime::IngestSource {
 public:
  TimedIngest(serve::ServeFrontend& inner, SpanLog* spans,
              std::uint64_t parent, std::uint64_t request)
      : inner_(inner), spans_(spans), parent_(parent), request_(request) {}

  // The platform holds this object's address for the whole episode.
  TimedIngest(const TimedIngest&) = delete;
  TimedIngest& operator=(const TimedIngest&) = delete;

  std::optional<SimTime> NextEventTime() override {
    if (spans_ == nullptr) return inner_.NextEventTime();
    std::optional<SimTime> next;
    Time("serve.next_event", [&] { next = inner_.NextEventTime(); });
    return next;
  }

  std::vector<workload::Job> PullDue(SimTime now) override {
    if (spans_ == nullptr) return inner_.PullDue(now);
    std::vector<workload::Job> jobs;
    Time("serve.pull_due", [&] { jobs = inner_.PullDue(now); });
    return jobs;
  }

  std::vector<workload::Job> OnJobOutcome(
      const runtime::JobOutcome& outcome) override {
    if (spans_ == nullptr) return inner_.OnJobOutcome(outcome);
    std::vector<workload::Job> jobs;
    Time("serve.on_outcome", [&] { jobs = inner_.OnJobOutcome(outcome); });
    return jobs;
  }

  [[nodiscard]] double busy_s() const { return busy_s_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  template <typename Fn>
  void Time(const char* name, Fn&& fn) {
    busy_s_ += TimedCall(spans_, name, parent_, request_, fn);
    ++calls_;
  }

  serve::ServeFrontend& inner_;
  SpanLog* spans_;
  std::uint64_t parent_;
  std::uint64_t request_;
  double busy_s_ = 0.0;
  std::uint64_t calls_ = 0;
};

struct Episode {
  serve::ServeReport report;
  double setup_s = 0.0;  ///< front end + platform construction
  double wall_s = 0.0;   ///< RuntimePlatform::Serve()
  double serve_busy_s = 0.0;
  std::uint64_t serve_calls = 0;
  std::size_t queued_at_end = 0;
  std::size_t in_flight_at_end = 0;
};

std::uint64_t MixU64(std::uint64_t h, std::uint64_t v) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= kPrime;
  }
  return h;
}

/// Folds the front end's ledger into the report exactly as
/// serve::RunMultiTenantServe does, so the digest is the same value.
void FoldFrontend(const serve::ServeFrontend& frontend,
                  serve::ServeReport& report) {
  for (const serve::TenantSpec& spec : frontend.tenants()) {
    serve::TenantReport tr;
    tr.id = spec.id;
    tr.name = spec.name;
    tr.weight = spec.weight;
    tr.max_queue_depth = spec.max_queue_depth;
    tr.max_in_flight = spec.max_in_flight;
    tr.stats = frontend.StatsFor(spec.id);
    report.jobs_submitted += tr.stats.submitted;
    report.jobs_shed += tr.stats.shed;
    report.jobs_released += tr.stats.released;
    report.jobs_completed += tr.stats.completed;
    report.tenants.push_back(std::move(tr));
  }
  report.decision_rounds = frontend.decision_rounds();
  report.pricing_evaluations = frontend.pricing_evaluations();
  report.priced_holds = frontend.priced_holds();
  report.quota_violations = frontend.quota_violations();
  report.work_conservation_violations =
      frontend.work_conservation_violations();
  report.peak_global_in_flight = frontend.peak_global_in_flight();
  report.decision_p50_us = frontend.DecisionMicrosQuantile(0.5);
  report.decision_p99_us = frontend.DecisionMicrosQuantile(0.99);
  report.decision_samples = frontend.decision_samples();

  const core::RunMetrics& m = report.runtime.metrics;
  std::uint64_t digest = frontend.Digest();
  digest = MixU64(digest, m.jobs_completed);
  digest = MixU64(digest, m.jobs_arrived);
  digest = MixU64(digest, std::bit_cast<std::uint64_t>(m.total_reward));
  digest = MixU64(digest, std::bit_cast<std::uint64_t>(m.total_cost));
  report.digest = digest;
}

Episode RunEpisode(const Scenario& scenario,
                   const core::SimulationConfig& config,
                   const gatk::PipelineModel& model, std::uint64_t seed,
                   SpanLog* spans, std::uint64_t request) {
  Episode ep;
  const std::uint64_t serve_span = spans != nullptr ? spans->NextId() : 0;
  const Clock::time_point t0 = Clock::now();
  serve::ServeFrontend frontend(config, model, scenario.tenants, seed,
                                scenario.options);
  TimedIngest ingest(frontend, spans, serve_span, request);
  runtime::RuntimeOptions runtime_options;
  runtime_options.exec_threads = kExecThreads;
  runtime_options.ingest = &ingest;
  runtime::RuntimePlatform platform(config, model, seed, runtime_options);
  const Clock::time_point t1 = Clock::now();
  ep.report.runtime = platform.Serve();
  const Clock::time_point t2 = Clock::now();

  ep.setup_s = std::chrono::duration<double>(t1 - t0).count();
  ep.wall_s = std::chrono::duration<double>(t2 - t1).count();
  ep.serve_busy_s = ingest.busy_s();
  ep.serve_calls = ingest.calls();
  ep.queued_at_end = frontend.queued_total();
  ep.in_flight_at_end = frontend.in_flight_total();
  if (spans != nullptr) {
    spans->Record(spans->NextId(), "runtime.setup", t0, t1, 0, request);
    spans->Record(serve_span, "runtime.serve", t1, t2, 0, request);
  }
  FoldFrontend(frontend, ep.report);
  return ep;
}

/// Tenancy invariants, exact job conservation (the front end is still
/// alive, so end-of-run queue and in-flight counts are known), replay
/// against the sub-seed's first episode, and the pinned digest.
void CheckEpisode(const Scenario& scenario, const Episode& ep,
                  std::uint64_t first_digest, std::uint64_t pinned_digest,
                  const RunOptions& opts, Outcome& out) {
  const serve::ServeReport& r = ep.report;
  const std::uint64_t ops = r.jobs_submitted;
  const std::string name = scenario.name;
  const testkit::TenancyCheck check = testkit::CheckServeInvariants(r);
  if (!check.ok()) out.Fail(name + ": " + check.Describe(), ops);

  std::uint64_t abandoned = 0;
  for (const serve::TenantReport& t : r.tenants) abandoned += t.stats.abandoned;
  if (r.jobs_submitted != r.jobs_shed + r.jobs_released + ep.queued_at_end ||
      r.jobs_released != r.jobs_completed + abandoned + ep.in_flight_at_end) {
    out.Fail(name + ": job conservation broken", ops);
  }
  if (r.jobs_completed == 0) out.Fail(name + ": no job completed", ops);
  if (r.digest != first_digest) {
    out.Fail(name + ": replay digest " + Hex(r.digest) + " != first episode " +
                 Hex(first_digest),
             ops);
  }
  if (opts.pinned() && r.digest != pinned_digest) {
    out.Fail(name + ": digest " + Hex(r.digest) + " != pinned " +
                 Hex(pinned_digest),
             ops);
  }
}

/// The episodes of one run, grouped by sub-seed. Modeled outcomes are
/// identical within a group (checked by digest). A group's timings are its
/// best repetition: on a shared host other tenants slow whole stretches of
/// a run, and the fastest repetition is the one they disturbed least (the
/// best-of-N rule of the repository's other benches).
class Runs {
 public:
  explicit Runs(std::size_t groups) : groups_(groups) {}

  std::vector<Episode>& group(std::size_t k) { return groups_[k]; }

  [[nodiscard]] const Episode& fastest(std::size_t k) const {
    return *std::min_element(
        groups_[k].begin(), groups_[k].end(),
        [](const Episode& a, const Episode& b) { return a.wall_s < b.wall_s; });
  }

  /// Sum over groups of the fastest episode's value (one cycle of inputs).
  template <typename Fn>
  [[nodiscard]] double SumFastest(Fn&& value) const {
    double sum = 0.0;
    for (std::size_t k = 0; k < groups_.size(); ++k) sum += value(fastest(k));
    return sum;
  }

  /// Median over groups of the group's lowest value (best of N per
  /// group), for a timing each episode measures itself.
  template <typename Fn>
  [[nodiscard]] double MedianOfBest(Fn&& value) const {
    std::vector<double> v;
    for (const std::vector<Episode>& g : groups_) {
      double best = value(g.front());
      for (const Episode& ep : g) best = std::min(best, value(ep));
      v.push_back(best);
    }
    return Median(std::move(v));
  }

  /// Median over every episode of the run.
  template <typename Fn>
  [[nodiscard]] double MedianOfAll(Fn&& value) const {
    std::vector<double> v;
    for (const std::vector<Episode>& g : groups_) {
      for (const Episode& ep : g) v.push_back(value(ep));
    }
    return Median(std::move(v));
  }

 private:
  std::vector<std::vector<Episode>> groups_;
};

double DispatchBusy(const Episode& ep) {
  return ep.report.runtime.dispatch_micros.sum() / 1e6;
}

Outcome RunServe(const Scenario& scenario, const RunOptions& opts) {
  Outcome out;
  core::SimulationConfig config;
  config.duration = SimTime{opts.tiny ? kTinyEpisodeTu : kEpisodeTu};
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
  std::array<std::uint64_t, kSubSeeds> seeds{};
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    seeds[k] = MixSeed(MixSeed(opts.seed, Fnv1a64(scenario.name)), k);
  }

  SpanLog spans;
  SpanLog* span_log = opts.trace ? &spans : nullptr;
  Runs runs(kSubSeeds);
  std::size_t episodes = 0;
  const Clock::time_point loop_start = Clock::now();
  do {
    const std::size_t k = episodes % kSubSeeds;
    std::vector<Episode>& group = runs.group(k);
    group.push_back(RunEpisode(scenario, config, model, seeds[k], span_log,
                               ++episodes));
    out.AddAttempted(group.back().report.jobs_submitted);
    CheckEpisode(scenario, group.back(), group.front().report.digest,
                 scenario.pinned_digests[k], opts, out);
  } while (episodes < kSubSeeds || SecondsSince(loop_start) < opts.seconds);

  const auto completed = [](const Episode& ep) {
    return static_cast<double>(ep.report.jobs_completed);
  };
  const auto wall = [](const Episode& ep) { return ep.wall_s; };
  const double cycle_wall_s = runs.SumFastest(wall);
  const double cycle_jobs = runs.SumFastest(completed);
  out.Set("jobs_per_s", cycle_jobs / cycle_wall_s);
  // The op is one completed job: a sub-seed's fastest episode wall per job
  // it completed, so the quantiles do not follow how many jobs a seed's
  // arrivals bring. A front-end release round takes tens of nanoseconds,
  // close to the cost of the clock read that times it, so its quantiles are
  // per-layer metrics (serve.release_*) instead.
  std::vector<double> job_us;
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    const Episode& ep = runs.fastest(k);
    job_us.push_back(ep.wall_s * 1e6 / completed(ep));
  }
  out.Set("op_p50_us", Quantile(job_us, 0.5));
  out.Set("op_p99_us", Quantile(job_us, 0.99));
  const auto metric = [&runs](auto&& field) {
    return runs.SumFastest([&](const Episode& ep) {
      return static_cast<double>(field(ep.report.runtime.metrics));
    });
  };
  using Metrics = core::RunMetrics;
  out.Set("cost_per_job",
          metric([](const Metrics& m) { return m.total_cost; }) /
              metric([](const Metrics& m) { return m.jobs_completed; }));
  out.Set("latency_mean_tu",
          metric([](const Metrics& m) { return m.latency.sum(); }) /
              metric([](const Metrics& m) { return m.latency.count(); }));
  out.Set("setup_s",
          runs.MedianOfAll([](const Episode& ep) { return ep.setup_s; }));

  std::string digests;
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    digests += ' ';
    digests += Hex(runs.group(k).front().report.digest);
  }
  const double profit = metric([](const Metrics& m) { return m.profit(); });
  const double submitted = runs.SumFastest([](const Episode& ep) {
    return static_cast<double>(ep.report.jobs_submitted);
  });
  const double shed = runs.SumFastest([](const Episode& ep) {
    return static_cast<double>(ep.report.jobs_shed);
  });
  const double samples = runs.SumFastest([](const Episode& ep) {
    return static_cast<double>(ep.report.decision_samples);
  });
  out.Note(std::string(scenario.name) + ": episodes=" +
           std::to_string(episodes) + " exec_threads=" +
           std::to_string(kExecThreads) + " per cycle of " +
           std::to_string(kSubSeeds) + " sub-seeds: submitted=" +
           std::to_string(static_cast<std::uint64_t>(submitted)) + " shed=" +
           std::to_string(static_cast<std::uint64_t>(shed)) + " completed=" +
           std::to_string(static_cast<std::uint64_t>(cycle_jobs)) +
           " release_rounds_sampled=" +
           std::to_string(static_cast<std::uint64_t>(samples)) +
           " profit_per_job=" + std::to_string(profit / cycle_jobs) +
           " digests:" + digests);

  if (!opts.trace) return out;

  // Per-layer metrics are per cycle: summed over the sub-seeds' fastest
  // episodes.
  const auto count = [&runs](auto&& field) {
    return runs.SumFastest([&](const Episode& ep) {
      return static_cast<double>(field(ep.report));
    });
  };
  using Report = serve::ServeReport;
  const double released =
      count([](const Report& r) { return r.jobs_released; });
  const double stage_tasks = count(
      [](const Report& r) { return r.runtime.stage_tasks_dispatched; });
  const double rounds = count(
      [](const Report& r) { return r.runtime.dispatch_micros.count(); });
  const double slices =
      count([](const Report& r) { return r.runtime.pool_tasks_executed; });
  const double pricing =
      count([](const Report& r) { return r.pricing_evaluations; });
  const double dispatch_busy = runs.SumFastest(DispatchBusy);
  const double serve_busy =
      runs.SumFastest([](const Episode& ep) { return ep.serve_busy_s; });

  out.Set("serve.busy_s", serve_busy);
  out.Set("serve.calls", runs.SumFastest([](const Episode& ep) {
    return static_cast<double>(ep.serve_calls);
  }));
  out.Set("serve.decision_rounds",
          count([](const Report& r) { return r.decision_rounds; }));
  out.Set("serve.pricing_evals", pricing);
  out.Set("serve.pricing_per_release", pricing / std::max(1.0, released));
  out.Set("serve.shed", shed);
  double wait_tu = 0.0;
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    for (const serve::TenantReport& t : runs.group(k).front().report.tenants) {
      wait_tu += t.stats.total_queue_wait_tu;
    }
  }
  out.Set("serve.queue_wait_mean_tu", wait_tu / std::max(1.0, released));
  out.Set("serve.release_p50_us", runs.MedianOfBest([](const Episode& ep) {
    return ep.report.decision_p50_us;
  }));
  out.Set("serve.release_p99_us", runs.MedianOfBest([](const Episode& ep) {
    return ep.report.decision_p99_us;
  }));
  out.Set("runtime.dispatch_rounds", rounds);
  out.Set("runtime.dispatch_busy_s", dispatch_busy);
  out.Set("runtime.dispatch_mean_us",
          1e6 * dispatch_busy / std::max(1.0, rounds));
  out.Set("runtime.stage_tasks", stage_tasks);
  out.Set("runtime.other_s", runs.SumFastest([](const Episode& ep) {
    return ep.wall_s - ep.serve_busy_s - DispatchBusy(ep);
  }));
  out.Set("concurrency.threads", static_cast<double>(kExecThreads));
  out.Set("concurrency.slices", slices);
  out.Set("concurrency.slices_per_task", slices / std::max(1.0, stage_tasks));
  double peak_depth = 0.0;
  RunningStats utilization;
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    for (const Episode& ep : runs.group(k)) {
      peak_depth = std::max(peak_depth, static_cast<double>(
                                            ep.report.runtime
                                                .peak_pool_queue_depth));
    }
    utilization.Merge(
        runs.group(k).front().report.runtime.metrics.worker_utilization);
  }
  out.Set("concurrency.peak_queue_depth", peak_depth);
  out.Set("core.dispatches", count([](const Report& r) {
            return r.runtime.metrics.queue_wait.count();
          }));
  out.Set("core.hires_private", count([](const Report& r) {
            return r.runtime.metrics.private_hires;
          }));
  out.Set("core.hires_public", count([](const Report& r) {
            return r.runtime.metrics.public_hires;
          }));
  out.Set("core.reconfigs", count([](const Report& r) {
            return r.runtime.metrics.reconfigurations;
          }));
  out.Set("core.releases",
          count([](const Report& r) { return r.runtime.metrics.releases; }));
  out.Set("core.worker_util_mean", utilization.mean());

  // The obs cost, paired: per sub-seed one obs-off episode and, right
  // after it, one with the program's trace recorder and decision audit on
  // (one episode at a time, so the audit log stays bounded).
  double off_wall_s = 0.0;
  double on_wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t hire_evals = 0;
  std::string by_kind;
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    off_wall_s += RunEpisode(scenario, config, model, seeds[k], span_log,
                             ++episodes)
                      .wall_s;
    ObsPass obs;
    const Episode ep = RunEpisode(scenario, config, model, seeds[k], span_log,
                                  ++episodes);
    obs.Harvest();
    CheckEpisode(scenario, ep, runs.group(k).front().report.digest,
                 scenario.pinned_digests[k], opts, out);
    on_wall_s += ep.wall_s;
    events += obs.events();
    hire_evals += obs.hire_evals();
    if (k == 0) by_kind = obs.by_kind();
  }
  out.Set("core.hire_evals", static_cast<double>(hire_evals));
  out.Set("obs.trace_events", static_cast<double>(events));
  out.Set("obs.trace_slowdown", on_wall_s / off_wall_s);
  out.Note("obs events by kind, first sub-seed (retained window):" + by_kind);
  WriteSpans(opts, spans, out);
  return out;
}

}  // namespace

Outcome RunServeMixed(const RunOptions& opts) {
  return RunServe(MixedScenario(), opts);
}

Outcome RunServeOverload(const RunOptions& opts) {
  return RunServe(OverloadScenario(), opts);
}

}  // namespace perfbench
