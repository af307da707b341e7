// Multi-tenant serving front end: fairness, quotas, admission control,
// batched pricing, and deterministic replay — the tenancy oracle's
// invariants exercised under flash crowds, overload/shedding, and the
// chaos fault presets.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "expect_rejected.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/serve/frontend.hpp"
#include "scan/serve/serve.hpp"
#include "scan/testkit/chaos.hpp"
#include "scan/testkit/tenancy.hpp"

namespace scan::serve {
namespace {

core::SimulationConfig BaseConfig() {
  core::SimulationConfig config;
  config.duration = SimTime{200.0};
  config.mean_interarrival_tu = 2.5;
  return config;
}

TenantSpec MakeTenant(std::uint64_t id, const char* name) {
  TenantSpec spec;
  spec.id = id;
  spec.name = name;
  return spec;
}

TEST(ServeFrontendTest, RejectsBadSpecs) {
  const core::SimulationConfig config = BaseConfig();
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
  EXPECT_THROW(ServeFrontend(config, model, {}, 1), std::invalid_argument);

  std::vector<TenantSpec> dup{MakeTenant(7, "a"), MakeTenant(7, "b")};
  EXPECT_THROW(ServeFrontend(config, model, dup, 1), std::invalid_argument);

  std::vector<TenantSpec> bad_weight{MakeTenant(1, "a")};
  bad_weight[0].weight = 0.0;
  EXPECT_THROW(ServeFrontend(config, model, bad_weight, 1),
               std::invalid_argument);
}

TEST(ServeFrontendTest, RejectsAWeightThatIsNotFinite) {
  // A NaN weight fails every comparison, `weight <= 0` included, and its
  // tenant would never be served.
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    std::vector<TenantSpec> tenants{MakeTenant(1, "a"), MakeTenant(3, "b")};
    tenants[1].weight = weight;
    ExpectRejected([&] { ServeFrontend(BaseConfig(), model, tenants, 1); },
                   {"tenant 3", "weight"});
  }
}

TEST(ServeFrontendTest, RejectsAZeroQuotaEpochUnderAFiniteBudget) {
  // The epoch index divides by the epoch; with a zero epoch the budget
  // wake-up would fire at the same instant forever.
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
  for (const double epoch : {0.0, -5.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    std::vector<TenantSpec> tenants{MakeTenant(4, "metered")};
    tenants[0].worker_tu_per_epoch = 500.0;
    tenants[0].quota_epoch = SimTime{epoch};
    ExpectRejected([&] { ServeFrontend(BaseConfig(), model, tenants, 1); },
                   {"tenant 4", "quota_epoch"});
  }
  // Without a budget the epoch is never read.
  std::vector<TenantSpec> unmetered{MakeTenant(4, "unmetered")};
  unmetered[0].quota_epoch = SimTime{0.0};
  EXPECT_NO_THROW(ServeFrontend(BaseConfig(), model, unmetered, 1));
}

TEST(ServeFrontendTest, SubmitAtRejectsSizesThatAreNotFiniteAndPositive) {
  // A NaN size would run at 0 stage time and make the tenant's reward NaN.
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
  std::vector<TenantSpec> tenants{MakeTenant(2, "explicit")};
  tenants[0].drive_synthetic = false;
  ServeFrontend frontend(BaseConfig(), model, tenants, 1);
  for (const double size : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), 0.0,
                            -1.0}) {
    ExpectRejected([&] { frontend.SubmitAt(SimTime{1.0}, 2, DataSize{size}); },
                   {"tenant 2", "size"});
  }
  EXPECT_NO_THROW(frontend.SubmitAt(SimTime{1.0}, 2, DataSize{4.0}));
}

TEST(ServeFrontendTest, SubmitAtRejectsTimesThatAreNotFiniteAndNonNegative) {
  // A NaN time has no place in the sorted submission order.
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
  std::vector<TenantSpec> tenants{MakeTenant(2, "explicit")};
  tenants[0].drive_synthetic = false;
  ServeFrontend frontend(BaseConfig(), model, tenants, 1);
  for (const double when : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), -1.0}) {
    ExpectRejected([&] { frontend.SubmitAt(SimTime{when}, 2, DataSize{4.0}); },
                   {"tenant 2", "time"});
  }
  EXPECT_NO_THROW(frontend.SubmitAt(SimTime{0.0}, 2, DataSize{4.0}));
}

TEST(ServeFrontendTest, ExplicitSubmissionsServeDeterministically) {
  core::SimulationConfig config = BaseConfig();
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();

  std::vector<TenantSpec> tenants{MakeTenant(1, "lab-a")};
  tenants[0].drive_synthetic = false;

  ServeOptions options;
  options.global_max_in_flight = 32;

  ServeFrontend frontend(config, model, tenants, 42, options);
  for (int i = 0; i < 50; ++i) {
    frontend.SubmitAt(SimTime{0.0}, 1, DataSize{4.0 + 0.1 * i});
  }
  runtime::RuntimeOptions ropts;
  ropts.ingest = &frontend;
  runtime::RuntimePlatform platform(config, model, 42, ropts);
  const runtime::RuntimeReport report = platform.Serve();

  const TenantStats& stats = frontend.StatsFor(1);
  EXPECT_EQ(stats.submitted, 50u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.released, 50u);
  EXPECT_EQ(stats.completed, 50u);
  EXPECT_EQ(report.metrics.jobs_completed, 50u);
  EXPECT_GT(stats.reward, 0.0);
  EXPECT_EQ(frontend.quota_violations(), 0u);
  EXPECT_EQ(frontend.work_conservation_violations(), 0u);
  // The global cap bounded concurrent load.
  EXPECT_LE(frontend.peak_global_in_flight(), 32u);
}

TEST(ServeFrontendTest, BatchedPricingAmortizesAcrossBurst) {
  core::SimulationConfig config = BaseConfig();
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();

  std::vector<TenantSpec> tenants{MakeTenant(1, "burst")};
  tenants[0].drive_synthetic = false;

  ServeOptions options;
  options.global_max_in_flight = 32;
  options.pricing_onset = 0.5;  // price once in-flight reaches 16

  ServeFrontend frontend(config, model, tenants, 7, options);
  for (int i = 0; i < 50; ++i) {
    frontend.SubmitAt(SimTime{0.0}, 1, DataSize{5.0});
  }
  runtime::RuntimeOptions ropts;
  ropts.ingest = &frontend;
  runtime::RuntimePlatform platform(config, model, 7, ropts);
  (void)platform.Serve();

  const TenantStats& stats = frontend.StatsFor(1);
  EXPECT_EQ(stats.released, 50u);
  // The point of batching: one evaluation prices a whole burst, so the
  // count stays well below both per-release and per-round evaluation.
  EXPECT_GT(frontend.pricing_evaluations(), 0u);
  EXPECT_LT(frontend.pricing_evaluations(), stats.released);
  EXPECT_LE(frontend.pricing_evaluations(), frontend.decision_rounds());
}

TEST(ServeTest, FlashCrowdOnOneTenantDoesNotStarveAnother) {
  core::SimulationConfig config = BaseConfig();
  config.duration = SimTime{250.0};

  std::vector<TenantSpec> tenants;
  TenantSpec crowd = MakeTenant(1, "flash-crowd");
  crowd.pattern.pattern = workload::ArrivalPattern::kFlashCrowd;
  crowd.pattern.flash_time_tu = 50.0;
  crowd.pattern.flash_rate_factor = 10.0;
  crowd.pattern.flash_decay_tu = 40.0;
  crowd.rate_scale = 2.0;
  TenantSpec steady = MakeTenant(2, "steady");
  steady.rate_scale = 0.5;
  tenants.push_back(crowd);
  tenants.push_back(steady);

  ServeOptions options;
  options.global_max_in_flight = 24;  // scarce: the crowd wants it all

  const ServeReport report =
      RunMultiTenantServe(config, tenants, /*seed=*/11, options);
  const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
  EXPECT_TRUE(check.ok()) << check.Describe();

  ASSERT_EQ(report.tenants.size(), 2u);
  const TenantStats& crowd_stats = report.tenants[0].stats;
  const TenantStats& steady_stats = report.tenants[1].stats;
  EXPECT_GT(crowd_stats.submitted, steady_stats.submitted);
  // Starvation-freedom: the steady tenant kept being served through the
  // crowd's spike.
  EXPECT_GT(steady_stats.released, 0u);
  EXPECT_GT(steady_stats.completed, 0u);
}

TEST(ServeTest, WeightedFairShareUnderPersistentOverload) {
  core::SimulationConfig config = BaseConfig();
  config.duration = SimTime{300.0};

  std::vector<TenantSpec> tenants;
  TenantSpec heavy = MakeTenant(1, "weight-3");
  heavy.weight = 3.0;
  heavy.rate_scale = 3.0;
  heavy.max_queue_depth = 4096;
  TenantSpec light = MakeTenant(2, "weight-1");
  light.weight = 1.0;
  light.rate_scale = 3.0;
  light.max_queue_depth = 4096;
  tenants.push_back(heavy);
  tenants.push_back(light);

  ServeOptions options;
  options.global_max_in_flight = 12;  // both stay backlogged throughout
  options.pricing_onset = 2.0;        // disable pricing: isolate DRR

  const ServeReport report =
      RunMultiTenantServe(config, tenants, /*seed=*/3, options);
  const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
  EXPECT_TRUE(check.ok()) << check.Describe();

  const TenantStats& heavy_stats = report.tenants[0].stats;
  const TenantStats& light_stats = report.tenants[1].stats;
  ASSERT_GT(light_stats.released, 0u);
  // Worker-TU served tracks the 3:1 weights (loose band: job sizes vary).
  const double ratio =
      heavy_stats.worker_tu_charged / light_stats.worker_tu_charged;
  EXPECT_GT(ratio, 1.8) << "heavy=" << heavy_stats.worker_tu_charged
                        << " light=" << light_stats.worker_tu_charged;
  EXPECT_LT(ratio, 5.0);
}

TEST(ServeTest, OverloadShedsAtBoundedQueueAndReplaysBitIdentically) {
  core::SimulationConfig config = BaseConfig();
  config.duration = SimTime{200.0};

  std::vector<TenantSpec> tenants;
  TenantSpec bursty = MakeTenant(1, "bursty");
  bursty.pattern.pattern = workload::ArrivalPattern::kBursty;
  bursty.rate_scale = 4.0;
  bursty.max_queue_depth = 8;  // tiny bound: overload must shed
  TenantSpec diurnal = MakeTenant(2, "diurnal");
  diurnal.pattern.pattern = workload::ArrivalPattern::kDiurnal;
  diurnal.rate_scale = 2.0;
  diurnal.max_queue_depth = 8;
  tenants.push_back(bursty);
  tenants.push_back(diurnal);

  ServeOptions options;
  options.global_max_in_flight = 8;

  const ServeReport first =
      RunMultiTenantServe(config, tenants, /*seed=*/99, options);
  EXPECT_GT(first.jobs_shed, 0u) << "overload episode did not shed";
  ASSERT_EQ(first.tenants.size(), 2u);
  for (const TenantReport& t : first.tenants) {
    EXPECT_LE(t.stats.peak_queue_depth, 8u);
  }

  const testkit::TenancyCheck replay = testkit::CheckServeReplay(
      config, gatk::PipelineModel::PaperGatk(), tenants, 99, options);
  EXPECT_TRUE(replay.ok()) << replay.Describe();
}

/// The serve and pool registry series equal the books they mirror: one
/// overloaded episode with metrics on, its counters checked against the
/// front end's ledger and the platform's report, its gauges against the
/// end-of-run levels (submitted - shed - released jobs are still queued,
/// released jobs without an outcome are still in flight).
TEST(ServeTest, RegistrySeriesEqualTheLedgers) {
  std::vector<TenantSpec> tenants;
  TenantSpec bursty = MakeTenant(1, "bursty");
  bursty.pattern.pattern = workload::ArrivalPattern::kBursty;
  bursty.rate_scale = 4.0;
  bursty.max_queue_depth = 8;
  TenantSpec steady = MakeTenant(2, "steady");
  steady.rate_scale = 2.0;
  steady.max_queue_depth = 8;
  tenants.push_back(bursty);
  tenants.push_back(steady);
  ServeOptions options;
  options.global_max_in_flight = 8;
  runtime::RuntimeOptions ropts;
  ropts.exec_threads = 2;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  obs::EnableMetrics();
  const ServeReport report =
      RunMultiTenantServe(BaseConfig(), tenants, /*seed=*/99, options, ropts);
  obs::DisableMetrics();
  const auto counter = [&](const char* name) {
    return registry.GetCounter(name, "").value();
  };
  const auto gauge = [&](const char* name) {
    return registry.GetGauge(name, "").value();
  };

  std::uint64_t outcomes = 0;
  std::uint64_t queued = 0;
  std::uint64_t in_flight = 0;
  for (const TenantReport& t : report.tenants) {
    const TenantStats& s = t.stats;
    const std::uint64_t depth = s.submitted - s.shed - s.released;
    outcomes += s.completed + s.abandoned;
    queued += depth;
    in_flight += s.released - s.completed - s.abandoned;
    EXPECT_EQ(obs::TenantQueueGauge(t.id).value(), static_cast<double>(depth))
        << t.name;
  }
  // Not vacuous: the episode sheds, prices, and ends with work queued and
  // in flight.
  EXPECT_GT(report.jobs_shed, 0u);
  EXPECT_GT(report.pricing_evaluations, 0u);
  EXPECT_GT(queued, 0u);
  EXPECT_GT(in_flight, 0u);

  EXPECT_EQ(counter("scan_serve_jobs_submitted_total"), report.jobs_submitted);
  EXPECT_EQ(counter("scan_serve_jobs_admitted_total"),
            report.jobs_submitted - report.jobs_shed);
  EXPECT_EQ(counter("scan_serve_jobs_shed_total"), report.jobs_shed);
  EXPECT_EQ(counter("scan_serve_jobs_released_total"), report.jobs_released);
  EXPECT_EQ(counter("scan_serve_jobs_completed_total"), outcomes);
  EXPECT_EQ(counter("scan_serve_decision_rounds_total"),
            report.decision_rounds);
  EXPECT_EQ(counter("scan_serve_pricing_evaluations_total"),
            report.pricing_evaluations);
  EXPECT_EQ(gauge("scan_serve_queued_jobs"), static_cast<double>(queued));
  EXPECT_EQ(gauge("scan_serve_in_flight_jobs"),
            static_cast<double>(in_flight));
  EXPECT_EQ(counter("scan_pool_tasks_executed_total"),
            report.runtime.pool_tasks_executed);
  EXPECT_EQ(counter("scan_completions_pushed_total"),
            report.runtime.stage_tasks_dispatched);
}

TEST(ServeTest, TicketBookStaysBoundedOverLongRuns) {
  // The runtime's ticket book holds one slot per ticket outstanding at
  // once, whatever the run's length: a 4x longer run dispatches ~4x the
  // stage tasks through the same few slots.
  using P = workload::ArrivalPattern;
  std::vector<TenantSpec> tenants;
  const auto add = [&tenants](std::uint64_t id, const char* name, P pattern) {
    TenantSpec spec = MakeTenant(id, name);
    spec.pattern.pattern = pattern;
    tenants.push_back(spec);
  };
  add(1, "steady", P::kHomogeneous);
  add(2, "diurnal", P::kDiurnal);
  add(3, "bursty", P::kBursty);
  ServeOptions options;
  options.global_max_in_flight = 32;
  runtime::RuntimeOptions ropts;
  ropts.exec_threads = 2;

  std::vector<runtime::RuntimeReport> runs;
  for (const double duration : {2000.0, 8000.0}) {
    core::SimulationConfig config = BaseConfig();
    config.duration = SimTime{duration};
    const ServeReport report =
        RunMultiTenantServe(config, tenants, /*seed=*/31, options, ropts);
    const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
    EXPECT_TRUE(check.ok()) << duration << " TU:\n" << check.Describe();
    const runtime::RuntimeReport& r = report.runtime;
    EXPECT_GT(r.ticket_slots, 0u) << duration << " TU";
    EXPECT_LE(r.ticket_slots, r.peak_tickets_outstanding) << duration << " TU";
    runs.push_back(r);
  }
  EXPECT_GT(runs[1].stage_tasks_dispatched,
            3 * runs[0].stage_tasks_dispatched);
  EXPECT_LT(runs[1].ticket_slots, runs[1].stage_tasks_dispatched / 100)
      << "not one slot per ticket of the run";
}

TEST(ServeTest, QuotasHoldUnderChaosPresets) {
  for (const testkit::ChaosSpec& spec : testkit::ChaosScenarios()) {
    core::SimulationConfig config = spec.config;
    config.duration = SimTime{150.0};

    std::vector<TenantSpec> tenants;
    TenantSpec a = MakeTenant(1, "chaos-a");
    a.max_in_flight = 6;
    a.rate_scale = 1.5;
    TenantSpec b = MakeTenant(2, "chaos-b");
    b.max_in_flight = 4;
    tenants.push_back(a);
    tenants.push_back(b);

    ServeOptions options;
    options.global_max_in_flight = 9;

    const gatk::PipelineModel model =
        spec.model ? *spec.model : gatk::PipelineModel::PaperGatk();
    const ServeReport report = RunMultiTenantServe(
        config, model, tenants, config.SeedFor(0), options);
    const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
    EXPECT_TRUE(check.ok()) << spec.name << ":\n" << check.Describe();
    EXPECT_EQ(report.quota_violations, 0u) << spec.name;
    EXPECT_GT(report.jobs_released, 0u) << spec.name;
    for (const TenantReport& t : report.tenants) {
      EXPECT_LE(t.stats.peak_in_flight, t.max_in_flight) << spec.name;
    }
  }
}

TEST(ServeTest, WorkerTuBudgetMetersEpochs) {
  core::SimulationConfig config = BaseConfig();
  config.duration = SimTime{200.0};

  std::vector<TenantSpec> tenants;
  TenantSpec metered = MakeTenant(1, "metered");
  metered.rate_scale = 2.0;
  metered.worker_tu_per_epoch = 60.0;
  metered.quota_epoch = SimTime{50.0};
  metered.max_queue_depth = 4096;
  tenants.push_back(metered);

  const ServeReport report = RunMultiTenantServe(config, tenants, 5);
  const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
  EXPECT_TRUE(check.ok()) << check.Describe();

  const TenantStats& stats = report.tenants[0].stats;
  EXPECT_GT(stats.released, 0u);
  // duration/epoch = 4 epochs, plus the partial boundary epoch: total
  // charge can never exceed (epochs + 1) * budget.
  EXPECT_LE(stats.worker_tu_charged, 5 * 60.0 + 1e-9);
}

TEST(ServeTest, FourTenantDigestIsPinned) {
  // One 4-tenant episode (steady, diurnal, bursty, flash crowd) at one
  // seed, pinned to its digest: any change to the platform mechanics, the
  // front end, or their calendar interleaving that moves a modeled
  // outcome shows up here.
  using P = workload::ArrivalPattern;
  std::vector<TenantSpec> tenants;
  const auto add = [&tenants](std::uint64_t id, const char* name, P pattern,
                              double weight, double rate_scale) {
    TenantSpec spec = MakeTenant(id, name);
    spec.pattern.pattern = pattern;
    spec.weight = weight;
    spec.rate_scale = rate_scale;
    tenants.push_back(spec);
  };
  add(1, "steady", P::kHomogeneous, 1.0, 1.0);
  add(2, "diurnal", P::kDiurnal, 2.0, 1.0);
  add(3, "bursty", P::kBursty, 1.0, 1.5);
  add(4, "flash", P::kFlashCrowd, 1.0, 1.0);

  ServeOptions options;
  options.global_max_in_flight = 32;

  const ServeReport report =
      RunMultiTenantServe(BaseConfig(), tenants, /*seed=*/0x5E12, options);
  const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
  EXPECT_TRUE(check.ok()) << check.Describe();
  EXPECT_GT(report.jobs_completed, 0u);
  EXPECT_EQ(report.digest, 0xe70b02abe396cb25ULL) << std::hex << report.digest;
}

TEST(ServeTest, MultiSeedInvariantSweep) {
  core::SimulationConfig config = BaseConfig();
  config.duration = SimTime{150.0};

  for (std::uint64_t seed : {1ull, 17ull, 23017ull, 901ull, 442211ull}) {
    std::vector<TenantSpec> tenants;
    TenantSpec a = MakeTenant(1, "sweep-a");
    a.pattern.pattern = workload::ArrivalPattern::kBursty;
    a.rate_scale = 2.0;
    TenantSpec b = MakeTenant(2, "sweep-b");
    b.weight = 2.0;
    tenants.push_back(a);
    tenants.push_back(b);

    ServeOptions options;
    options.global_max_in_flight = 16;

    const ServeReport report =
        RunMultiTenantServe(config, tenants, seed, options);
    const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
    EXPECT_TRUE(check.ok()) << "seed " << seed << ":\n" << check.Describe();
    EXPECT_EQ(report.work_conservation_violations, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace scan::serve
