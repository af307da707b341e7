// Multi-tenant serving front end: fairness, quotas, admission control,
// batched pricing, and deterministic replay — the tenancy oracle's
// invariants exercised under flash crowds, overload/shedding, and the
// chaos fault presets.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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
