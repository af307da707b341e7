// WallClock serve smoke test: the multi-tenant front end feeding the live
// runtime on the wall clock, so ingest pulls, outcome callbacks and
// released jobs interleave with real completion messages from the
// executor threads. Runs are nondeterministic; the assertions are the
// tenancy invariants and exact job conservation between the front end
// and the platform. The TSan CI job runs this binary.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "scan/gatk/pipeline_model.hpp"
#include "scan/runtime/runtime_platform.hpp"
#include "scan/serve/frontend.hpp"
#include "scan/serve/serve.hpp"
#include "scan/testkit/tenancy.hpp"

namespace scan::serve {
namespace {

TEST(ServeWallClock, FrontendDrivesWallRuntime) {
  // Light load with one thread per stage, so the modeled work fits a
  // test-sized execution pool in real time (see runtime_wall_test.cpp).
  core::SimulationConfig config;
  config.duration = SimTime{150.0};
  config.mean_interarrival_tu = 8.0;
  config.mean_jobs_per_arrival = 1.0;
  config.jobs_per_arrival_variance = 0.0;
  config.mean_job_size = 3.0;
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();

  std::vector<TenantSpec> tenants(2);
  tenants[0].id = 1;
  tenants[0].name = "steady";
  tenants[1].id = 2;
  tenants[1].name = "bursty";
  tenants[1].pattern.pattern = workload::ArrivalPattern::kBursty;
  tenants[1].max_in_flight = 4;

  ServeOptions options;
  options.global_max_in_flight = 6;
  ServeFrontend frontend(config, model, tenants, 0x5A11, options);

  runtime::RuntimeOptions ropts;
  ropts.clock = runtime::ClockMode::kWall;
  ropts.wall_seconds_per_tu = 0.002;  // 150 TU -> ~0.3 s wall
  ropts.exec_threads = 4;
  ropts.forced_plan = core::ThreadPlan(7, 1);
  ropts.ingest = &frontend;
  runtime::RuntimePlatform platform(config, model, 0x5A11, ropts);

  ServeReport report;
  report.runtime = platform.Serve();
  std::uint64_t abandoned = 0;
  for (const TenantSpec& spec : frontend.tenants()) {
    TenantReport tr;
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
    abandoned += tr.stats.abandoned;
    report.tenants.push_back(tr);
  }
  report.quota_violations = frontend.quota_violations();
  report.work_conservation_violations =
      frontend.work_conservation_violations();
  report.peak_global_in_flight = frontend.peak_global_in_flight();

  const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
  EXPECT_TRUE(check.ok()) << check.Describe();
  EXPECT_EQ(report.runtime.clock, runtime::ClockMode::kWall);
  EXPECT_GT(report.jobs_completed, 0u);
  EXPECT_LE(report.peak_global_in_flight, options.global_max_in_flight);

  // Job conservation: every submission was shed, released or is still
  // queued; every release completed, was abandoned or is still in
  // flight; and the platform saw exactly the released jobs.
  EXPECT_EQ(report.jobs_submitted,
            report.jobs_shed + report.jobs_released + frontend.queued_total());
  EXPECT_EQ(report.jobs_released,
            report.jobs_completed + abandoned + frontend.in_flight_total());
  EXPECT_EQ(report.runtime.metrics.jobs_arrived, report.jobs_released);
  EXPECT_EQ(report.runtime.metrics.jobs_completed, report.jobs_completed);
}

}  // namespace
}  // namespace scan::serve
