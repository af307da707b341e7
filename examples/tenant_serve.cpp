// tenant_serve: the multi-tenant serving front end in one run.
//
//   $ ./tenant_serve                   # three tenants, 400 TU
//   $ ./tenant_serve --duration=1000
//
// Three tenants share one RuntimePlatform through a ServeFrontend: a
// steady lab with triple weight, a bursty pipeline with a bounded queue,
// and a flash crowd that spikes mid-run. The front end streams their
// arrivals into the platform, enforces quotas (shedding at full queues),
// serves queues by weighted deficit round-robin, and batches the paper's
// SS:III hire-vs-wait evaluation across bursts. Same seed -> bit-identical
// episode digest; the demo runs twice to prove it.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "scan/serve/serve.hpp"
#include "scan/testkit/tenancy.hpp"

using namespace scan;
using namespace scan::serve;

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  core::SimulationConfig config;
  config.duration = SimTime{flags.GetDouble("duration", 400.0)};
  flags.RejectUnread();

  std::vector<TenantSpec> tenants;
  TenantSpec lab;
  lab.id = 1;
  lab.name = "steady-lab";
  lab.weight = 3.0;
  tenants.push_back(lab);

  TenantSpec pipeline;
  pipeline.id = 2;
  pipeline.name = "bursty-pipeline";
  pipeline.pattern.pattern = workload::ArrivalPattern::kBursty;
  pipeline.rate_scale = 2.0;
  pipeline.max_queue_depth = 32;  // bounded: overload sheds, not queues
  tenants.push_back(pipeline);

  TenantSpec crowd;
  crowd.id = 3;
  crowd.name = "flash-crowd";
  crowd.pattern.pattern = workload::ArrivalPattern::kFlashCrowd;
  crowd.pattern.flash_time_tu = config.duration.value() / 2.0;
  tenants.push_back(crowd);

  ServeOptions options;
  options.global_max_in_flight = 64;

  const std::uint64_t seed = 42;
  const ServeReport report =
      RunMultiTenantServe(config, tenants, seed, options);

  std::printf("multi-tenant serve: %.0f TU, %zu tenants\n",
              config.duration.value(), report.tenants.size());
  std::printf("%-16s %6s %9s %6s %5s %10s %9s %11s\n", "tenant", "weight",
              "submitted", "shed", "done", "reward", "worker-tu",
              "max-wait-tu");
  for (const TenantReport& t : report.tenants) {
    std::printf("%-16s %6.1f %9llu %6llu %5llu %10.1f %9.1f %11.2f\n",
                t.name.c_str(), t.weight,
                static_cast<unsigned long long>(t.stats.submitted),
                static_cast<unsigned long long>(t.stats.shed),
                static_cast<unsigned long long>(t.stats.completed),
                t.stats.reward, t.stats.worker_tu_charged,
                t.stats.max_queue_wait_tu);
  }
  std::printf("\nplatform: %llu released, %llu completed, peak %zu in "
              "flight (cap %zu)\n",
              static_cast<unsigned long long>(report.jobs_released),
              static_cast<unsigned long long>(report.jobs_completed),
              report.peak_global_in_flight, options.global_max_in_flight);
  std::printf("decisions: %llu rounds, %llu pricing evaluations, p99 "
              "%.1f us\n",
              static_cast<unsigned long long>(report.decision_rounds),
              static_cast<unsigned long long>(report.pricing_evaluations),
              report.decision_p99_us);

  // Invariants + determinism double as this demo's self-check so the
  // ctest smoke entry fails loudly when serving misbehaves.
  const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
  if (!check.ok()) {
    std::fprintf(stderr, "%s", check.Describe().c_str());
    return 1;
  }
  const ServeReport replay =
      RunMultiTenantServe(config, tenants, seed, options);
  if (replay.digest != report.digest) {
    std::fprintf(stderr, "replay diverged: 0x%016llx != 0x%016llx\n",
                 static_cast<unsigned long long>(replay.digest),
                 static_cast<unsigned long long>(report.digest));
    return 1;
  }
  std::printf("replay: digest 0x%016llx reproduced bit-for-bit\n",
              static_cast<unsigned long long>(report.digest));
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
