// Multi-tenant serving throughput: sustained simulated jobs/hour through
// the ServeFrontend -> RuntimePlatform ingest path, with the tenancy
// oracle's invariants enforced inline (zero quota violations, no
// starvation, bounded p99 decision latency) and a same-seed replay
// compared digest-for-digest.
//
// Flags: --duration=TU (default 2000), --csv=PATH, --json=PATH.
//
// Exits non-zero if any scenario violates an invariant, diverges on
// replay, or shows pathological decision latency — so the ctest smoke
// entry doubles as a correctness gate, and CI gates jobs_per_hour
// against results/BENCH_serve_throughput.json via
// scripts/check_bench_regression.py.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scan/serve/serve.hpp"
#include "scan/testkit/tenancy.hpp"

using namespace scan;
using namespace scan::serve;

namespace {

struct Scenario {
  std::string name;
  std::vector<TenantSpec> tenants;
  ServeOptions options;
  double rate_knob = 1.0;  ///< mean_interarrival divisor for the config
};

TenantSpec Tenant(std::uint64_t id, const char* name,
                  workload::ArrivalPattern pattern, double weight,
                  double rate_scale) {
  TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.pattern.pattern = pattern;
  spec.weight = weight;
  spec.rate_scale = rate_scale;
  return spec;
}

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;

  // The headline row: four tenants, one per arrival pattern, generous
  // quotas — measures raw serving throughput of the full decision path.
  {
    Scenario s;
    s.name = "serve_mixed_4tenants";
    s.tenants.push_back(Tenant(1, "steady",
                               workload::ArrivalPattern::kHomogeneous, 1.0,
                               1.0));
    s.tenants.push_back(Tenant(2, "diurnal",
                               workload::ArrivalPattern::kDiurnal, 2.0, 1.0));
    s.tenants.push_back(Tenant(3, "bursty", workload::ArrivalPattern::kBursty,
                               1.0, 1.5));
    s.tenants.push_back(Tenant(4, "flash",
                               workload::ArrivalPattern::kFlashCrowd, 1.0,
                               1.0));
    for (TenantSpec& t : s.tenants) t.max_queue_depth = 4096;
    s.options.global_max_in_flight = 256;
    scenarios.push_back(std::move(s));
  }

  // Overload: tiny queues and scarce capacity, so admission control and
  // load shedding run hot on every arrival.
  {
    Scenario s;
    s.name = "serve_overload_shed";
    s.tenants.push_back(Tenant(1, "heavy", workload::ArrivalPattern::kBursty,
                               3.0, 4.0));
    s.tenants.push_back(Tenant(2, "light",
                               workload::ArrivalPattern::kHomogeneous, 1.0,
                               2.0));
    for (TenantSpec& t : s.tenants) t.max_queue_depth = 16;
    s.options.global_max_in_flight = 32;
    scenarios.push_back(std::move(s));
  }

  return scenarios;
}

}  // namespace

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto obs_session = bench::MakeObsSession(flags);
  const double duration_tu = flags.GetDouble("duration", 2000.0);
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  std::cout << "serve throughput: " << duration_tu << " TU horizon\n\n";

  CsvTable table({"scenario", "tenants", "duration_tu", "submitted",
                  "released", "completed", "shed", "wall_s", "jobs_per_hour",
                  "decision_rounds", "pricing_evaluations", "decision_p99_us",
                  "quota_violations", "invariants", "replay_match"});

  bool failed = false;
  for (const Scenario& scenario : MakeScenarios()) {
    core::SimulationConfig config;
    config.duration = SimTime{duration_tu};
    config.mean_interarrival_tu /= scenario.rate_knob;

    const std::uint64_t seed = 0x5EA7BE17;
    const ServeReport report = RunMultiTenantServe(
        config, scenario.tenants, seed, scenario.options);
    const ServeReport replay = RunMultiTenantServe(
        config, scenario.tenants, seed, scenario.options);

    const testkit::TenancyCheck check = testkit::CheckServeInvariants(report);
    const bool replay_match = report.digest == replay.digest;
    // Bounded decision latency: p99 above 50ms per round is pathological
    // on any hardware this runs on (the target is tens of microseconds).
    const bool latency_ok =
        report.decision_samples == 0 || report.decision_p99_us < 50000.0;

    if (!check.ok()) {
      std::cerr << scenario.name << ": " << check.Describe();
      failed = true;
    }
    if (!replay_match) {
      std::cerr << scenario.name << ": replay digest diverged\n";
      failed = true;
    }
    if (!latency_ok) {
      std::cerr << scenario.name << ": decision p99 "
                << report.decision_p99_us << "us exceeds bound\n";
      failed = true;
    }

    const double wall = report.runtime.wall_seconds;
    const double jobs_per_hour =
        wall > 0.0 ? 3600.0 * static_cast<double>(report.jobs_completed) / wall
                   : 0.0;
    table.AddRow(
        {scenario.name,
         CsvTable::Num(static_cast<double>(report.tenants.size())),
         CsvTable::Num(duration_tu),
         CsvTable::Num(static_cast<double>(report.jobs_submitted)),
         CsvTable::Num(static_cast<double>(report.jobs_released)),
         CsvTable::Num(static_cast<double>(report.jobs_completed)),
         CsvTable::Num(static_cast<double>(report.jobs_shed)),
         CsvTable::Num(wall), CsvTable::Num(jobs_per_hour),
         CsvTable::Num(static_cast<double>(report.decision_rounds)),
         CsvTable::Num(static_cast<double>(report.pricing_evaluations)),
         CsvTable::Num(report.decision_p99_us),
         CsvTable::Num(static_cast<double>(report.quota_violations)),
         check.ok() ? "ok" : "violated", replay_match ? "yes" : "no"});
  }

  bench::Emit(table, output);
  if (failed) {
    std::cerr << "\nFAIL: serving invariants violated\n";
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
