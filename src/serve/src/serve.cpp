#include "scan/serve/serve.hpp"

#include <bit>
#include <utility>

#include "scan/common/rng.hpp"

namespace scan::serve {

ServeReport RunMultiTenantServe(const core::SimulationConfig& config,
                                const gatk::PipelineModel& model,
                                std::vector<TenantSpec> tenants,
                                std::uint64_t seed,
                                ServeOptions serve_options,
                                runtime::RuntimeOptions runtime_options) {
  ServeFrontend frontend(config, model, std::move(tenants), seed,
                         serve_options);
  runtime_options.ingest = &frontend;
  runtime::RuntimePlatform platform(config, model, seed, runtime_options);

  ServeReport report;
  report.runtime = platform.Serve();

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

  std::uint64_t digest = frontend.Digest();
  digest = Fnv1aMixU64(digest, report.runtime.metrics.jobs_completed);
  digest = Fnv1aMixU64(digest, report.runtime.metrics.jobs_arrived);
  digest = Fnv1aMixU64(
      digest, std::bit_cast<std::uint64_t>(report.runtime.metrics.total_reward));
  digest = Fnv1aMixU64(
      digest, std::bit_cast<std::uint64_t>(report.runtime.metrics.total_cost));
  report.digest = digest;
  return report;
}

ServeReport RunMultiTenantServe(const core::SimulationConfig& config,
                                std::vector<TenantSpec> tenants,
                                std::uint64_t seed,
                                ServeOptions serve_options,
                                runtime::RuntimeOptions runtime_options) {
  return RunMultiTenantServe(config, gatk::PipelineModel::PaperGatk(),
                             std::move(tenants), seed, serve_options,
                             runtime_options);
}

}  // namespace scan::serve
