#include "scan/core/data_broker.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <cmath>

#include "scan/obs/trace.hpp"

namespace scan::core {

namespace {

/// Shard-size bounds are usable when finite and ordered, min >= 0.
bool ValidBounds(const ShardBounds& bounds) {
  return std::isfinite(bounds.min_gb) && std::isfinite(bounds.max_gb) &&
         bounds.min_gb >= 0.0 && bounds.max_gb >= bounds.min_gb;
}

/// Broker calls happen outside any scheduler event and have no clock of
/// their own, so the shard-split trace instant is stamped 0.
void TraceShardSplit(const BrokerPlan& plan) {
  if (!obs::TraceEnabled()) return;
  obs::TraceEmit(obs::EventKind::kShardSplit, 0.0, 0, 0, plan.shard_count,
                 plan.shard_size_gb);
}

}  // namespace

double BrokerPlan::ShardSize(std::size_t index) const {
  if (shard_count == 0) return 0.0;
  if (index + 1 < shard_count) return shard_size_gb;
  // Last shard takes the remainder (may be smaller than shard_size_gb).
  const double remainder =
      total_size_gb - shard_size_gb * static_cast<double>(shard_count - 1);
  return std::max(0.0, remainder);
}

DataBroker::DataBroker(kb::KnowledgeBase& knowledge) : knowledge_(knowledge) {}

Result<BrokerPlan> DataBroker::PlanJob(std::string_view application,
                                       double total_size_gb,
                                       ShardBounds bounds,
                                       double fallback_shard_gb) {
  if (!std::isfinite(total_size_gb) || total_size_gb <= 0.0) {
    return InvalidArgumentError(
        "PlanJob: total size must be positive and finite");
  }
  if (!ValidBounds(bounds)) {
    return InvalidArgumentError("PlanJob: invalid shard bounds");
  }
  BrokerPlan plan;
  plan.total_size_gb = total_size_gb;

  const auto advice =
      knowledge_.AdviseShardSize(application, bounds.min_gb, bounds.max_gb);
  if (advice.ok()) {
    plan.shard_size_gb = advice->shard_size_gb;
    plan.recommended_cpu = advice->recommended_cpu;
    plan.recommended_ram_gb = advice->recommended_ram_gb;
    plan.advice_source = advice->source_individual;
  } else if (advice.status().code() == ErrorCode::kNotFound) {
    plan.shard_size_gb =
        std::clamp(fallback_shard_gb, std::max(bounds.min_gb, 1e-9),
                   bounds.max_gb);
    plan.advice_source = "(cold start default)";
  } else {
    return advice.status();
  }
  // A job smaller than one shard still runs as a single subtask.
  plan.shard_size_gb = std::min(plan.shard_size_gb, total_size_gb);

  const auto count =
      genomics::PlanShardCount(total_size_gb, plan.shard_size_gb);
  if (!count.ok()) return count.status();
  plan.shard_count = *count;
  TraceShardSplit(plan);
  return plan;
}

Result<BrokerPlan> DataBroker::PlanJobProfitAware(
    std::string_view application, double total_size_gb,
    const workload::RewardFunction& reward, double core_price_per_tu,
    ShardBounds bounds) {
  if (!std::isfinite(total_size_gb) || total_size_gb <= 0.0) {
    return InvalidArgumentError(
        "PlanJobProfitAware: total size must be positive and finite");
  }
  if (!std::isfinite(core_price_per_tu) || core_price_per_tu < 0.0) {
    return InvalidArgumentError(
        "PlanJobProfitAware: price must be non-negative and finite");
  }
  if (!ValidBounds(bounds)) {
    return InvalidArgumentError("PlanJobProfitAware: invalid shard bounds");
  }
  // Candidate shard sizes = profiled sizes within bounds; use the fastest
  // eTime recorded per size.
  std::map<double, double> etime_by_size;  // size -> best eTime
  for (const kb::ApplicationProfile& profile :
       knowledge_.Profiles(application)) {
    const double size = profile.input_file_size_gb;
    if (size < bounds.min_gb || size > bounds.max_gb || size <= 0.0 ||
        profile.etime <= 0.0) {
      continue;
    }
    const auto it = etime_by_size.find(size);
    if (it == etime_by_size.end() || profile.etime < it->second) {
      etime_by_size[size] = profile.etime;
    }
  }
  if (etime_by_size.empty()) {
    return NotFoundError("PlanJobProfitAware: no applicable profiles for '" +
                         std::string(application) + "'");
  }

  BrokerPlan best;
  double best_profit = -std::numeric_limits<double>::infinity();
  for (const auto& [size, etime] : etime_by_size) {
    const double shard_gb = std::min(size, total_size_gb);
    const auto shards =
        static_cast<double>(std::ceil(total_size_gb / shard_gb));
    // Shards run concurrently: job latency ~ one shard's execution time;
    // cost = summed shard core-time plus a 30 s boot each.
    const double latency = etime;
    const double cost = core_price_per_tu * shards * (etime + 0.5);
    const double profit =
        reward(DataSize{total_size_gb}, SimTime{std::max(latency, 1e-9)})
            .value() -
        cost;
    if (profit > best_profit) {
      best_profit = profit;
      best.total_size_gb = total_size_gb;
      best.shard_size_gb = shard_gb;
      best.shard_count = static_cast<std::size_t>(shards);
      best.advice_source = "(profit-aware ranking)";
    }
  }
  TraceShardSplit(best);
  return best;
}

Result<genomics::ShardSet> DataBroker::ShardFastqPayload(
    std::string_view payload, const BrokerPlan& plan, double bytes_per_gb,
    ThreadPool* pool) {
  if (!std::isfinite(bytes_per_gb) || bytes_per_gb <= 0.0) {
    return InvalidArgumentError(
        "ShardFastqPayload: bytes_per_gb must be positive and finite");
  }
  if (!std::isfinite(plan.shard_size_gb)) {
    return InvalidArgumentError("ShardFastqPayload: shard size not finite");
  }
  if (plan.shard_size_gb <= 0.0) {
    return FailedPreconditionError("ShardFastqPayload: plan has no shard size");
  }
  // The canonical shards of a payload total at most its size plus the one
  // newline a missing final one adds, so a budget past that cuts the same
  // single shard; clamping there keeps the cast in range.
  const double payload_cap = static_cast<double>(payload.size()) + 1.0;
  genomics::ShardSpec spec;
  spec.max_bytes = static_cast<std::size_t>(
      std::clamp(plan.shard_size_gb * bytes_per_gb, 1.0, payload_cap));
  if (pool != nullptr) {
    return genomics::ShardFastqParallel(payload, spec, *pool);
  }
  return genomics::ShardFastq(payload, spec);
}

Result<genomics::VcfFile> DataBroker::MergeShardOutputs(
    const std::vector<genomics::VcfFile>& outputs) {
  return genomics::MergeVcf(outputs);
}

void DataBroker::RecordCompletion(std::string_view application, int stage,
                                  double input_gb, int threads,
                                  double elapsed, int cpu, double ram_gb) {
  kb::ApplicationProfile log_entry;
  log_entry.application = std::string(application);
  log_entry.stage = stage;
  log_entry.input_file_size_gb = input_gb;
  log_entry.threads = threads;
  log_entry.etime = elapsed;
  log_entry.cpu = cpu;
  log_entry.ram_gb = ram_gb;
  knowledge_.RecordTaskLog(log_entry);
}

}  // namespace scan::core
