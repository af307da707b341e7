#include "scan/cloud/cloud_manager.hpp"

#include <algorithm>

#include "scan/common/str.hpp"

namespace scan::cloud {

CloudManager::CloudManager(CloudConfig config) : config_(std::move(config)) {
  if (config_.instance_sizes.empty()) {
    throw std::invalid_argument("CloudManager: no instance sizes configured");
  }
  for (const int cores : config_.instance_sizes) {
    if (cores <= 0) {
      throw std::invalid_argument("CloudManager: non-positive instance size");
    }
  }
}

CloudManager::WorkerRecord* CloudManager::Find(WorkerId id) {
  const auto n = static_cast<std::uint64_t>(id);
  return n == 0 || n > records_.size() ? nullptr : &records_[n - 1];
}

const CloudManager::WorkerRecord* CloudManager::Find(WorkerId id) const {
  const auto n = static_cast<std::uint64_t>(id);
  return n == 0 || n > records_.size() ? nullptr : &records_[n - 1];
}

bool CloudManager::IsValidInstanceSize(int cores) const {
  return std::find(config_.instance_sizes.begin(),
                   config_.instance_sizes.end(),
                   cores) != config_.instance_sizes.end();
}

Result<WorkerId> CloudManager::Hire(Tier tier, int cores, SimTime now) {
  if (!IsValidInstanceSize(cores)) {
    return InvalidArgumentError(
        StrFormat("Hire: %d cores is not an offered instance size", cores));
  }
  const TierConfig& tc = TierOf(tier);
  std::size_t& in_use = tier == Tier::kPrivate ? private_cores_ : public_cores_;
  if (tc.core_capacity != TierConfig::kUnlimited &&
      in_use + static_cast<std::size_t>(cores) > tc.core_capacity) {
    return ResourceExhaustedError(
        StrFormat("Hire: %s tier has %zu of %zu cores in use; cannot fit %d",
                  TierName(tier), in_use, tc.core_capacity, cores));
  }
  in_use += static_cast<std::size_t>(cores);

  WorkerRecord& record = records_.emplace_back();
  record.info.id = WorkerId{records_.size()};
  record.info.tier = tier;
  record.info.cores = cores;
  record.info.state = WorkerState::kBooting;
  record.info.hired_at = now;
  record.info.ready_at = now + config_.boot_penalty;
  return record.info.id;
}

Status CloudManager::Release(WorkerId id, SimTime now) {
  WorkerRecord* const found = Find(id);
  if (found == nullptr) return NotFoundError("Release: unknown worker");
  WorkerRecord& record = *found;
  if (record.info.state == WorkerState::kReleased) {
    return FailedPreconditionError("Release: worker already released");
  }
  const SimTime held = now - record.info.hired_at;
  record.settled = TierOf(record.info.tier).cost_per_core_tu *
                   static_cast<double>(record.info.cores) * held.value();
  record.released_at = now;
  record.info.state = WorkerState::kReleased;
  std::size_t& in_use =
      record.info.tier == Tier::kPrivate ? private_cores_ : public_cores_;
  in_use -= static_cast<std::size_t>(record.info.cores);
  return Status::Ok();
}

Result<SimTime> CloudManager::Configure(WorkerId id, int threads,
                                        SimTime now) {
  WorkerRecord* const found = Find(id);
  if (found == nullptr) return NotFoundError("Configure: unknown worker");
  WorkerRecord& record = *found;
  if (record.info.state == WorkerState::kReleased) {
    return FailedPreconditionError("Configure: worker released");
  }
  if (record.info.state == WorkerState::kBusy) {
    return FailedPreconditionError("Configure: worker busy");
  }
  if (threads <= 0 || threads > record.info.cores) {
    return InvalidArgumentError(StrFormat(
        "Configure: %d threads invalid for a %d-core worker", threads,
        record.info.cores));
  }
  if (record.info.configured_threads == threads &&
      record.info.state != WorkerState::kBooting) {
    return SimTime{0.0};  // already configured and ready: free
  }
  if (record.info.configured_threads == threads) {
    // Still booting with the right configuration: remaining boot time.
    const SimTime remaining = record.info.ready_at - now;
    return remaining > SimTime{0.0} ? remaining : SimTime{0.0};
  }
  // CELAR must shut down, adjust VCPUs, and restart the VM.
  record.info.configured_threads = threads;
  record.info.state = WorkerState::kBooting;
  record.info.ready_at = now + config_.boot_penalty;
  return config_.boot_penalty;
}

Status CloudManager::MarkBusy(WorkerId id, SimTime now) {
  WorkerRecord* const found = Find(id);
  if (found == nullptr) return NotFoundError("MarkBusy: unknown worker");
  WorkerRecord& record = *found;
  if (record.info.state == WorkerState::kReleased) {
    return FailedPreconditionError("MarkBusy: worker released");
  }
  if (record.info.ready_at > now) {
    return FailedPreconditionError("MarkBusy: worker still booting");
  }
  record.info.state = WorkerState::kBusy;
  return Status::Ok();
}

Status CloudManager::MarkIdle(WorkerId id, SimTime now) {
  WorkerRecord* const found = Find(id);
  if (found == nullptr) return NotFoundError("MarkIdle: unknown worker");
  WorkerRecord& record = *found;
  if (record.info.state == WorkerState::kReleased) {
    return FailedPreconditionError("MarkIdle: worker released");
  }
  if (record.info.ready_at > now) {
    return FailedPreconditionError("MarkIdle: worker still booting");
  }
  record.info.state = WorkerState::kIdle;
  return Status::Ok();
}

Result<WorkerInfo> CloudManager::Info(WorkerId id) const {
  const WorkerRecord* const record = Find(id);
  if (record == nullptr) return NotFoundError("Info: unknown worker");
  return record->info;
}

std::vector<WorkerInfo> CloudManager::LiveWorkers() const {
  std::vector<WorkerInfo> out;
  for (const WorkerRecord& record : records_) {
    if (record.info.state != WorkerState::kReleased) {
      out.push_back(record.info);
    }
  }
  return out;
}

std::size_t CloudManager::CoresInUse(Tier tier) const {
  return tier == Tier::kPrivate ? private_cores_ : public_cores_;
}

std::size_t CloudManager::AvailableCores(Tier tier) const {
  const TierConfig& tc = TierOf(tier);
  if (tc.core_capacity == TierConfig::kUnlimited) {
    return TierConfig::kUnlimited;
  }
  const std::size_t in_use = CoresInUse(tier);
  return tc.core_capacity > in_use ? tc.core_capacity - in_use : 0;
}

Cost CloudManager::CostRate() const {
  Cost rate{0.0};
  for (const WorkerRecord& record : records_) {
    if (record.info.state == WorkerState::kReleased) continue;
    rate += TierOf(record.info.tier).cost_per_core_tu *
            static_cast<double>(record.info.cores);
  }
  return rate;
}

CostReport CloudManager::CostUpTo(SimTime now) const {
  CostReport report;
  for (const WorkerRecord& record : records_) {
    const bool released = record.info.state == WorkerState::kReleased;
    const SimTime end = released ? record.released_at : now;
    const SimTime held = end - record.info.hired_at;
    const double core_tus =
        static_cast<double>(record.info.cores) * std::max(0.0, held.value());
    const Cost tier_cost =
        TierOf(record.info.tier).cost_per_core_tu * core_tus;
    if (record.info.tier == Tier::kPrivate) {
      report.private_tier += tier_cost;
      report.private_core_tus += core_tus;
    } else {
      report.public_tier += tier_cost;
      report.public_core_tus += core_tus;
    }
  }
  report.total = report.private_tier + report.public_tier;
  return report;
}

std::optional<Tier> CloudManager::CheapestAvailableTier(int cores) const {
  if (!IsValidInstanceSize(cores)) return std::nullopt;
  const auto fits = [&](Tier tier) {
    const std::size_t available = AvailableCores(tier);
    return available == TierConfig::kUnlimited ||
           available >= static_cast<std::size_t>(cores);
  };
  const bool private_fits = fits(Tier::kPrivate);
  const bool public_fits = fits(Tier::kPublic);
  if (private_fits && public_fits) {
    return TierOf(Tier::kPrivate).cost_per_core_tu <=
                   TierOf(Tier::kPublic).cost_per_core_tu
               ? Tier::kPrivate
               : Tier::kPublic;
  }
  if (private_fits) return Tier::kPrivate;
  if (public_fits) return Tier::kPublic;
  return std::nullopt;
}

}  // namespace scan::cloud
