#pragma once

// The simulated hybrid cloud (§IV-A) and its CELAR-lite elasticity surface.
//
// Two tiers with constant per-core per-TU cost:
//  - private: the institution's owned cluster, 624 cores, cheap (5 CU/TU);
//  - public: elastic capacity hired on demand (20/50/80/110 CU/TU swept in
//    the experiments).
// Worker VMs come in the instance sizes of Table III (1/2/4/8/16 cores).
// Reconfiguring a worker's VCPU count costs the paper's 30-second
// (0.5 TU) shutdown-adjust-restart penalty; so does a cold boot.
//
// Substitution note (DESIGN.md): the paper drove a real CELAR middleware
// deployment in simulation; this class is the cost/latency surface that
// middleware exposed to the SCAN scheduler.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "scan/common/status.hpp"
#include "scan/common/units.hpp"

namespace scan::cloud {

enum class Tier : std::uint8_t { kPrivate, kPublic };

[[nodiscard]] constexpr const char* TierName(Tier tier) {
  return tier == Tier::kPrivate ? "private" : "public";
}

/// Per-tier pricing and capacity.
struct TierConfig {
  Cost cost_per_core_tu{0.0};
  /// Core capacity; kUnlimited for the elastic public tier.
  std::size_t core_capacity = 0;

  static constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);
};

/// Full cloud configuration.
struct CloudConfig {
  TierConfig private_tier{Cost{5.0}, 624};
  TierConfig public_tier{Cost{50.0}, TierConfig::kUnlimited};
  std::vector<int> instance_sizes{1, 2, 4, 8, 16};
  SimTime boot_penalty = kWorkerBootPenalty;

  /// The paper's configuration with a given public-tier core cost
  /// (Table I sweeps 20, 50, 80, 110 CU/TU).
  [[nodiscard]] static CloudConfig Paper(double public_cost_per_core_tu) {
    CloudConfig config;
    config.public_tier.cost_per_core_tu = Cost{public_cost_per_core_tu};
    return config;
  }
};

/// Opaque worker VM identity.
enum class WorkerId : std::uint64_t {};

enum class WorkerState : std::uint8_t {
  kBooting,  ///< hired or reconfiguring; ready at ready_at
  kIdle,     ///< ready and unassigned
  kBusy,     ///< executing a task
  kReleased, ///< returned to the provider (terminal)
};

/// A worker VM's externally visible state.
struct WorkerInfo {
  WorkerId id{};
  Tier tier = Tier::kPrivate;
  int cores = 1;
  /// Thread configuration of the software stack; reconfiguring it costs
  /// the boot penalty. 0 = unconfigured (fresh VM).
  int configured_threads = 0;
  WorkerState state = WorkerState::kBooting;
  SimTime ready_at{0.0};
  SimTime hired_at{0.0};
};

/// Cumulative accounting snapshot.
struct CostReport {
  Cost total{0.0};
  Cost private_tier{0.0};
  Cost public_tier{0.0};
  double private_core_tus = 0.0;  ///< integral of private cores over time
  double public_core_tus = 0.0;
};

/// The cloud manager: hires/releases/reconfigures worker VMs and meters
/// their cost. All methods take the current simulation time explicitly —
/// the class holds no clock, so it composes with any driver (the DES
/// scheduler, unit tests, benchmarks).
class CloudManager {
 public:
  explicit CloudManager(CloudConfig config);

  [[nodiscard]] const CloudConfig& config() const { return config_; }

  /// Hires a worker of `cores` (must be one of config().instance_sizes)
  /// on `tier`. Fails with ResourceExhausted if the tier lacks capacity.
  /// The worker boots and becomes ready at now + boot_penalty.
  [[nodiscard]] Result<WorkerId> Hire(Tier tier, int cores, SimTime now);

  /// Releases a worker permanently; metering stops at `now`.
  Status Release(WorkerId id, SimTime now);

  /// Sets a worker's thread configuration. If it differs from the current
  /// configuration the worker re-enters kBooting for boot_penalty
  /// (CELAR shuts it down, adjusts VCPUs, restarts it); otherwise this is
  /// free. Fails on busy or released workers. Returns the delay incurred.
  [[nodiscard]] Result<SimTime> Configure(WorkerId id, int threads,
                                          SimTime now);

  /// Marks a booted worker busy / idle (scheduler bookkeeping).
  Status MarkBusy(WorkerId id, SimTime now);
  Status MarkIdle(WorkerId id, SimTime now);

  [[nodiscard]] Result<WorkerInfo> Info(WorkerId id) const;

  /// All live (non-released) workers, in hire order.
  [[nodiscard]] std::vector<WorkerInfo> LiveWorkers() const;

  /// Cores currently hired on a tier.
  [[nodiscard]] std::size_t CoresInUse(Tier tier) const;

  /// Cores still available on a tier (kUnlimited-aware).
  [[nodiscard]] std::size_t AvailableCores(Tier tier) const;

  /// Current burn rate: sum over live workers of cores x tier price.
  [[nodiscard]] Cost CostRate() const;

  /// Accrued cost up to `now` (released workers fully settled, live
  /// workers pro-rated).
  [[nodiscard]] CostReport CostUpTo(SimTime now) const;

  /// Cheapest tier that can still fit `cores` right now, if any. Prefers
  /// private (the cheaper tier) when both fit.
  [[nodiscard]] std::optional<Tier> CheapestAvailableTier(int cores) const;

 private:
  struct WorkerRecord {
    WorkerInfo info;
    Cost settled{0.0};       ///< cost accrued before release
    SimTime released_at{0.0};
  };

  [[nodiscard]] bool IsValidInstanceSize(int cores) const;
  [[nodiscard]] const TierConfig& TierOf(Tier tier) const {
    return tier == Tier::kPrivate ? config_.private_tier : config_.public_tier;
  }
  /// The record of `id`, or nullptr for an id this cloud never issued.
  [[nodiscard]] WorkerRecord* Find(WorkerId id);
  [[nodiscard]] const WorkerRecord* Find(WorkerId id) const;

  CloudConfig config_;
  /// Every worker ever hired, released ones included, in hire order:
  /// worker ids count up from 1, so id n is records_[n - 1]. Chunked
  /// storage, so growing never copies the records already held.
  std::deque<WorkerRecord> records_;
  std::size_t private_cores_ = 0;
  std::size_t public_cores_ = 0;
};

}  // namespace scan::cloud
