#pragma once

// Multi-tenant serving: who is allowed to submit work, on what terms.
//
// A TenantSpec is the contract one user of the platform signs: a
// weighted-fair share (DRR weight), hard quotas (bounded submission
// queue, max jobs in flight, worker-TU budget per quota epoch), a reward
// function stating what completed work is worth to *this* tenant, and —
// for synthetic load — an arrival pattern drawn from the workload
// generators (diurnal, bursty, flash crowd).

#include <cstdint>
#include <limits>
#include <string>

#include "scan/common/units.hpp"
#include "scan/workload/arrivals.hpp"
#include "scan/workload/reward.hpp"

namespace scan::serve {

/// One tenant's service contract. Defaults describe an unconstrained
/// tenant with unit fair-share weight driving homogeneous arrivals.
struct TenantSpec {
  std::uint64_t id = 0;
  std::string name;

  /// Deficit-round-robin weight: long-run released worker-TU are
  /// proportional to weights across backlogged tenants. Must be finite
  /// and > 0.
  double weight = 1.0;

  // --- quotas (admission control) ---
  /// Bounded submission queue: submissions arriving while the queue holds
  /// this many jobs are shed (load shedding, recorded in the admission
  /// audit). 0 means "shed everything".
  std::size_t max_queue_depth = 256;
  /// Max jobs released to the platform and not yet retired.
  std::size_t max_in_flight = 64;
  /// Worker-TU (core x TU, the hire-cost unit) the tenant may release per
  /// quota epoch; +inf disables the budget quota.
  double worker_tu_per_epoch = std::numeric_limits<double>::infinity();
  /// Budget replenishment period (modeled TU); finite and > 0 whenever
  /// worker_tu_per_epoch is finite.
  SimTime quota_epoch{100.0};

  // --- synthetic load (ignored when drive_synthetic is false) ---
  /// When true the front end drives this tenant from its own seeded
  /// PatternedArrivalGenerator; when false the tenant only receives
  /// explicitly submitted jobs (ServeFrontend::SubmitAt).
  bool drive_synthetic = true;
  workload::PatternParams pattern;
  /// Multiplies the tenant's batch-arrival rate (divides the base mean
  /// interarrival). 1.0 = the platform config's base rate.
  double rate_scale = 1.0;

  /// What completed work is worth to this tenant; prices both the
  /// batched hire-vs-wait delay cost and the tenant's credited reward.
  workload::RewardParams reward;
};

/// Per-tenant outcome ledger, all in modeled units (deterministic).
struct TenantStats {
  std::uint64_t submitted = 0;  ///< arrivals offered (incl. shed)
  std::uint64_t shed = 0;       ///< rejected at admission (queue full)
  std::uint64_t released = 0;   ///< handed to the platform
  std::uint64_t completed = 0;
  std::uint64_t abandoned = 0;  ///< retired by the platform unfinished
  /// Reward credited under the tenant's own reward function.
  double reward = 0.0;
  /// Worker-TU charged against the budget quota (predicted cost at
  /// release time).
  double worker_tu_charged = 0.0;
  /// Sum and max of (release - submit) waits in the tenant queue (TU).
  double total_queue_wait_tu = 0.0;
  double max_queue_wait_tu = 0.0;
  std::size_t peak_queue_depth = 0;
  std::size_t peak_in_flight = 0;
};

}  // namespace scan::serve
