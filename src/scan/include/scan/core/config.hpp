#pragma once

// Simulation configuration: the variable parameters of Table I plus the
// fixed attributes of Table III, bundled so one value object fully
// determines a run (together with the repetition index, which seeds the
// RNG streams).

#include <cstdint>
#include <string>
#include <vector>

#include "scan/cloud/cloud_manager.hpp"
#include "scan/common/units.hpp"
#include "scan/fault/fault_config.hpp"
#include "scan/workload/arrivals.hpp"
#include "scan/workload/reward.hpp"

namespace scan::core {

/// Table I: "Resource allocation algorithm".
enum class AllocationAlgorithm : int {
  kGreedy,
  kLongTerm,
  kLongTermAdaptive,
  kBestConstant,
};

/// Table I: "Horizontal scaling algorithm". kLearnedBandit is this
/// reproduction's implementation of the paper's stated future work
/// ("we plan to adopt learning algorithms to guide the Scheduler"): an
/// epsilon-greedy bandit that re-selects among the three base policies
/// every epoch based on the realized profit rate.
enum class ScalingAlgorithm : int {
  kAlwaysScale,
  kNeverScale,
  kPredictive,
  kLearnedBandit,
};

[[nodiscard]] const char* AllocationAlgorithmName(AllocationAlgorithm a);
[[nodiscard]] const char* ScalingAlgorithmName(ScalingAlgorithm s);

/// Everything that defines one simulation run.
struct SimulationConfig {
  // --- Table I variable parameters ---
  AllocationAlgorithm allocation = AllocationAlgorithm::kBestConstant;
  ScalingAlgorithm scaling = ScalingAlgorithm::kPredictive;
  double mean_interarrival_tu = 2.5;  ///< swept 2.0, 2.1, ..., 3.0
  workload::RewardScheme reward_scheme = workload::RewardScheme::kTimeBased;
  double public_cost_per_core_tu = 50.0;  ///< swept 20, 50, 80, 110

  // --- Table III fixed attributes ---
  SimTime duration{10'000.0};
  double private_cost_per_core_tu = 5.0;
  double r_max = 400.0;
  double r_penalty = 15.0;
  double r_scale = 15'000.0;
  std::vector<int> instance_sizes{1, 2, 4, 8, 16};
  double mean_jobs_per_arrival = 3.0;
  double jobs_per_arrival_variance = 2.0;
  double mean_job_size = 5.0;
  double job_size_variance = 1.0;

  // --- engine knobs (not swept in the paper) ---
  /// Unit calibration between Table II's profiling time unit and the
  /// scheduler's TU. Taken literally (scale 1.0) the Table II + Table III
  /// constants make every job unprofitable: the sequential pipeline time
  /// of a mean-size job (~79 units) exceeds the time-based reward's
  /// break-even latency Rmax/Rpenalty = 26.7 TU, yet Figure 4 reports
  /// profits up to ~+600 CU per run. We therefore expose the conversion
  /// explicitly; the default 0.25 puts typical threaded pipeline latencies
  /// at 8-15 TU, reproducing the paper's profitable-but-pressured regime.
  /// See EXPERIMENTS.md, "unit calibration".
  double stage_time_scale = 0.25;
  /// Private-tier size. The paper's testbed description says 624 cores,
  /// but with Table I's fixed arrival process (3 jobs / 2.0-3.0 TU, size 5)
  /// peak demand is ~45 core-TU/TU, which would never saturate 624 cores —
  /// contradicting the paper's framing of interval 2.0 as "a very busy
  /// system where much public resource hiring is necessary". The default
  /// 48 puts the saturation crossover inside the swept load range and
  /// reproduces Figure 4's never-scale profit of about -300 CU/run at
  /// interval 2.0 (see EXPERIMENTS.md, "capacity calibration").
  std::size_t private_capacity_cores = 48;
  /// Idle workers are released after this long without work.
  SimTime idle_release_timeout{1.0};
  /// Worker boot / reconfiguration penalty. The paper pays 30 seconds
  /// (0.5 TU at 1 TU = 1 minute) whenever CELAR must shut a worker down,
  /// adjust its VCPUs, and restart it. Swept by the boot-penalty ablation.
  SimTime boot_penalty{0.5};
  /// kLearnedBandit: epoch length between policy re-selections.
  SimTime bandit_epoch{50.0};
  /// Failure injection: probability per worker per TU of a crash while
  /// executing a task (0 = reliable cloud, the paper's setting). A crashed
  /// worker is lost (its cost is still billed up to the crash) and the
  /// interrupted task restarts from its stage queue.
  double worker_failure_rate = 0.0;
  /// Fault model beyond plain crashes (straggle/flap injection, per-stage
  /// checkpoints, retry backoff + budget, breaker, speculation). All
  /// defaults reproduce legacy behavior bit for bit.
  fault::FaultConfig fault;
  std::uint64_t base_seed = 0x5ca9b10c;

  /// Derived helpers.
  [[nodiscard]] workload::RewardParams MakeRewardParams() const;
  [[nodiscard]] workload::ArrivalParams MakeArrivalParams() const;
  [[nodiscard]] cloud::CloudConfig MakeCloudConfig() const;

  /// Stable label of the variable parameters (used in reports and for
  /// seeding repetitions).
  [[nodiscard]] std::string Label() const;

  /// Seed for repetition `rep` of this configuration.
  [[nodiscard]] std::uint64_t SeedFor(int rep) const;
};

/// The value grids of Table I.
struct Table1Grid {
  std::vector<AllocationAlgorithm> allocations{
      AllocationAlgorithm::kGreedy, AllocationAlgorithm::kLongTerm,
      AllocationAlgorithm::kLongTermAdaptive,
      AllocationAlgorithm::kBestConstant};
  std::vector<ScalingAlgorithm> scalings{ScalingAlgorithm::kAlwaysScale,
                                         ScalingAlgorithm::kNeverScale,
                                         ScalingAlgorithm::kPredictive};
  std::vector<double> mean_intervals{2.0, 2.1, 2.2, 2.3, 2.4, 2.5,
                                     2.6, 2.7, 2.8, 2.9, 3.0};
  std::vector<workload::RewardScheme> reward_schemes{
      workload::RewardScheme::kTimeBased,
      workload::RewardScheme::kThroughputBased};
  std::vector<double> public_costs{20.0, 50.0, 80.0, 110.0};

  /// Expands the grid into full configurations derived from `base`.
  [[nodiscard]] std::vector<SimulationConfig> Expand(
      const SimulationConfig& base) const;
};

}  // namespace scan::core
