#pragma once

// The scheduler's decision core, factored out of the discrete-event
// Scheduler so the live runtime (scan::runtime::RuntimePlatform) and the
// simulator share one implementation instead of forking it.
//
// The policy owns everything that decides *what* to run where — the
// per-job thread plan (allocation algorithms), the predictive hire-or-wait
// inequality (Eq. 1 delay cost vs. hire cost), the online queue-wait
// estimator feeding Eq. 2, the learned-bandit scaling arm, and adaptive
// replanning — but none of the execution mechanics (queues, worker books,
// the event loop). Callers describe a stage queue as a range of pointers
// to PricedJob, so the policy never touches driver-specific containers.
//
// Pricing cost: everything Eq. 2 needs of a job except EQT is fixed at
// admission, so the caller tabulates it once per job (PricedJob) and a
// hire-vs-wait evaluation is one fold over the queue, reading the EQT
// table as it stands and allocating nothing.
//
// Determinism contract: the policy is driven in event order by its caller;
// equal call sequences produce bit-identical decisions (its RNG streams
// are derived from the run seed exactly as the pre-extraction Scheduler
// derived them).

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <ranges>
#include <span>
#include <vector>

#include "scan/cloud/cloud_manager.hpp"
#include "scan/common/rng.hpp"
#include "scan/common/stats.hpp"
#include "scan/core/allocation.hpp"
#include "scan/core/config.hpp"
#include "scan/core/estimators.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/workload/reward.hpp"

namespace scan::core {

/// The priced inputs of one predictive hire-or-wait evaluation, exposed so
/// the scan_obs decision audit can record *why* the inequality answered
/// the way it did. Cost fields stay NaN when the evaluation short-circuits
/// before pricing (no busy worker, or the head frees immediately).
struct HireEvaluation {
  double delay_cost = std::numeric_limits<double>::quiet_NaN();
  double hire_cost = std::numeric_limits<double>::quiet_NaN();
  double next_free_delay_tu = std::numeric_limits<double>::quiet_NaN();
  /// Expected-rework inflation multiplied into the hire cost's execution
  /// term (fault::ExpectedReworkFactor); exactly 1.0 when crash pricing
  /// is inactive, so legacy configs price bit-identically.
  double rework_factor = 1.0;
  bool hire = false;
};

/// A queued job as hire-vs-wait pricing sees it. Every field is fixed
/// when the job is admitted, so the caller fills it once per job and its
/// stage queues point at it.
struct PricedJob {
  DataSize size{0.0};
  /// When the job entered the system (Eq. 2's elapsed is now - arrival).
  SimTime arrival{0.0};
  /// EET_i of every stage at the job's planned thread count
  /// (StageExecTimes).
  std::vector<SimTime> stage_exec;
};

/// A stage queue as pricing reads it: pointers to the queued jobs (or to a
/// type derived from PricedJob), in queue order.
template <class Queue>
concept PricedQueue =
    std::ranges::input_range<const Queue> &&
    std::convertible_to<std::ranges::range_value_t<const Queue>,
                        const PricedJob*>;

/// The shared decision core. Construct once per run; drive in event order.
class SchedulingPolicy {
 public:
  /// `model` is the *unscaled* pipeline model; the policy applies
  /// config.stage_time_scale itself and exposes the scaled model. A
  /// `forced_plan` needs one thread count per stage, each an offered
  /// instance size (config.instance_sizes); otherwise the constructor
  /// throws std::invalid_argument naming the stage and the count.
  SchedulingPolicy(const SimulationConfig& config,
                   const gatk::PipelineModel& model,
                   std::optional<ThreadPlan> forced_plan,
                   std::uint64_t seed);

  /// The scaled pipeline model every execution-time estimate uses.
  [[nodiscard]] const gatk::PipelineModel& model() const { return model_; }
  [[nodiscard]] const workload::RewardFunction& reward() const {
    return reward_;
  }

  /// The thread plan the allocation algorithm produces for a job of the
  /// given size at the current knowledge state.
  [[nodiscard]] ThreadPlan PlanFor(DataSize size) const;
  /// The same plan, written over `plan` in place: a constant or forced
  /// plan is copied into its storage (no allocation once it holds one
  /// entry per stage); the greedy plan is built fresh and moved in.
  void PlanFor(DataSize size, ThreadPlan& plan) const;

  /// Feeds an observed dispatch wait into the per-stage EWMA (Eq. 2's EQT).
  void ObserveQueueWait(std::size_t stage, SimTime wait);

  /// Delay cost (Eq. 1) of delaying every job in `queue` — the jobs queued
  /// for `stage` — by `delay` at time `now`: DelayCost(size, ETT, delay)
  /// summed in queue order, each ETT from Eq. 2 (EstimateTotalTime) over
  /// the job's stage table and the current EQTs. Allocates nothing.
  template <PricedQueue Queue>
  [[nodiscard]] double QueueDelayCost(const Queue& queue, std::size_t stage,
                                      SimTime now, SimTime delay) const {
    const std::span<const SimTime> eqt = queue_estimator_.estimates();
    double total = 0.0;
    for (const PricedJob* job : queue) {
      const SimTime ett =
          EstimateTotalTime(eqt, job->stage_exec, now - job->arrival, stage);
      total += reward_.DelayCost(job->size, ett, delay).value();
    }
    return total;
  }

  /// The predictive hire-or-wait inequality for the head of a stage queue:
  /// true = hire public capacity now. `next_free_delay` is the time until
  /// the earliest busy worker frees (nullopt when none is busy — waiting
  /// cannot help, so the answer is always "hire"). When `eval` is non-null
  /// the priced inputs are copied out for the decision audit; passing it
  /// never changes the decision.
  template <PricedQueue Queue>
  [[nodiscard]] bool PredictiveShouldHire(
      const Queue& queue, std::size_t stage, int threads, DataSize head_size,
      SimTime now, std::optional<SimTime> next_free_delay,
      SimTime boot_penalty, HireEvaluation* eval = nullptr) const {
    if (!next_free_delay) {
      // Nothing running: waiting cannot help.
      if (eval) eval->hire = true;
      return true;
    }
    const SimTime delay = *next_free_delay;
    if (eval) eval->next_free_delay_tu = delay.value();
    if (delay <= SimTime{0.0}) return false;  // a worker frees "now"
    return HireBeatsWait(QueueDelayCost(queue, stage, now, delay), stage,
                         threads, head_size, boot_penalty, eval);
  }

  /// Core price per TU the plan optimizers assume, the midpoint of the
  /// private and public tier prices (for the plan audit).
  [[nodiscard]] double price_hint() const { return price_hint_; }

  /// The policy governing public hiring right now: the configured one, or
  /// the bandit's current arm under kLearnedBandit.
  [[nodiscard]] ScalingAlgorithm EffectiveScaling() const;

  /// Bandit epoch boundary: credit the finishing arm with the epoch's
  /// profit rate (from the run's reward/cost totals so far) and
  /// epsilon-greedily select the next arm.
  void BanditEpoch(double total_reward_so_far, double total_cost_so_far);

  /// Call once per completed pipeline run. Returns true when the adaptive
  /// long-term allocator is due for a replan (the caller then computes the
  /// realized bill and calls ReplanFromBill).
  [[nodiscard]] bool NoteCompletion();

  /// Adaptive replanning: refresh the long-term plan with the effective
  /// core price observed so far (bill divided by core-time used).
  void ReplanFromBill(const cloud::CostReport& bill);

 private:
  [[nodiscard]] AllocationContext MakeContext(double price) const;
  /// The priced half of PredictiveShouldHire: hire when the queue's delay
  /// cost exceeds the (rework-inflated) cost of hiring `threads` now.
  [[nodiscard]] bool HireBeatsWait(double delay_cost, std::size_t stage,
                                   int threads, DataSize head_size,
                                   SimTime boot_penalty,
                                   HireEvaluation* eval) const;

  SimulationConfig config_;
  gatk::PipelineModel model_;  ///< scaled by config.stage_time_scale
  workload::RewardFunction reward_;
  QueueTimeEstimator queue_estimator_;
  std::optional<ThreadPlan> forced_plan_;
  double price_hint_ = 0.0;
  ThreadPlan constant_plan_;  ///< for kLongTerm / kBestConstant / forced
  std::size_t completions_since_replan_ = 0;

  // kLearnedBandit state: one arm per base policy.
  struct BanditArm {
    ScalingAlgorithm policy;
    RunningStats profit_rate;
  };
  std::vector<BanditArm> bandit_arms_;
  std::size_t bandit_current_arm_ = 0;
  double bandit_epoch_start_reward_ = 0.0;
  double bandit_epoch_start_cost_ = 0.0;
  RandomStream bandit_rng_;
};

}  // namespace scan::core
