#include "scan/core/policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "scan/common/str.hpp"
#include "scan/fault/retry.hpp"

namespace scan::core {

namespace {

/// kLongTermAdaptive replans the long-term plan every this many completed
/// pipeline runs.
constexpr std::size_t kAdaptiveReplanEvery = 200;
/// kLearnedBandit: probability that an epoch explores a random arm instead
/// of the best one so far.
constexpr double kBanditEpsilon = 0.1;

}  // namespace

SchedulingPolicy::SchedulingPolicy(const SimulationConfig& config,
                                   const gatk::PipelineModel& model,
                                   std::optional<ThreadPlan> forced_plan,
                                   std::uint64_t seed)
    : config_(config),
      // A model carrying its own calibration (compiled .pdl profiles) wins
      // over the config scalar; legacy models defer to the config, keeping
      // every pre-PDL run bit-identical.
      model_(model.Scaled(model.time_scale().value_or(config.stage_time_scale))),
      reward_(config.MakeRewardParams()),
      queue_estimator_(model_.stage_count()),
      forced_plan_(std::move(forced_plan)),
      bandit_rng_(seed, "scaling-bandit") {
  if (config_.scaling == ScalingAlgorithm::kLearnedBandit) {
    bandit_arms_ = {{ScalingAlgorithm::kNeverScale, {}},
                    {ScalingAlgorithm::kAlwaysScale, {}},
                    {ScalingAlgorithm::kPredictive, {}}};
    bandit_current_arm_ = 2;  // start from the paper's predictive policy
  }
  if (forced_plan_ && forced_plan_->size() != model_.stage_count()) {
    throw std::invalid_argument("SchedulingPolicy: forced plan size mismatch");
  }
  if (forced_plan_) {
    // The cloud hires only offered instance sizes; a stage planned at any
    // other count could never be dispatched.
    const std::vector<int>& sizes = config_.instance_sizes;
    for (std::size_t stage = 0; stage < forced_plan_->size(); ++stage) {
      const int threads = (*forced_plan_)[stage];
      if (std::find(sizes.begin(), sizes.end(), threads) == sizes.end()) {
        throw std::invalid_argument(StrFormat(
            "SchedulingPolicy: forced plan stage %zu has %d threads, which "
            "is not an offered instance size",
            stage, threads));
      }
    }
  }
  // Every price feeds a comparison (plan scores, hire-vs-wait), which a
  // NaN fails silently.
  for (const auto& [what, price] :
       {std::pair{"private_cost_per_core_tu", config_.private_cost_per_core_tu},
        std::pair{"public_cost_per_core_tu",
                  config_.public_cost_per_core_tu}}) {
    if (!std::isfinite(price) || price < 0.0) {
      throw std::invalid_argument(StrFormat(
          "SchedulingPolicy: %s is %g; prices must be finite and >= 0", what,
          price));
    }
  }
  // Plan optimizers assume the blended core price of the tier mix the run
  // will see; the midpoint of the two tiers is robust (pure private prices
  // over-widen plans, pure public prices over-narrow them).
  price_hint_ =
      0.5 * (config_.private_cost_per_core_tu + config_.public_cost_per_core_tu);
  const AllocationContext ctx = MakeContext(price_hint_);
  const DataSize expected{config_.mean_job_size};
  switch (config_.allocation) {
    case AllocationAlgorithm::kGreedy:
      constant_plan_ = SequentialPlan(model_.stage_count());  // unused
      break;
    case AllocationAlgorithm::kLongTerm:
    case AllocationAlgorithm::kLongTermAdaptive:
      constant_plan_ = LongTermPlan(model_, expected, ctx);
      break;
    case AllocationAlgorithm::kBestConstant:
      constant_plan_ = BestConstantPlan(model_, expected, ctx);
      break;
  }
  if (forced_plan_) constant_plan_ = *forced_plan_;
}

AllocationContext SchedulingPolicy::MakeContext(double price) const {
  return AllocationContext{price, std::span<const int>(config_.instance_sizes),
                           reward_};
}

ThreadPlan SchedulingPolicy::PlanFor(DataSize size) const {
  ThreadPlan plan;
  PlanFor(size, plan);
  return plan;
}

void SchedulingPolicy::PlanFor(DataSize size, ThreadPlan& plan) const {
  if (forced_plan_) {
    plan.assign(forced_plan_->begin(), forced_plan_->end());
  } else if (config_.allocation == AllocationAlgorithm::kGreedy) {
    plan = GreedyPlan(model_, size, MakeContext(price_hint_));
  } else {
    plan.assign(constant_plan_.begin(), constant_plan_.end());
  }
}

void SchedulingPolicy::ObserveQueueWait(std::size_t stage, SimTime wait) {
  queue_estimator_.Observe(stage, wait);
}

bool SchedulingPolicy::HireBeatsWait(double delay_cost, std::size_t stage,
                                     int threads, DataSize head_size,
                                     SimTime boot_penalty,
                                     HireEvaluation* eval) const {
  // Expected-rework pricing (§III delay-cost vs hire-cost under crashes):
  // the execution term is inflated by the closed-form restart factor so
  // hire-vs-wait sees the true expected public bill, while the boot
  // penalty is paid once regardless of crashes. When the factor is
  // exactly 1.0 (no crash rate) the arithmetic below reproduces the
  // legacy expression bit for bit.
  const double exec_tu =
      model_.ThreadedTime(stage, threads, head_size).value();
  const double rework = fault::ExpectedReworkFactor(
      config_.worker_failure_rate, exec_tu,
      config_.fault.checkpoint_interval.value());
  const double priced_exec = rework == 1.0 ? exec_tu : exec_tu * rework;
  const double hire_cost =
      config_.public_cost_per_core_tu * static_cast<double>(threads) *
      (priced_exec + boot_penalty.value());
  if (eval) {
    eval->delay_cost = delay_cost;
    eval->hire_cost = hire_cost;
    eval->rework_factor = rework;
    eval->hire = delay_cost > hire_cost;
  }
  return delay_cost > hire_cost;
}

ScalingAlgorithm SchedulingPolicy::EffectiveScaling() const {
  if (config_.scaling != ScalingAlgorithm::kLearnedBandit) {
    return config_.scaling;
  }
  return bandit_arms_[bandit_current_arm_].policy;
}

void SchedulingPolicy::BanditEpoch(double total_reward_so_far,
                                   double total_cost_so_far) {
  // Credit the finishing arm with the epoch's realized profit rate.
  const double reward_delta = total_reward_so_far - bandit_epoch_start_reward_;
  const double cost_delta = total_cost_so_far - bandit_epoch_start_cost_;
  const double rate =
      (reward_delta - cost_delta) / config_.bandit_epoch.value();
  bandit_arms_[bandit_current_arm_].profit_rate.Add(rate);
  bandit_epoch_start_reward_ = total_reward_so_far;
  bandit_epoch_start_cost_ = total_cost_so_far;

  // Epsilon-greedy selection; untried arms first so every policy gets at
  // least one epoch of evidence.
  for (std::size_t i = 0; i < bandit_arms_.size(); ++i) {
    if (bandit_arms_[i].profit_rate.empty()) {
      bandit_current_arm_ = i;
      return;
    }
  }
  if (bandit_rng_.Uniform() < kBanditEpsilon) {
    bandit_current_arm_ = bandit_rng_.UniformBelow(
        static_cast<std::uint32_t>(bandit_arms_.size()));
    return;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < bandit_arms_.size(); ++i) {
    if (bandit_arms_[i].profit_rate.mean() >
        bandit_arms_[best].profit_rate.mean()) {
      best = i;
    }
  }
  bandit_current_arm_ = best;
}

bool SchedulingPolicy::NoteCompletion() {
  if (config_.allocation != AllocationAlgorithm::kLongTermAdaptive) {
    return false;
  }
  if (++completions_since_replan_ < kAdaptiveReplanEvery) {
    return false;
  }
  completions_since_replan_ = 0;
  return true;
}

void SchedulingPolicy::ReplanFromBill(const cloud::CostReport& bill) {
  const double core_tus = bill.private_core_tus + bill.public_core_tus;
  if (core_tus <= 0.0) return;
  const AllocationContext ctx = MakeContext(bill.total.value() / core_tus);
  constant_plan_ = LongTermPlan(model_, DataSize{config_.mean_job_size}, ctx);
}

}  // namespace scan::core
