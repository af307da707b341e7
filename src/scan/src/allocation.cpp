#include "scan/core/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace scan::core {

namespace {

/// Execution latency of a plan (no queueing): the DAG critical path,
/// which for a linear chain accumulates in stage order exactly like the
/// legacy per-stage sum.
double PlanLatency(const gatk::PipelineModel& model, DataSize d,
                   std::span<const int> plan) {
  return model.MakespanTime(d, plan).value();
}

/// Core-time cost of a plan.
double PlanCoreCost(const gatk::PipelineModel& model, DataSize d,
                    std::span<const int> plan, double price) {
  double total = 0.0;
  for (std::size_t i = 0; i < model.stage_count(); ++i) {
    total += price * model.CoreTime(i, plan[i], d);
  }
  return total;
}

void ValidateContext(const AllocationContext& ctx) {
  if (ctx.instance_sizes.empty()) {
    throw std::invalid_argument("AllocationContext: no instance sizes");
  }
  if (!std::isfinite(ctx.core_price_per_tu) || ctx.core_price_per_tu < 0.0) {
    throw std::invalid_argument(
        "AllocationContext: price must be finite and >= 0");
  }
}

/// Coordinate descent on PlanProfit: each sweep moves every stage, in
/// order, to the offered size that strictly improves the joint profit,
/// until a sweep changes nothing or `max_sweeps` have run.
void CoordinateDescent(const gatk::PipelineModel& model, DataSize d,
                       const AllocationContext& ctx, int max_sweeps,
                       ThreadPlan& plan) {
  bool improved = true;
  int sweeps = 0;
  while (improved && sweeps < max_sweeps) {
    improved = false;
    ++sweeps;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const int original = plan[i];
      double best = PlanProfit(model, d, plan, ctx);
      int best_threads = original;
      for (const int t : ctx.instance_sizes) {
        if (t == original) continue;
        plan[i] = t;
        const double profit = PlanProfit(model, d, plan, ctx);
        if (profit > best + 1e-12) {
          best = profit;
          best_threads = t;
        }
      }
      plan[i] = best_threads;
      if (best_threads != original) improved = true;
    }
  }
}

}  // namespace

double PlanProfit(const gatk::PipelineModel& model, DataSize d,
                  std::span<const int> plan, const AllocationContext& ctx) {
  if (plan.size() != model.stage_count()) {
    throw std::invalid_argument("PlanProfit: plan size mismatch");
  }
  const double latency = PlanLatency(model, d, plan);
  // Guard the throughput scheme against a (theoretical) zero latency.
  const SimTime t{std::max(latency, 1e-9)};
  const double reward = ctx.reward(d, t).value();
  return reward - PlanCoreCost(model, d, plan, ctx.core_price_per_tu);
}

ThreadPlan GreedyPlan(const gatk::PipelineModel& model, DataSize d,
                      const AllocationContext& ctx) {
  ValidateContext(ctx);
  ThreadPlan plan(model.stage_count(), 1);

  // Stage-local marginal rule. For the time-based reward, each TU of
  // latency saved is worth d * Rpenalty; for the throughput reward, value
  // latency savings at the local derivative |dR/dt| evaluated at the
  // sequential latency (a greedy, "now"-focused approximation).
  double latency_value;  // CU per TU of latency saved
  const auto& params = ctx.reward.params();
  if (params.scheme == workload::RewardScheme::kTimeBased) {
    latency_value = d.value() * params.r_penalty;
  } else {
    const double seq = std::max(
        model.SequentialPipelineTime(d).value(), 1e-9);
    latency_value = d.value() * params.r_scale / (seq * seq);
  }

  // A stage whose every score is NaN (a NaN reward term) keeps the
  // smallest offered size, so the plan stays hireable.
  const int smallest =
      *std::min_element(ctx.instance_sizes.begin(), ctx.instance_sizes.end());
  for (std::size_t i = 0; i < model.stage_count(); ++i) {
    double best_score = -1e300;
    int best_threads = smallest;
    for (const int t : ctx.instance_sizes) {
      const double wall = model.ThreadedTime(i, t, d).value();
      const double saved = model.SingleThreadedTime(i, d).value() - wall;
      const double extra_cost =
          ctx.core_price_per_tu *
          (model.CoreTime(i, t, d) - model.CoreTime(i, 1, d));
      const double score = latency_value * saved - extra_cost;
      if (score > best_score) {
        best_score = score;
        best_threads = t;
      }
    }
    plan[i] = best_threads;
  }
  return plan;
}

ThreadPlan LongTermPlan(const gatk::PipelineModel& model,
                        DataSize expected_size, const AllocationContext& ctx) {
  ValidateContext(ctx);
  // The long-term scheme optimizes the same objective as greedy but at the
  // workload's expected size, then applies coordinate descent to repair the
  // per-stage approximation against the joint objective.
  ThreadPlan plan = GreedyPlan(model, expected_size, ctx);
  CoordinateDescent(model, expected_size, ctx, 16, plan);
  return plan;
}

ThreadPlan BestConstantPlan(const gatk::PipelineModel& model,
                            DataSize expected_size,
                            const AllocationContext& ctx) {
  ValidateContext(ctx);
  // Coordinate descent from diverse starts; the lattice is tiny (|sizes|^7)
  // and the objective is well-behaved, so this reliably finds the best
  // constant plan without a full exhaustive sweep.
  // The narrowest start is the smallest *offered* size, not 1: descent
  // only leaves a start's value for a strictly better offered one, so an
  // unoffered 1 could survive into a plan the cloud cannot hire.
  std::vector<ThreadPlan> starts;
  starts.push_back(ThreadPlan(
      model.stage_count(),
      *std::min_element(ctx.instance_sizes.begin(), ctx.instance_sizes.end())));
  starts.push_back(ThreadPlan(
      model.stage_count(),
      *std::max_element(ctx.instance_sizes.begin(), ctx.instance_sizes.end())));
  starts.push_back(GreedyPlan(model, expected_size, ctx));

  ThreadPlan best_plan = starts.front();
  double best_profit = -1e300;
  for (ThreadPlan plan : starts) {
    CoordinateDescent(model, expected_size, ctx, 32, plan);
    const double profit = PlanProfit(model, expected_size, plan, ctx);
    if (profit > best_profit) {
      best_profit = profit;
      best_plan = plan;
    }
  }
  return best_plan;
}

int TotalCoreStages(std::span<const int> plan) {
  int total = 0;
  for (const int t : plan) total += t;
  return total;
}

ThreadPlan SequentialPlan(std::size_t stages) {
  return ThreadPlan(stages, 1);
}

}  // namespace scan::core
