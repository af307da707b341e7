// Differential test of the hire-vs-wait pricing (§III-A-2). The policy's
// QueueDelayCost folds Eq. 2 over stage tables tabulated once per job; it
// must equal, bit for bit, the plan-based formula it replaced, which
// re-evaluates every stage's modeled time on each call:
//
//   Σ_queue DelayCost(size, ReferenceTotalTime(model, eqt, size, elapsed,
//                                              stage, plan), delay)
//
// That formula (the former plan-based EstimateTotalTime) lives here as
// the reference. Queues of 0-300 jobs are
// priced at every stage, with plans drawn from the offered instance sizes,
// EQT left unseeded on some stages, tiny to large delays, both reward
// schemes, and both a linear model and a compiled DAG profile.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/core/policy.hpp"
#include "scan/pdl/compiler.hpp"

namespace scan::core {
namespace {

// ---- Reference: Eq. 2 with every EET re-evaluated from the model ---------

SimTime ReferenceRemainingTime(const gatk::PipelineModel& model,
                               const QueueTimeEstimator& queues,
                               DataSize job_size, std::size_t current_stage,
                               std::span<const int> thread_plan) {
  SimTime total{0.0};
  for (std::size_t i = current_stage; i < model.stage_count(); ++i) {
    total += queues.Estimate(i);
    total += model.ThreadedTime(i, thread_plan[i], job_size);
  }
  return total;
}

SimTime ReferenceTotalTime(const gatk::PipelineModel& model,
                           const QueueTimeEstimator& queues, DataSize job_size,
                           SimTime elapsed, std::size_t current_stage,
                           std::span<const int> thread_plan) {
  return elapsed + ReferenceRemainingTime(model, queues, job_size,
                                          current_stage, thread_plan);
}

struct ReferenceJob {
  DataSize size{0.0};
  SimTime arrival{0.0};
  ThreadPlan plan;
};

double ReferenceDelayCost(const SchedulingPolicy& policy,
                          const QueueTimeEstimator& eqt,
                          const std::vector<ReferenceJob>& queue,
                          std::size_t stage, SimTime now, SimTime delay) {
  double total = 0.0;
  for (const ReferenceJob& job : queue) {
    const SimTime ett = ReferenceTotalTime(policy.model(), eqt, job.size,
                                           now - job.arrival, stage, job.plan);
    total += policy.reward().DelayCost(job.size, ett, delay).value();
  }
  return total;
}

// ---- Drawing cases ---------------------------------------------------------

std::size_t DrawQueueLength(RandomStream& rng) {
  switch (rng.UniformBelow(5)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 2 + rng.UniformBelow(8);
    case 3: return rng.UniformBelow(40);
    default: return rng.UniformBelow(301);
  }
}

SimTime DrawDelay(RandomStream& rng) {
  switch (rng.UniformBelow(4)) {
    case 0: return SimTime{1e-9 * (1.0 + rng.Uniform())};
    case 1: return SimTime{1e4 * (1.0 + rng.Uniform())};
    default: return SimTime{rng.Uniform(0.01, 60.0)};
  }
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Prices random queues at every stage through the policy and through the
/// reference, and requires bit-identical delay costs (and audit inputs).
/// Each round starts a fresh policy whose EQT is only ever fed on a random
/// subset of stages (none at all in round 0).
void ExpectPricingMatchesReference(const gatk::PipelineModel& model,
                                   SimulationConfig config,
                                   workload::RewardScheme scheme,
                                   std::uint64_t seed) {
  config.reward_scheme = scheme;
  RandomStream rng(seed, "pricing-differential");
  const std::vector<int>& sizes = config.instance_sizes;
  std::size_t priced = 0;
  for (int round = 0; round < 4; ++round) {
    SchedulingPolicy policy(config, model, std::nullopt, seed);
    const std::size_t stages = policy.model().stage_count();
    QueueTimeEstimator eqt(stages);  // mirrors the policy's estimator
    std::vector<bool> fed(stages, false);
    for (std::size_t s = 0; s < stages; ++s) {
      fed[s] = round > 0 && rng.UniformBelow(3) != 0;
    }
    for (int trial = 0; trial < 12; ++trial) {
      for (std::size_t s = 0; s < stages; ++s) {
        if (fed[s] && rng.UniformBelow(2) == 0) {
          const SimTime wait{rng.Uniform(0.0, 40.0)};
          policy.ObserveQueueWait(s, wait);
          eqt.Observe(s, wait);
        }
      }
      const SimTime now{rng.Uniform(100.0, 5000.0)};
      for (std::size_t stage = 0; stage < stages; ++stage) {
        const std::size_t length = DrawQueueLength(rng);
        std::vector<ReferenceJob> reference(length);
        std::vector<PricedJob> jobs(length);
        for (std::size_t j = 0; j < length; ++j) {
          ReferenceJob& ref = reference[j];
          ref.size = DataSize{rng.Uniform(0.05, 25.0)};
          ref.arrival = SimTime{rng.Uniform(0.0, now.value())};
          ref.plan.resize(stages);
          for (int& threads : ref.plan) {
            threads = sizes[rng.UniformBelow(
                static_cast<std::uint32_t>(sizes.size()))];
          }
          jobs[j].size = ref.size;
          jobs[j].arrival = ref.arrival;
          StageExecTimes(policy.model(), ref.plan, ref.size,
                         jobs[j].stage_exec);
        }
        std::vector<const PricedJob*> queue;
        for (const PricedJob& job : jobs) queue.push_back(&job);

        const SimTime delay = DrawDelay(rng);
        const double want =
            ReferenceDelayCost(policy, eqt, reference, stage, now, delay);
        const double got = policy.QueueDelayCost(queue, stage, now, delay);
        ASSERT_EQ(Bits(got), Bits(want))
            << "stage " << stage << ", " << length << " jobs, delay "
            << delay.value() << ": got " << got << ", reference " << want;

        // The decision path prices the same way and audits the same bits.
        HireEvaluation eval;
        const int threads = sizes[rng.UniformBelow(
            static_cast<std::uint32_t>(sizes.size()))];
        const bool hire = policy.PredictiveShouldHire(
            queue, stage, threads, DataSize{rng.Uniform(0.05, 25.0)}, now,
            delay, SimTime{0.5}, &eval);
        ASSERT_EQ(Bits(eval.delay_cost), Bits(want));
        ASSERT_EQ(hire, want > eval.hire_cost);
        ++priced;
      }
    }
  }
  EXPECT_EQ(priced, 4u * 12u * model.stage_count());
}

gatk::PipelineModel GatkSparkDag(SimulationConfig& config) {
  const pdl::CompileResult compiled =
      pdl::CompileFile(std::string(SCAN_PDL_PROFILE_DIR) + "/gatk_spark.pdl");
  const pdl::CompiledPipeline& pipeline = compiled.pipeline.value();
  pipeline.ApplyTo(config);
  return pipeline.model;
}

TEST(PricingDifferential, PaperGatkTimeBased) {
  ExpectPricingMatchesReference(gatk::PipelineModel::PaperGatk(), {},
                                workload::RewardScheme::kTimeBased, 11);
}

TEST(PricingDifferential, PaperGatkThroughputBased) {
  ExpectPricingMatchesReference(gatk::PipelineModel::PaperGatk(), {},
                                workload::RewardScheme::kThroughputBased, 12);
}

TEST(PricingDifferential, CompiledDagTimeBased) {
  SimulationConfig config;
  const gatk::PipelineModel model = GatkSparkDag(config);
  ASSERT_FALSE(model.is_linear());
  ExpectPricingMatchesReference(model, config,
                                workload::RewardScheme::kTimeBased, 13);
}

TEST(PricingDifferential, CompiledDagThroughputBased) {
  SimulationConfig config;
  const gatk::PipelineModel model = GatkSparkDag(config);
  ExpectPricingMatchesReference(model, config,
                                workload::RewardScheme::kThroughputBased, 14);
}

TEST(PricingDifferential, NoBusyWorkerOrImmediateFreeSkipsPricing) {
  const SimulationConfig config;
  const SchedulingPolicy policy(config, gatk::PipelineModel::PaperGatk(),
                                std::nullopt, 1);
  const std::vector<const PricedJob*> empty;
  HireEvaluation eval;
  EXPECT_TRUE(policy.PredictiveShouldHire(empty, 0, 4, DataSize{1.0},
                                          SimTime{10.0}, std::nullopt,
                                          SimTime{0.5}, &eval));
  EXPECT_TRUE(std::isnan(eval.delay_cost));
  HireEvaluation now_eval;
  EXPECT_FALSE(policy.PredictiveShouldHire(empty, 0, 4, DataSize{1.0},
                                           SimTime{10.0}, SimTime{0.0},
                                           SimTime{0.5}, &now_eval));
  EXPECT_TRUE(std::isnan(now_eval.delay_cost));
  EXPECT_EQ(now_eval.next_free_delay_tu, 0.0);
}

}  // namespace
}  // namespace scan::core
