#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "scan/core/allocation.hpp"
#include "scan/core/config.hpp"
#include "scan/core/estimators.hpp"
#include "scan/core/policy.hpp"

namespace scan::core {
namespace {

TEST(ConfigTest, DefaultsMatchTable3) {
  const SimulationConfig config;
  EXPECT_DOUBLE_EQ(config.duration.value(), 10'000.0);
  EXPECT_DOUBLE_EQ(config.private_cost_per_core_tu, 5.0);
  EXPECT_DOUBLE_EQ(config.r_max, 400.0);
  EXPECT_DOUBLE_EQ(config.r_penalty, 15.0);
  EXPECT_DOUBLE_EQ(config.r_scale, 15'000.0);
  EXPECT_EQ(config.instance_sizes, (std::vector<int>{1, 2, 4, 8, 16}));
  EXPECT_DOUBLE_EQ(config.mean_jobs_per_arrival, 3.0);
  EXPECT_DOUBLE_EQ(config.jobs_per_arrival_variance, 2.0);
  EXPECT_DOUBLE_EQ(config.mean_job_size, 5.0);
  EXPECT_DOUBLE_EQ(config.job_size_variance, 1.0);
}

TEST(ConfigTest, DerivedParamsPropagate) {
  SimulationConfig config;
  config.public_cost_per_core_tu = 110.0;
  config.mean_interarrival_tu = 2.2;
  config.reward_scheme = workload::RewardScheme::kThroughputBased;
  const auto cloud = config.MakeCloudConfig();
  EXPECT_DOUBLE_EQ(cloud.public_tier.cost_per_core_tu.value(), 110.0);
  EXPECT_EQ(cloud.private_tier.core_capacity, config.private_capacity_cores);
  const auto arrivals = config.MakeArrivalParams();
  EXPECT_DOUBLE_EQ(arrivals.mean_interarrival_tu, 2.2);
  const auto reward = config.MakeRewardParams();
  EXPECT_EQ(reward.scheme, workload::RewardScheme::kThroughputBased);
}

TEST(ConfigTest, LabelMentionsAllVariableParams) {
  SimulationConfig config;
  config.allocation = AllocationAlgorithm::kGreedy;
  config.scaling = ScalingAlgorithm::kNeverScale;
  const std::string label = config.Label();
  EXPECT_NE(label.find("greedy"), std::string::npos);
  EXPECT_NE(label.find("never-scale"), std::string::npos);
  EXPECT_NE(label.find("2.50"), std::string::npos);
  EXPECT_NE(label.find("time-based"), std::string::npos);
  EXPECT_NE(label.find("50"), std::string::npos);
}

TEST(ConfigTest, SeedsDifferByRepAndConfig) {
  SimulationConfig a;
  SimulationConfig b;
  b.mean_interarrival_tu = 2.0;
  EXPECT_NE(a.SeedFor(0), a.SeedFor(1));
  EXPECT_NE(a.SeedFor(0), b.SeedFor(0));
  EXPECT_EQ(a.SeedFor(3), a.SeedFor(3));
}

TEST(ConfigTest, Table1GridHasPaperCardinality) {
  const Table1Grid grid;
  const auto configs = grid.Expand(SimulationConfig{});
  // 4 allocations x 3 scalings x 11 intervals x 2 schemes x 4 costs.
  EXPECT_EQ(configs.size(), 4u * 3u * 11u * 2u * 4u);
}

TEST(QueueTimeEstimatorTest, StartsAtZeroThenTracks) {
  QueueTimeEstimator est(3);
  EXPECT_DOUBLE_EQ(est.Estimate(0).value(), 0.0);
  est.Observe(0, SimTime{4.0});
  EXPECT_DOUBLE_EQ(est.Estimate(0).value(), 4.0);
  est.Observe(0, SimTime{8.0});
  EXPECT_GT(est.Estimate(0).value(), 4.0);
  EXPECT_LT(est.Estimate(0).value(), 8.0);
  // Other stages unaffected.
  EXPECT_DOUBLE_EQ(est.Estimate(1).value(), 0.0);
  // The table pricing reads holds the same values.
  ASSERT_EQ(est.estimates().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(est.estimates()[i].value(), est.Estimate(i).value());
  }
}

TEST(QueueTimeEstimatorTest, Validation) {
  EXPECT_THROW(QueueTimeEstimator(0), std::invalid_argument);
  EXPECT_THROW(QueueTimeEstimator(3, 0.0), std::invalid_argument);
  EXPECT_THROW(QueueTimeEstimator(3, 1.5), std::invalid_argument);
  QueueTimeEstimator est(2);
  EXPECT_THROW(est.Observe(2, SimTime{1.0}), std::out_of_range);
  EXPECT_THROW((void)est.Estimate(9), std::out_of_range);
}

TEST(EstimatorsTest, EttIsElapsedPlusRemaining) {
  const auto model = gatk::PipelineModel::PaperGatk();
  QueueTimeEstimator queues(model.stage_count());
  queues.Observe(3, SimTime{2.0});
  const std::vector<int> plan(7, 1);
  std::vector<SimTime> exec;
  StageExecTimes(model, plan, DataSize{5.0}, exec);
  const SimTime remaining =
      EstimateRemainingTime(queues.estimates(), exec, /*current_stage=*/3);
  // Stages 3..6 execution plus 2.0 queue estimate at stage 3 only.
  double expected = 2.0;
  for (std::size_t i = 3; i < 7; ++i) {
    expected += model.SingleThreadedTime(i, DataSize{5.0}).value();
  }
  EXPECT_NEAR(remaining.value(), expected, 1e-12);
  const SimTime ett =
      EstimateTotalTime(queues.estimates(), exec, SimTime{11.0}, 3);
  EXPECT_NEAR(ett.value(), expected + 11.0, 1e-12);
}

TEST(EstimatorsTest, PlanSizeValidated) {
  const auto model = gatk::PipelineModel::PaperGatk();
  QueueTimeEstimator queues(model.stage_count());
  const std::vector<int> short_plan(3, 1);
  std::vector<SimTime> table;
  EXPECT_THROW(StageExecTimes(model, short_plan, DataSize{1.0}, table),
               std::invalid_argument);
  const std::vector<SimTime> short_table(3, SimTime{1.0});
  EXPECT_THROW((void)EstimateRemainingTime(queues.estimates(), short_table, 0),
               std::invalid_argument);
}

TEST(EstimatorsTest, StageTableIsTheModelAtThePlan) {
  const auto model = gatk::PipelineModel::PaperGatk();
  const std::vector<int> plan{1, 2, 4, 8, 16, 1, 2};
  // The table is overwritten, whatever it held before.
  std::vector<SimTime> exec(9, SimTime{-1.0});
  StageExecTimes(model, plan, DataSize{3.5}, exec);
  ASSERT_EQ(exec.size(), model.stage_count());
  for (std::size_t i = 0; i < exec.size(); ++i) {
    EXPECT_EQ(exec[i].value(),
              model.ThreadedTime(i, plan[i], DataSize{3.5}).value());
  }
}

// ---- Allocation ----

AllocationContext MakeContext(double price,
                              const std::vector<int>& sizes,
                              workload::RewardParams params = {}) {
  return AllocationContext{price, std::span<const int>(sizes),
                           workload::RewardFunction(params)};
}

const std::vector<int> kSizes = {1, 2, 4, 8, 16};

TEST(AllocationTest, PlanProfitRewardsFasterPlans) {
  const auto model = gatk::PipelineModel::PaperGatk().Scaled(0.25);
  const auto ctx = MakeContext(5.0, kSizes);
  const ThreadPlan narrow = SequentialPlan(7);
  ThreadPlan wide(7, 16);
  // At a cheap price, cutting latency from ~20 to ~8 TU is worth the cores.
  EXPECT_GT(PlanProfit(model, DataSize{5.0}, wide, ctx),
            PlanProfit(model, DataSize{5.0}, narrow, ctx));
}

TEST(AllocationTest, HighPriceNarrowsPlans) {
  const auto model = gatk::PipelineModel::PaperGatk().Scaled(0.25);
  const ThreadPlan cheap =
      BestConstantPlan(model, DataSize{5.0}, MakeContext(1.0, kSizes));
  const ThreadPlan pricey =
      BestConstantPlan(model, DataSize{5.0}, MakeContext(200.0, kSizes));
  const ThreadPlan extreme =
      BestConstantPlan(model, DataSize{5.0}, MakeContext(5000.0, kSizes));
  EXPECT_GT(TotalCoreStages(cheap), TotalCoreStages(pricey));
  EXPECT_EQ(TotalCoreStages(extreme), 7);  // all-sequential at extreme price
}

TEST(AllocationTest, SerialStagesStayNarrow) {
  // Stages 2 and 7 have c = 0.02: no optimizer should widen them.
  const auto model = gatk::PipelineModel::PaperGatk().Scaled(0.25);
  const auto ctx = MakeContext(27.5, kSizes);
  for (const ThreadPlan& plan :
       {GreedyPlan(model, DataSize{5.0}, ctx),
        LongTermPlan(model, DataSize{5.0}, ctx),
        BestConstantPlan(model, DataSize{5.0}, ctx)}) {
    EXPECT_EQ(plan[1], 1);
    EXPECT_EQ(plan[6], 1);
  }
}

TEST(AllocationTest, BestConstantAtLeastAsGoodAsGreedyAndLongTerm) {
  const auto model = gatk::PipelineModel::PaperGatk().Scaled(0.25);
  const auto ctx = MakeContext(27.5, kSizes);
  const DataSize d{5.0};
  const double best = PlanProfit(model, d, BestConstantPlan(model, d, ctx), ctx);
  EXPECT_GE(best + 1e-9, PlanProfit(model, d, GreedyPlan(model, d, ctx), ctx));
  EXPECT_GE(best + 1e-9,
            PlanProfit(model, d, LongTermPlan(model, d, ctx), ctx));
  EXPECT_GE(best + 1e-9, PlanProfit(model, d, SequentialPlan(7), ctx));
}

TEST(AllocationTest, PlansUseOnlyOfferedSizes) {
  // {2, 4}: without 1 on offer, best-constant used to keep its all-ones
  // starting point at high prices, planning stages the cloud cannot hire.
  const auto model = gatk::PipelineModel::PaperGatk().Scaled(0.25);
  for (const std::vector<int>& limited :
       {std::vector<int>{1, 4}, std::vector<int>{2, 4}}) {
    for (const double price : {1.0, 10.0, 500.0, 5000.0}) {
      const auto ctx = MakeContext(price, limited);
      for (const ThreadPlan& plan :
           {GreedyPlan(model, DataSize{5.0}, ctx),
            LongTermPlan(model, DataSize{5.0}, ctx),
            BestConstantPlan(model, DataSize{5.0}, ctx)}) {
        for (const int t : plan) {
          EXPECT_TRUE(t == limited[0] || t == limited[1])
              << "thread count " << t << " at price " << price;
        }
      }
    }
  }
}

TEST(AllocationTest, ThroughputSchemeProducesValidPlans) {
  const auto model = gatk::PipelineModel::PaperGatk().Scaled(0.25);
  workload::RewardParams params;
  params.scheme = workload::RewardScheme::kThroughputBased;
  const auto ctx = MakeContext(27.5, kSizes, params);
  const ThreadPlan plan = BestConstantPlan(model, DataSize{5.0}, ctx);
  ASSERT_EQ(plan.size(), 7u);
  for (const int t : plan) {
    EXPECT_GE(t, 1);
    EXPECT_LE(t, 16);
  }
  // Throughput reward values speed more: plan should not be narrower than
  // the all-sequential baseline's profit.
  EXPECT_GE(PlanProfit(model, DataSize{5.0}, plan, ctx),
            PlanProfit(model, DataSize{5.0}, SequentialPlan(7), ctx));
}

TEST(AllocationTest, Validation) {
  const auto model = gatk::PipelineModel::PaperGatk();
  const std::vector<int> empty;
  const auto bad_ctx = MakeContext(5.0, empty);
  EXPECT_THROW((void)GreedyPlan(model, DataSize{1.0}, bad_ctx),
               std::invalid_argument);
  const auto ctx = MakeContext(5.0, kSizes);
  const ThreadPlan wrong_size(3, 1);
  EXPECT_THROW((void)PlanProfit(model, DataSize{1.0}, wrong_size, ctx),
               std::invalid_argument);
}

TEST(AllocationTest, NonFinitePricesAreRejected) {
  // A NaN price makes every plan score NaN, so each optimizer would keep
  // its starting plan without a word.
  const auto model = gatk::PipelineModel::PaperGatk();
  for (const double price : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    const auto ctx = MakeContext(price, kSizes);
    EXPECT_THROW((void)GreedyPlan(model, DataSize{5.0}, ctx),
                 std::invalid_argument);
    EXPECT_THROW((void)LongTermPlan(model, DataSize{5.0}, ctx),
                 std::invalid_argument);
    EXPECT_THROW((void)BestConstantPlan(model, DataSize{5.0}, ctx),
                 std::invalid_argument);
  }
}

TEST(AllocationTest, GreedyWithNoFiniteScoreKeepsTheSmallestOfferedSize) {
  // A NaN reward term leaves every stage without a finite score; the plan
  // must still use offered sizes only.
  const auto model = gatk::PipelineModel::PaperGatk().Scaled(0.25);
  workload::RewardParams params;
  params.r_penalty = std::numeric_limits<double>::quiet_NaN();
  const std::vector<int> sizes = {4, 2, 8};
  const ThreadPlan plan =
      GreedyPlan(model, DataSize{5.0}, MakeContext(5.0, sizes, params));
  EXPECT_EQ(plan, ThreadPlan(7, 2));
}

TEST(PolicyTest, RejectsPricesThatAreNotFiniteAndNonNegative) {
  const auto model = gatk::PipelineModel::PaperGatk();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto make = [&](const SimulationConfig& config) {
    return SchedulingPolicy(config, model, std::nullopt, 1);
  };
  for (const AllocationAlgorithm allocation :
       {AllocationAlgorithm::kGreedy, AllocationAlgorithm::kBestConstant}) {
    for (const double price : {nan, inf, -1.0}) {
      SimulationConfig config;
      config.allocation = allocation;
      config.public_cost_per_core_tu = price;
      EXPECT_THROW((void)make(config), std::invalid_argument);
      config = SimulationConfig{};
      config.allocation = allocation;
      config.private_cost_per_core_tu = price;
      EXPECT_THROW((void)make(config), std::invalid_argument);
    }
  }
  SimulationConfig free_public;
  free_public.public_cost_per_core_tu = 0.0;
  EXPECT_NO_THROW((void)make(free_public));
}

TEST(PolicyTest, PlansAssumeTheMidpointOfTheTierPrices) {
  // The plan optimizers price a core at the midpoint of the private and
  // public tiers, and price_hint() reports that price to the plan audit.
  const auto model = gatk::PipelineModel::PaperGatk();
  for (const double public_price : {0.0, 20.0, 50.0, 110.0}) {
    SCOPED_TRACE(public_price);
    SimulationConfig config;
    config.public_cost_per_core_tu = public_price;
    const double midpoint =
        0.5 * (config.private_cost_per_core_tu + public_price);
    const AllocationContext ctx = MakeContext(
        midpoint, config.instance_sizes, config.MakeRewardParams());
    const DataSize size{config.mean_job_size};

    config.allocation = AllocationAlgorithm::kLongTerm;
    const SchedulingPolicy long_term(config, model, std::nullopt, 1);
    EXPECT_EQ(long_term.price_hint(), midpoint);
    EXPECT_EQ(long_term.PlanFor(size),
              LongTermPlan(long_term.model(), size, ctx));

    config.allocation = AllocationAlgorithm::kGreedy;
    const SchedulingPolicy greedy(config, model, std::nullopt, 1);
    EXPECT_EQ(greedy.price_hint(), midpoint);
    EXPECT_EQ(greedy.PlanFor(size), GreedyPlan(greedy.model(), size, ctx));
  }
}

TEST(PolicyTest, AdaptiveAllocationAsksForAReplanEvery200Completions) {
  SimulationConfig config;
  config.allocation = AllocationAlgorithm::kLongTermAdaptive;
  SchedulingPolicy policy(config, gatk::PipelineModel::PaperGatk(),
                          std::nullopt, 1);
  std::vector<int> due;
  for (int completion = 1; completion <= 1000; ++completion) {
    if (policy.NoteCompletion()) due.push_back(completion);
  }
  EXPECT_EQ(due, (std::vector<int>{200, 400, 600, 800, 1000}));
}

TEST(PolicyTest, PlanFilledInPlaceEqualsTheReturnedPlan) {
  // Engine::Admit fills one kept plan in place; it must hold exactly the
  // plan PlanFor returns, whatever the plan held before, and a forced plan
  // must win over an adaptive replan as it does for the returned plan.
  const auto model = gatk::PipelineModel::PaperGatk();
  cloud::CostReport bill;
  bill.total = Cost{9000.0};
  bill.public_core_tus = 100.0;
  for (const AllocationAlgorithm allocation :
       {AllocationAlgorithm::kGreedy, AllocationAlgorithm::kLongTerm,
        AllocationAlgorithm::kBestConstant,
        AllocationAlgorithm::kLongTermAdaptive}) {
    for (const bool force : {false, true}) {
      SCOPED_TRACE(AllocationAlgorithmName(allocation));
      SCOPED_TRACE(force);
      SimulationConfig config;
      config.allocation = allocation;
      SchedulingPolicy policy(
          config, model,
          force ? std::optional<ThreadPlan>(ThreadPlan(7, 2)) : std::nullopt,
          1);
      policy.ReplanFromBill(bill);
      ThreadPlan plan(20, 99);  // stale entries, longer than a plan
      for (const double size : {0.5, 5.0, 9.0}) {
        policy.PlanFor(DataSize{size}, plan);
        EXPECT_EQ(plan, policy.PlanFor(DataSize{size})) << size;
        if (force) {
          EXPECT_EQ(plan, ThreadPlan(7, 2)) << size;
        }
      }
    }
  }
}

TEST(PolicyTest, OnlyTheAdaptiveAllocationAsksForReplans) {
  for (const AllocationAlgorithm allocation :
       {AllocationAlgorithm::kGreedy, AllocationAlgorithm::kLongTerm,
        AllocationAlgorithm::kBestConstant}) {
    SimulationConfig config;
    config.allocation = allocation;
    SchedulingPolicy policy(config, gatk::PipelineModel::PaperGatk(),
                            std::nullopt, 1);
    int due = 0;
    for (int completion = 0; completion < 1000; ++completion) {
      due += policy.NoteCompletion() ? 1 : 0;
    }
    EXPECT_EQ(due, 0) << static_cast<int>(allocation);
  }
}

TEST(PolicyTest, BanditGivesEveryArmAnEpochBeforeChoosing) {
  // The bandit starts on the paper's predictive policy, then runs each
  // untried arm in turn before comparing profit rates.
  SimulationConfig config;
  config.scaling = ScalingAlgorithm::kLearnedBandit;
  SchedulingPolicy policy(config, gatk::PipelineModel::PaperGatk(),
                          std::nullopt, 1);
  std::vector<ScalingAlgorithm> arms = {policy.EffectiveScaling()};
  for (int epoch = 0; epoch < 2; ++epoch) {
    policy.BanditEpoch(0.0, 0.0);
    arms.push_back(policy.EffectiveScaling());
  }
  EXPECT_EQ(arms, (std::vector<ScalingAlgorithm>{
                      ScalingAlgorithm::kPredictive,
                      ScalingAlgorithm::kNeverScale,
                      ScalingAlgorithm::kAlwaysScale}));
}

TEST(PolicyTest, BanditExploresATenthOfItsEpochs) {
  // Once every arm has run, an epoch explores a uniformly drawn arm with
  // probability 0.1 and otherwise runs the best profit rate so far, so
  // 0.1 * 2/3 of the epochs run an arm other than the best one.
  SimulationConfig config;
  config.scaling = ScalingAlgorithm::kLearnedBandit;
  SchedulingPolicy policy(config, gatk::PipelineModel::PaperGatk(),
                          std::nullopt, 7);
  const double epoch_tu = config.bandit_epoch.value();
  constexpr int kTrialEpochs = 2;  // the untried arms after the first
  constexpr int kEpochs = 30'000;
  double reward = 0.0;
  int off_best = 0;
  for (int epoch = 0; epoch < kTrialEpochs + kEpochs; ++epoch) {
    // kAlwaysScale earns 1 per TU, every other arm nothing.
    if (policy.EffectiveScaling() == ScalingAlgorithm::kAlwaysScale) {
      reward += epoch_tu;
    }
    policy.BanditEpoch(reward, 0.0);
    if (epoch >= kTrialEpochs) {
      off_best +=
          policy.EffectiveScaling() != ScalingAlgorithm::kAlwaysScale ? 1 : 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(off_best) / kEpochs, 0.1 * 2.0 / 3.0, 0.01);
}

TEST(AllocationTest, TotalCoreStages) {
  EXPECT_EQ(TotalCoreStages(std::vector<int>{1, 2, 4}), 7);
  EXPECT_EQ(TotalCoreStages(SequentialPlan(7)), 7);
}

}  // namespace
}  // namespace scan::core
