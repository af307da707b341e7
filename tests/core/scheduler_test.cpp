#include "scan/core/scheduler.hpp"

#include <gtest/gtest.h>

#include <string>

#include "scan/core/experiment.hpp"

namespace scan::core {
namespace {

/// Short-horizon config for fast integration tests.
SimulationConfig TestConfig() {
  SimulationConfig config;
  config.duration = SimTime{500.0};
  return config;
}

RunMetrics RunScheduler(const SimulationConfig& config, int rep = 0,
                        SchedulerOptions options = {}) {
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(),
                      config.SeedFor(rep), std::move(options));
  return scheduler.Run();
}

TEST(SchedulerTest, CompletesJobsAndEarnsReward) {
  const RunMetrics metrics = RunScheduler(TestConfig());
  EXPECT_GT(metrics.jobs_arrived, 100u);
  EXPECT_GT(metrics.jobs_completed, 100u);
  EXPECT_LE(metrics.jobs_completed, metrics.jobs_arrived);
  EXPECT_GT(metrics.total_reward, 0.0);
  EXPECT_GT(metrics.total_cost, 0.0);
  EXPECT_GT(metrics.latency.mean(), 0.0);
}

TEST(SchedulerTest, DeterministicForSameSeed) {
  const RunMetrics a = RunScheduler(TestConfig(), 0);
  const RunMetrics b = RunScheduler(TestConfig(), 0);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_DOUBLE_EQ(a.total_reward, b.total_reward);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
}

TEST(SchedulerTest, RepetitionsDiffer) {
  const RunMetrics a = RunScheduler(TestConfig(), 0);
  const RunMetrics b = RunScheduler(TestConfig(), 1);
  EXPECT_NE(a.total_reward, b.total_reward);
}

TEST(SchedulerTest, RunTwiceThrows) {
  const SimulationConfig config = TestConfig();
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 1);
  (void)scheduler.Run();
  EXPECT_THROW((void)scheduler.Run(), std::logic_error);
}

TEST(SchedulerTest, NeverScaleNeverHiresPublic) {
  SimulationConfig config = TestConfig();
  config.scaling = ScalingAlgorithm::kNeverScale;
  config.mean_interarrival_tu = 2.0;  // heavy load
  const RunMetrics metrics = RunScheduler(config);
  EXPECT_EQ(metrics.public_hires, 0u);
  EXPECT_DOUBLE_EQ(metrics.cost_report.public_tier.value(), 0.0);
  EXPECT_GT(metrics.private_hires, 0u);
}

TEST(SchedulerTest, AlwaysScaleHiresPublicUnderLoad) {
  SimulationConfig config = TestConfig();
  config.scaling = ScalingAlgorithm::kAlwaysScale;
  config.mean_interarrival_tu = 2.0;
  const RunMetrics metrics = RunScheduler(config);
  EXPECT_GT(metrics.public_hires, 0u);
  EXPECT_GT(metrics.cost_report.public_tier.value(), 0.0);
}

TEST(SchedulerTest, PredictiveHiresLessPublicThanAlways) {
  SimulationConfig config = TestConfig();
  config.mean_interarrival_tu = 2.0;
  config.scaling = ScalingAlgorithm::kAlwaysScale;
  const RunMetrics always = RunScheduler(config);
  config.scaling = ScalingAlgorithm::kPredictive;
  const RunMetrics predictive = RunScheduler(config);
  EXPECT_LT(predictive.public_hires, always.public_hires);
}

TEST(SchedulerTest, AlwaysScaleKeepsLatencyLowerUnderOverload) {
  SimulationConfig config = TestConfig();
  config.mean_interarrival_tu = 2.0;
  config.scaling = ScalingAlgorithm::kNeverScale;
  const RunMetrics never = RunScheduler(config);
  config.scaling = ScalingAlgorithm::kAlwaysScale;
  const RunMetrics always = RunScheduler(config);
  EXPECT_LT(always.latency.mean(), never.latency.mean());
}

TEST(SchedulerTest, PrivateCostDominatedByTierPrice) {
  SimulationConfig config = TestConfig();
  config.scaling = ScalingAlgorithm::kNeverScale;
  const RunMetrics metrics = RunScheduler(config);
  // All cost must be private at the private price.
  EXPECT_DOUBLE_EQ(metrics.cost_report.total.value(),
                   metrics.cost_report.private_tier.value());
  EXPECT_NEAR(metrics.cost_report.private_tier.value(),
              metrics.cost_report.private_core_tus * 5.0, 1e-6);
}

TEST(SchedulerTest, ForcedPlanIsUsed) {
  SimulationConfig config = TestConfig();
  SchedulerOptions options;
  options.forced_plan = ThreadPlan(7, 2);
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 1, options);
  EXPECT_EQ(scheduler.PlanFor(DataSize{5.0}), ThreadPlan(7, 2));
  const RunMetrics metrics = scheduler.Run();
  EXPECT_NEAR(metrics.core_stages.mean(), 14.0, 1e-9);
}

TEST(SchedulerTest, ForcedPlanSizeValidated) {
  SchedulerOptions options;
  options.forced_plan = ThreadPlan(3, 2);
  EXPECT_THROW(
      Scheduler(TestConfig(), gatk::PipelineModel::PaperGatk(), 1, options),
      std::invalid_argument);
}

TEST(SchedulerTest, ForcedPlanMustUseOfferedInstanceSizes) {
  // The cloud hires only offered sizes. A 3-thread plan used to be
  // accepted; the run then counted hires the cloud refused and completed
  // nothing, its head job waiting forever with no audit record.
  SchedulerOptions options;
  options.forced_plan = ThreadPlan(7, 3);
  try {
    Scheduler scheduler(TestConfig(), gatk::PipelineModel::PaperGatk(), 1,
                        options);
    FAIL() << "a plan of 3-thread stages was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage 0"), std::string::npos) << what;
    EXPECT_NE(what.find("3 threads"), std::string::npos) << what;
  }
  options.forced_plan = ThreadPlan{1, 2, 4, 8, 16, 2, 0};
  EXPECT_THROW(Scheduler(TestConfig(), gatk::PipelineModel::PaperGatk(), 1,
                         options),
               std::invalid_argument);
}

TEST(SchedulerTest, ServesWhenSingleThreadIsNotOffered) {
  // Default allocation (best-constant) without 1 on offer: every planned
  // stage must still be hireable, or the run stalls on its first job.
  SimulationConfig config = TestConfig();
  config.instance_sizes = {2, 4, 8, 16};
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(),
                      config.SeedFor(0));
  for (const int threads : scheduler.PlanFor(DataSize{5.0})) {
    EXPECT_GE(threads, 2);
  }
  const RunMetrics metrics = scheduler.Run();
  EXPECT_GT(metrics.jobs_completed, 100u);
  EXPECT_GT(metrics.private_hires, 0u);
}

TEST(SchedulerTest, GreedyPlansVaryWithJobSize) {
  SimulationConfig config = TestConfig();
  config.allocation = AllocationAlgorithm::kGreedy;
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 1);
  const ThreadPlan small = scheduler.PlanFor(DataSize{0.5});
  const ThreadPlan large = scheduler.PlanFor(DataSize{9.0});
  // Larger jobs justify at least as much parallelism.
  EXPECT_GE(TotalCoreStages(large), TotalCoreStages(small));
}

TEST(SchedulerTest, ConstantAllocationsIgnoreJobSize) {
  SimulationConfig config = TestConfig();
  config.allocation = AllocationAlgorithm::kBestConstant;
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 1);
  EXPECT_EQ(scheduler.PlanFor(DataSize{0.5}), scheduler.PlanFor(DataSize{9.0}));
}

TEST(SchedulerTest, AllAllocationAlgorithmsRun) {
  for (const auto alloc :
       {AllocationAlgorithm::kGreedy, AllocationAlgorithm::kLongTerm,
        AllocationAlgorithm::kLongTermAdaptive,
        AllocationAlgorithm::kBestConstant}) {
    SimulationConfig config = TestConfig();
    config.allocation = alloc;
    const RunMetrics metrics = RunScheduler(config);
    EXPECT_GT(metrics.jobs_completed, 0u)
        << AllocationAlgorithmName(alloc);
  }
}

TEST(SchedulerTest, ThroughputSchemeRuns) {
  SimulationConfig config = TestConfig();
  config.reward_scheme = workload::RewardScheme::kThroughputBased;
  const RunMetrics metrics = RunScheduler(config);
  EXPECT_GT(metrics.jobs_completed, 0u);
  EXPECT_GT(metrics.total_reward, 0.0);
}

TEST(SchedulerTest, CostScalesWithPublicPrice) {
  SimulationConfig config = TestConfig();
  config.mean_interarrival_tu = 2.0;
  config.scaling = ScalingAlgorithm::kAlwaysScale;
  config.public_cost_per_core_tu = 20.0;
  const RunMetrics cheap = RunScheduler(config);
  config.public_cost_per_core_tu = 110.0;
  const RunMetrics pricey = RunScheduler(config);
  EXPECT_GT(pricey.cost_report.public_tier.value() /
                std::max(1.0, pricey.cost_report.public_core_tus),
            cheap.cost_report.public_tier.value() /
                std::max(1.0, cheap.cost_report.public_core_tus));
}

TEST(SchedulerTest, QueueWaitObserved) {
  SimulationConfig config = TestConfig();
  config.mean_interarrival_tu = 2.0;
  const RunMetrics metrics = RunScheduler(config);
  EXPECT_GT(metrics.queue_wait.count(), 0u);
  EXPECT_GE(metrics.queue_wait.min(), 0.0);
}

TEST(SchedulerTest, PerStageQueueWaitsRecorded) {
  SimulationConfig config = TestConfig();
  config.mean_interarrival_tu = 2.0;
  const RunMetrics metrics = RunScheduler(config);
  ASSERT_EQ(metrics.stage_queue_wait.size(), 7u);
  std::size_t total = 0;
  for (const RunningStats& stage : metrics.stage_queue_wait) {
    EXPECT_GE(stage.min(), 0.0);
    total += stage.count();
  }
  // Per-stage counts partition the global wait samples.
  EXPECT_EQ(total, metrics.queue_wait.count());
  // Every completed job passed through stage 0's queue; jobs still queued
  // at the horizon may not have been dispatched yet.
  EXPECT_GE(metrics.stage_queue_wait[0].count(), metrics.jobs_completed);
  EXPECT_LE(metrics.stage_queue_wait[0].count(),
            metrics.jobs_arrived + metrics.task_retries);
}

TEST(SchedulerTest, WorkerUtilizationFeedbackRecorded) {
  SimulationConfig config = TestConfig();
  const RunMetrics metrics = RunScheduler(config);
  // Idle-release churn guarantees some workers were released and reported.
  ASSERT_GT(metrics.worker_utilization.count(), 0u);
  EXPECT_GE(metrics.worker_utilization.min(), 0.0);
  EXPECT_LE(metrics.worker_utilization.max(), 1.0);
  // Workers do real work before the idle timeout reaps them, so mean
  // utilization is meaningfully above zero.
  EXPECT_GT(metrics.worker_utilization.mean(), 0.2);
}

TEST(SchedulerTest, MetricsInternallyConsistent) {
  const RunMetrics metrics = RunScheduler(TestConfig());
  EXPECT_DOUBLE_EQ(metrics.profit(),
                   metrics.total_reward - metrics.total_cost);
  EXPECT_NEAR(metrics.profit_per_run() *
                  static_cast<double>(metrics.jobs_completed),
              metrics.profit(), 1e-6);
  EXPECT_NEAR(metrics.reward_to_cost(),
              metrics.total_reward / metrics.total_cost, 1e-12);
  EXPECT_EQ(metrics.latency.count(), metrics.jobs_completed);
}

TEST(SchedulerTest, LearnedBanditRunsAndHiresSelectively) {
  SimulationConfig config = TestConfig();
  config.duration = SimTime{1'000.0};
  config.scaling = ScalingAlgorithm::kLearnedBandit;
  config.mean_interarrival_tu = 2.0;
  const RunMetrics metrics = RunScheduler(config);
  EXPECT_GT(metrics.jobs_completed, 100u);
  // The bandit explores always-scale/predictive arms, so some public
  // hiring happens under heavy load.
  EXPECT_GT(metrics.public_hires, 0u);
}

TEST(SchedulerTest, LearnedBanditIsDeterministicPerSeed) {
  SimulationConfig config = TestConfig();
  config.scaling = ScalingAlgorithm::kLearnedBandit;
  Scheduler a(config, gatk::PipelineModel::PaperGatk(), config.SeedFor(0));
  Scheduler b(config, gatk::PipelineModel::PaperGatk(), config.SeedFor(0));
  const RunMetrics ma = a.Run();
  const RunMetrics mb = b.Run();
  EXPECT_DOUBLE_EQ(ma.total_reward, mb.total_reward);
  EXPECT_DOUBLE_EQ(ma.total_cost, mb.total_cost);
}

TEST(SchedulerTest, LearnedBanditAvoidsNeverScaleCollapseUnderOverload) {
  SimulationConfig config = TestConfig();
  config.duration = SimTime{2'000.0};
  config.mean_interarrival_tu = 2.0;
  config.scaling = ScalingAlgorithm::kNeverScale;
  const RunMetrics never = RunScheduler(config);
  config.scaling = ScalingAlgorithm::kLearnedBandit;
  const RunMetrics bandit = RunScheduler(config);
  // The bandit learns to hire public capacity, so it must end far above
  // the collapsing never-scale baseline.
  EXPECT_GT(bandit.profit_per_run(), never.profit_per_run());
}

TEST(SchedulerTest, TraceReplayUsesExactlyTheTraceJobs) {
  SimulationConfig config = TestConfig();
  workload::JobTrace trace;
  for (int i = 0; i < 20; ++i) {
    workload::Job job;
    job.id = static_cast<std::uint64_t>(i);
    job.arrival = SimTime{static_cast<double>(i) * 10.0};
    job.size = DataSize{5.0};
    trace.jobs.push_back(job);
  }
  SchedulerOptions options;
  options.trace = trace;
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 1, options);
  const RunMetrics metrics = scheduler.Run();
  EXPECT_EQ(metrics.jobs_arrived, 20u);
  EXPECT_EQ(metrics.jobs_completed, 20u);  // light load: everything finishes
}

TEST(SchedulerTest, TraceBatchesBeyondHorizonIgnored) {
  SimulationConfig config = TestConfig();
  config.duration = SimTime{50.0};
  workload::JobTrace trace;
  workload::Job inside;
  inside.id = 0;
  inside.arrival = SimTime{10.0};
  inside.size = DataSize{2.0};
  workload::Job outside = inside;
  outside.id = 1;
  outside.arrival = SimTime{500.0};
  trace.jobs = {inside, outside};
  SchedulerOptions options;
  options.trace = trace;
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 1, options);
  EXPECT_EQ(scheduler.Run().jobs_arrived, 1u);
}

TEST(SchedulerTest, SameTraceSamePolicyIsIdenticalAcrossSeeds) {
  // With a trace, the only randomness left is the (unused) generator, so
  // different seeds must give identical results for non-bandit policies.
  SimulationConfig config = TestConfig();
  workload::ArrivalGenerator generator(config.MakeArrivalParams(), 99);
  const workload::JobTrace trace =
      workload::RecordTrace(generator, config.duration);
  SchedulerOptions options;
  options.trace = trace;
  Scheduler a(config, gatk::PipelineModel::PaperGatk(), 1, options);
  Scheduler b(config, gatk::PipelineModel::PaperGatk(), 2, options);
  const RunMetrics ma = a.Run();
  const RunMetrics mb = b.Run();
  EXPECT_DOUBLE_EQ(ma.total_reward, mb.total_reward);
  EXPECT_DOUBLE_EQ(ma.total_cost, mb.total_cost);
}

TEST(SchedulerTest, TimelineSamplesAtRequestedPeriod) {
  SimulationConfig config = TestConfig();
  config.duration = SimTime{100.0};
  SchedulerOptions options;
  options.timeline_sample_period = SimTime{10.0};
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 1, options);
  const RunMetrics metrics = scheduler.Run();
  ASSERT_FALSE(metrics.timeline.empty());
  EXPECT_NEAR(static_cast<double>(metrics.timeline.size()), 10.0, 1.0);
  // Samples are time-ordered and internally consistent.
  for (std::size_t i = 0; i < metrics.timeline.size(); ++i) {
    const TimelinePoint& p = metrics.timeline[i];
    if (i > 0) {
      EXPECT_GT(p.time, metrics.timeline[i - 1].time);
    }
    EXPECT_GE(p.cost_rate, 0.0);
    EXPECT_LE(p.private_cores, config.private_capacity_cores);
  }
}

TEST(SchedulerTest, TimelineOffByDefault) {
  const RunMetrics metrics = RunScheduler(TestConfig());
  EXPECT_TRUE(metrics.timeline.empty());
}

TEST(SchedulerTest, ZeroFailureRateMatchesBaselineExactly) {
  SimulationConfig config = TestConfig();
  const RunMetrics baseline = RunScheduler(config);
  config.worker_failure_rate = 0.0;
  const RunMetrics with_flag = RunScheduler(config);
  EXPECT_DOUBLE_EQ(baseline.total_reward, with_flag.total_reward);
  EXPECT_EQ(with_flag.worker_failures, 0u);
  EXPECT_EQ(with_flag.task_retries, 0u);
}

TEST(SchedulerTest, FailureInjectionCrashesWorkersAndRetriesTasks) {
  SimulationConfig config = TestConfig();
  config.worker_failure_rate = 0.05;  // expect several crashes per run
  const RunMetrics metrics = RunScheduler(config);
  EXPECT_GT(metrics.worker_failures, 0u);
  EXPECT_EQ(metrics.task_retries, metrics.worker_failures);
  // Retries keep the pipeline progressing: most jobs still complete.
  EXPECT_GT(metrics.jobs_completed, metrics.jobs_arrived / 2);
}

TEST(SchedulerTest, ProfitDegradesMonotonicallyWithFailureRate) {
  SimulationConfig config = TestConfig();
  config.duration = SimTime{1'000.0};
  double previous = 1e300;
  for (const double rate : {0.0, 0.05, 0.2}) {
    config.worker_failure_rate = rate;
    const RunMetrics metrics = RunScheduler(config);
    EXPECT_LT(metrics.profit_per_run(), previous)
        << "failure rate " << rate;
    previous = metrics.profit_per_run();
  }
}

TEST(SchedulerTest, FailureInjectionIsDeterministic) {
  SimulationConfig config = TestConfig();
  config.worker_failure_rate = 0.1;
  const RunMetrics a = RunScheduler(config, 3);
  const RunMetrics b = RunScheduler(config, 3);
  EXPECT_EQ(a.worker_failures, b.worker_failures);
  EXPECT_DOUBLE_EQ(a.total_reward, b.total_reward);
}

// ---- Experiment harness ----

TEST(ExperimentTest, AggregatesRepetitions) {
  SimulationConfig config = TestConfig();
  const AggregateMetrics agg = RunRepetitions(config, 4);
  EXPECT_EQ(agg.profit_per_run.count(), 4u);
  EXPECT_EQ(agg.jobs_completed.count(), 4u);
  EXPECT_GT(agg.jobs_completed.mean(), 0.0);
  EXPECT_GT(agg.profit_per_run.stddev(), 0.0);  // reps differ
}

TEST(ExperimentTest, ParallelMatchesSerial) {
  SimulationConfig config = TestConfig();
  const AggregateMetrics serial = RunRepetitions(config, 3);
  ThreadPool pool(4);
  const AggregateMetrics parallel = RunRepetitions(config, 3, {}, &pool);
  EXPECT_DOUBLE_EQ(serial.profit_per_run.mean(),
                   parallel.profit_per_run.mean());
  EXPECT_DOUBLE_EQ(serial.profit_per_run.stddev(),
                   parallel.profit_per_run.stddev());
  EXPECT_DOUBLE_EQ(serial.total_cost.mean(), parallel.total_cost.mean());
}

TEST(ExperimentTest, SweepPreservesConfigOrder) {
  SimulationConfig a = TestConfig();
  a.mean_interarrival_tu = 2.0;
  SimulationConfig b = TestConfig();
  b.mean_interarrival_tu = 3.0;
  ThreadPool pool(2);
  const auto results = RunSweep({a, b}, 2, pool);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].config.mean_interarrival_tu, 2.0);
  EXPECT_DOUBLE_EQ(results[1].config.mean_interarrival_tu, 3.0);
  // Heavier load completes more jobs in the same horizon.
  EXPECT_GT(results[0].jobs_completed.mean(),
            results[1].jobs_completed.mean());
}

TEST(ExperimentTest, ZeroRepetitions) {
  EXPECT_EQ(RunRepetitions(TestConfig(), 0).profit_per_run.count(), 0u);
  ThreadPool pool(2);
  EXPECT_TRUE(RunSweep({TestConfig()}, 0, pool).empty());
}

// Paper-shape property: at light load, never-scale and predictive profits
// are close (within noise) and above always-scale; at heavy load,
// predictive is close to always-scale and never-scale is far below.
TEST(ExperimentTest, Figure4ShapeHolds) {
  ThreadPool pool(2);
  auto make = [](double interval, ScalingAlgorithm scaling) {
    SimulationConfig config;
    config.duration = SimTime{2'000.0};
    config.mean_interarrival_tu = interval;
    config.scaling = scaling;
    return config;
  };
  const auto results =
      RunSweep({make(2.0, ScalingAlgorithm::kNeverScale),
                make(2.0, ScalingAlgorithm::kAlwaysScale),
                make(2.0, ScalingAlgorithm::kPredictive),
                make(3.0, ScalingAlgorithm::kNeverScale),
                make(3.0, ScalingAlgorithm::kAlwaysScale),
                make(3.0, ScalingAlgorithm::kPredictive)},
               3, pool);
  const double heavy_never = results[0].profit_per_run.mean();
  const double heavy_always = results[1].profit_per_run.mean();
  const double heavy_pred = results[2].profit_per_run.mean();
  const double light_never = results[3].profit_per_run.mean();
  const double light_always = results[4].profit_per_run.mean();
  const double light_pred = results[5].profit_per_run.mean();

  // Heavy load: never-scale is the worst by a wide margin; predictive is
  // in always-scale's neighbourhood.
  EXPECT_LT(heavy_never, heavy_always);
  EXPECT_LT(heavy_never, heavy_pred);
  EXPECT_GT(heavy_pred, heavy_never + 100.0);
  // Light load: predictive tracks never-scale; both beat always-scale.
  EXPECT_GT(light_never, light_always);
  EXPECT_GT(light_pred, light_always);
  EXPECT_NEAR(light_pred, light_never, 120.0);
}

}  // namespace
}  // namespace scan::core
