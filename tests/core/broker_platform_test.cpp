#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "scan/core/data_broker.hpp"
#include "scan/core/platform.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/genomics/fastq.hpp"
#include "scan/genomics/synthetic.hpp"
#include "scan/obs/trace.hpp"

namespace scan::core {
namespace {

kb::KnowledgeBase MakePaperKb() {
  kb::KnowledgeBase knowledge;
  knowledge.AddProfile({"GATK1", "GATK", 0, 10.0, 1, 8, 4.0, 180.0, 1, ""});
  knowledge.AddProfile({"GATK2", "GATK", 0, 5.0, 1, 8, 4.0, 200.0, 1, ""});
  knowledge.AddProfile({"GATK3", "GATK", 0, 20.0, 1, 8, 4.0, 280.0, 1, ""});
  knowledge.AddProfile({"GATK4", "GATK", 0, 4.0, 1, 8, 4.0, 80.0, 1, ""});
  return knowledge;
}

TEST(DataBrokerTest, PlanUsesKbAdvice) {
  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  // Within <= 8 GB the best time/GB profile is GATK1 (10 excluded): among
  // {5 -> 40/GB, 4 -> 20/GB} GATK4 wins with 4 GB shards.
  const auto plan = broker.PlanJob("GATK", 100.0, ShardBounds{0.5, 8.0});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_DOUBLE_EQ(plan->shard_size_gb, 4.0);
  EXPECT_EQ(plan->shard_count, 25u);  // the paper's 100 GB -> 25 x 4 GB
  EXPECT_EQ(plan->advice_source, "GATK4");
  EXPECT_EQ(plan->recommended_cpu, 8);
}

TEST(DataBrokerTest, ColdStartFallsBack) {
  kb::KnowledgeBase knowledge;  // empty KB
  DataBroker broker(knowledge);
  const auto plan = broker.PlanJob("GATK", 10.0, ShardBounds{0.5, 8.0}, 2.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->shard_size_gb, 2.0);
  EXPECT_EQ(plan->shard_count, 5u);
  EXPECT_EQ(plan->advice_source, "(cold start default)");
}

TEST(DataBrokerTest, SmallJobIsSingleShard) {
  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  const auto plan = broker.PlanJob("GATK", 1.5, ShardBounds{0.5, 8.0});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->shard_count, 1u);
  EXPECT_DOUBLE_EQ(plan->shard_size_gb, 1.5);
}

TEST(DataBrokerTest, ShardSizesSumToTotal) {
  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  const auto plan = broker.PlanJob("GATK", 10.0, ShardBounds{0.5, 8.0});
  ASSERT_TRUE(plan.ok());  // 4 GB shards -> 3 shards: 4 + 4 + 2
  ASSERT_EQ(plan->shard_count, 3u);
  double total = 0.0;
  for (std::size_t i = 0; i < plan->shard_count; ++i) {
    total += plan->ShardSize(i);
  }
  EXPECT_NEAR(total, 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(plan->ShardSize(2), 2.0);
}

TEST(DataBrokerTest, PlanValidation) {
  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  EXPECT_FALSE(broker.PlanJob("GATK", 0.0).ok());
  EXPECT_FALSE(broker.PlanJob("GATK", 10.0, ShardBounds{5.0, 1.0}).ok());
}

TEST(DataBrokerTest, ShardsRealFastqPayload) {
  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  genomics::SyntheticGenerator gen(3);
  const auto ref = gen.Reference("chr1", 500);
  genomics::ReadSimSpec spec;
  spec.read_count = 120;
  spec.read_length = 60;
  const std::string payload = genomics::WriteFastq(gen.Reads(ref, spec));

  const auto plan = broker.PlanJob("GATK", 16.0, ShardBounds{0.5, 8.0});
  ASSERT_TRUE(plan.ok());  // 4 GB shards -> 4 shards
  // Map "16 GB" onto the payload: bytes_per_gb = payload / 16.
  const double bytes_per_gb = static_cast<double>(payload.size()) / 16.0;
  const auto shards = broker.ShardFastqPayload(payload, *plan, bytes_per_gb);
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  EXPECT_GE(shards->count(), 4u);
  EXPECT_EQ(shards->total_records, 120u);
  for (const std::string& shard : shards->shards) {
    EXPECT_TRUE(genomics::ParseFastq(shard).ok());
  }
}

TEST(DataBrokerTest, ShardPayloadValidation) {
  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  BrokerPlan plan;
  plan.shard_size_gb = 0.0;
  EXPECT_EQ(broker.ShardFastqPayload("", plan, 100.0).status().code(),
            ErrorCode::kFailedPrecondition);
  plan.shard_size_gb = 1.0;
  EXPECT_EQ(broker.ShardFastqPayload("", plan, 0.0).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(DataBrokerTest, PlanShardCountRejectsNonFiniteSizes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [total, shard] : std::vector<std::pair<double, double>>{
           {nan, 2.0}, {inf, 2.0}, {2.0, nan}, {2.0, inf}, {1e300, 1e-300}}) {
    EXPECT_EQ(genomics::PlanShardCount(total, shard).status().code(),
              ErrorCode::kInvalidArgument)
        << total << " / " << shard;
  }
}

TEST(DataBrokerTest, PlansRejectNonFiniteSizesAndBounds) {
  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  const workload::RewardFunction reward{workload::RewardParams{}};
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    EXPECT_EQ(broker.PlanJob("GATK", bad).status().code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(broker.PlanJob("GATK", 10.0, ShardBounds{bad, 8.0})
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(broker.PlanJob("GATK", 10.0, ShardBounds{0.5, bad})
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(broker.PlanJobProfitAware("GATK", bad, reward, 5.0)
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(broker.PlanJobProfitAware("GATK", 10.0, reward, bad)
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(broker
                  .PlanJobProfitAware("GATK", 10.0, reward, 5.0,
                                      ShardBounds{bad, 8.0})
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(broker
                  .PlanJobProfitAware("GATK", 10.0, reward, 5.0,
                                      ShardBounds{0.5, bad})
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument);
  }
}

TEST(DataBrokerTest, ShardPayloadRejectsNonFiniteSizes) {
  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  const std::string payload = genomics::WriteFastq(
      {{"a", "ACGT", "IIII"}, {"b", "GG", "II"}, {"c", "T", "I"}});
  const double inf = std::numeric_limits<double>::infinity();
  BrokerPlan plan;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf}) {
    plan.shard_size_gb = bad;
    EXPECT_EQ(broker.ShardFastqPayload(payload, plan, 100.0).status().code(),
              ErrorCode::kInvalidArgument);
    plan.shard_size_gb = 1.0;
    EXPECT_EQ(broker.ShardFastqPayload(payload, plan, bad).status().code(),
              ErrorCode::kInvalidArgument);
  }
  // A finite budget past what a size_t holds is one whole-payload shard.
  plan.shard_size_gb = 1e300;
  const auto whole = broker.ShardFastqPayload(payload, plan, 1e300);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->shards, std::vector<std::string>{payload});
  // The clamp leaves room for the final newline canonical form adds to a
  // payload that lacks it, so the cut still matches the unclamped budget.
  const std::string_view unterminated(payload.data(), payload.size() - 1);
  plan.shard_size_gb = 1.0;
  const auto cut = broker.ShardFastqPayload(unterminated, plan, 1e9);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_EQ(cut->shards, std::vector<std::string>{payload});
}

TEST(DataBrokerTest, MergeShardOutputs) {
  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  genomics::SyntheticGenerator gen(4);
  const auto ref = gen.Reference("chr1", 400);
  const auto all = gen.Variants(ref, 30);
  // Split the variant set into two sorted halves as if two shards made them.
  genomics::VcfFile a;
  genomics::VcfFile b;
  a.meta = b.meta = all.meta;
  for (std::size_t i = 0; i < all.records.size(); ++i) {
    ((i % 2 == 0) ? a : b).records.push_back(all.records[i]);
  }
  const auto merged = broker.MergeShardOutputs({a, b});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->records.size(), 30u);
  EXPECT_TRUE(genomics::IsSorted(*merged));
}

TEST(DataBrokerTest, RecordCompletionExpandsKb) {
  kb::KnowledgeBase knowledge;
  DataBroker broker(knowledge);
  EXPECT_EQ(knowledge.ProfileCount("GATK"), 0u);
  broker.RecordCompletion("GATK", 1, 4.0, 2, 33.0, 8, 4.0);
  EXPECT_EQ(knowledge.ProfileCount("GATK"), 1u);
  const auto profiles = knowledge.Profiles("GATK");
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].stage, 1);
  EXPECT_DOUBLE_EQ(profiles[0].etime, 33.0);
  // The next PlanJob can use the new knowledge.
  const auto plan = broker.PlanJob("GATK", 8.0, ShardBounds{0.5, 8.0});
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->shard_size_gb, 4.0);
}

TEST(DataBrokerTest, ProfitAwarePlanPicksJobLevelOptimum) {
  // Profiles where per-GB efficiency improves with size (big shards look
  // best to the paper's eTime/GB ranking) but job-level profit favours
  // splitting.
  kb::KnowledgeBase knowledge;
  knowledge.AddProfile({"", "GATK", 0, 1.0, 1, 8, 4.0, 6.0, 1, ""});   // 6/GB
  knowledge.AddProfile({"", "GATK", 0, 4.0, 1, 8, 4.0, 20.0, 1, ""});  // 5/GB
  knowledge.AddProfile({"", "GATK", 0, 16.0, 1, 8, 4.0, 64.0, 1, ""}); // 4/GB
  DataBroker broker(knowledge);

  const workload::RewardFunction reward{workload::RewardParams{}};
  // Paper ranking: 16 GB wins on eTime/GB.
  const auto paper = broker.PlanJob("GATK", 16.0, ShardBounds{0.5, 16.0});
  ASSERT_TRUE(paper.ok());
  EXPECT_DOUBLE_EQ(paper->shard_size_gb, 16.0);

  // Profit-aware ranking: latency drives the reward, so smaller concurrent
  // shards win despite the worse per-GB efficiency.
  const auto smart = broker.PlanJobProfitAware("GATK", 16.0, reward, 5.0,
                                               ShardBounds{0.5, 16.0});
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  EXPECT_LT(smart->shard_size_gb, 16.0);
  EXPECT_GT(smart->shard_count, 1u);
  EXPECT_EQ(smart->advice_source, "(profit-aware ranking)");
}

TEST(DataBrokerTest, ProfitAwareHighPricePrefersFewerShards) {
  kb::KnowledgeBase knowledge;
  knowledge.AddProfile({"", "GATK", 0, 1.0, 1, 8, 4.0, 6.0, 1, ""});
  knowledge.AddProfile({"", "GATK", 0, 16.0, 1, 8, 4.0, 64.0, 1, ""});
  DataBroker broker(knowledge);
  const workload::RewardFunction reward{workload::RewardParams{}};
  const auto cheap = broker.PlanJobProfitAware("GATK", 16.0, reward, 1.0,
                                               ShardBounds{0.5, 16.0});
  const auto pricey = broker.PlanJobProfitAware("GATK", 16.0, reward, 500.0,
                                                ShardBounds{0.5, 16.0});
  ASSERT_TRUE(cheap.ok());
  ASSERT_TRUE(pricey.ok());
  // At extreme core prices the cost term dominates: fewer, bigger shards.
  EXPECT_LE(pricey->shard_count, cheap->shard_count);
}

TEST(DataBrokerTest, ProfitAwareValidation) {
  kb::KnowledgeBase knowledge;
  DataBroker broker(knowledge);
  const workload::RewardFunction reward{workload::RewardParams{}};
  EXPECT_EQ(broker.PlanJobProfitAware("GATK", 0.0, reward, 5.0)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(broker.PlanJobProfitAware("GATK", 10.0, reward, -1.0)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  // Empty KB: no candidates.
  EXPECT_EQ(broker.PlanJobProfitAware("GATK", 10.0, reward, 5.0)
                .status()
                .code(),
            ErrorCode::kNotFound);
}

TEST(DataBrokerTest, ShardSplitTraceInstantIsStampedZero) {
  // The broker has no clock: a plan made after a simulation must not carry
  // the time of that run's last event.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  struct RecorderReset {
    obs::TraceRecorder& recorder;
    ~RecorderReset() {
      recorder.Disable();
      recorder.Clear();
    }
  } reset{recorder};
  recorder.Disable();
  recorder.Clear();
  recorder.Enable();

  SimulationConfig config;
  config.duration = SimTime{50.0};
  SchedulerOptions options;
  double last_event_tu = 0.0;
  options.trace_hook = [&last_event_tu](SimTime when, std::uint64_t) {
    last_event_tu = when.value();
  };
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 3,
                      std::move(options));
  (void)scheduler.Run();
  ASSERT_GT(last_event_tu, 0.0);

  kb::KnowledgeBase knowledge = MakePaperKb();
  DataBroker broker(knowledge);
  ASSERT_TRUE(broker.PlanJob("GATK", 100.0, ShardBounds{0.5, 8.0}).ok());
  recorder.Disable();

  std::vector<obs::TraceEvent> splits;
  for (const obs::TraceEvent& event : recorder.Collect()) {
    if (event.kind == obs::EventKind::kShardSplit) splits.push_back(event);
  }
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].time_tu, 0.0);
  EXPECT_EQ(splits[0].b, 25u);
  EXPECT_EQ(splits[0].value, 4.0);
}

// ---- Platform ----

TEST(PlatformTest, PaperModelSource) {
  Platform platform(ModelSource::kPaperTable2);
  EXPECT_EQ(platform.model().stage_count(), 7u);
  EXPECT_DOUBLE_EQ(platform.model().stage(0).a, 0.35);
}

TEST(PlatformTest, ProfileAndFitRecoversModelAndSeedsKb) {
  Platform platform(ModelSource::kProfileAndFit, 11);
  // Fitted coefficients should be near Table II.
  const auto truth = gatk::PipelineModel::PaperGatk();
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(platform.model().stage(i).a, truth.stage(i).a, 0.1);
    EXPECT_NEAR(platform.model().stage(i).c, truth.stage(i).c, 0.1);
  }
  // KB was seeded with the profiling observations.
  EXPECT_GT(platform.knowledge().ProfileCount("GATK"), 100u);
}

TEST(PlatformTest, RunSimulationFeedsKnowledgeBack) {
  Platform platform(ModelSource::kPaperTable2);
  const std::size_t before = platform.knowledge().ProfileCount("GATK");
  SimulationConfig config;
  config.duration = SimTime{300.0};
  const RunMetrics metrics = platform.RunSimulation(config, 0);
  EXPECT_GT(metrics.jobs_completed, 0u);
  EXPECT_EQ(platform.knowledge().ProfileCount("GATK"), before + 1);
}

}  // namespace
}  // namespace scan::core
