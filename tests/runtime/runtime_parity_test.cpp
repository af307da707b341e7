// The headline correctness claim of the live runtime: under the virtual
// clock with a pinned seed, RuntimePlatform completes the same job set
// with the same per-job stage schedule as the discrete-event Scheduler —
// bit for bit, across the scaling x allocation matrix, including failure
// injection and timeline sampling. Both are hosts of one mechanics core
// (core::Engine), so this checks the host seam: each terminal event gated
// on its worker's completion ticket, LiveWorker fan-out onto the real
// execution pool, and the shared calendar's event order.

#include "scan/testkit/parity.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "scan/gatk/pipeline_model.hpp"
#include "scan/testkit/digest.hpp"

namespace scan::testkit {
namespace {

core::SimulationConfig BaseConfig() {
  core::SimulationConfig config;
  config.duration = SimTime{200.0};
  config.mean_interarrival_tu = 2.2;  // busy enough to exercise hiring
  return config;
}

struct ParityCase {
  std::string name;
  core::AllocationAlgorithm allocation;
  core::ScalingAlgorithm scaling;
  std::uint64_t seed;
  double failure_rate = 0.0;
  double timeline_period = 0.0;
};

class SimRuntimeParity : public testing::TestWithParam<ParityCase> {};

TEST_P(SimRuntimeParity, VirtualClockRunMatchesSimulatorBitForBit) {
  const ParityCase& param = GetParam();
  core::SimulationConfig config = BaseConfig();
  config.allocation = param.allocation;
  config.scaling = param.scaling;
  config.worker_failure_rate = param.failure_rate;

  runtime::RuntimeOptions options;
  options.timeline_sample_period = SimTime{param.timeline_period};

  const ParityResult result =
      CheckSimRuntimeParity(config, param.seed, options);
  EXPECT_TRUE(result.ok()) << result.Describe();
  EXPECT_GT(result.stage_records, 0u) << "run dispatched nothing";
  EXPECT_GT(result.job_records, 0u) << "run completed nothing";
  // Under SCAN_OBS_FULL=1 the oracle additionally derives and compares
  // the span-graph critical paths and the profile ledger of both
  // engines; make sure that comparison actually engaged.
  const char* obs_full = std::getenv("SCAN_OBS_FULL");
  if (obs_full != nullptr && obs_full[0] != '\0' && obs_full[0] != '0') {
    EXPECT_EQ(result.critical_paths_compared, result.job_records);
    EXPECT_GT(result.ledger_rows_compared, 0u);
  }
}

using core::AllocationAlgorithm;
using core::ScalingAlgorithm;

INSTANTIATE_TEST_SUITE_P(
    PinnedSeeds, SimRuntimeParity,
    testing::Values(
        ParityCase{"GreedyAlways", AllocationAlgorithm::kGreedy,
                   ScalingAlgorithm::kAlwaysScale, 0xA11},
        ParityCase{"GreedyNever", AllocationAlgorithm::kGreedy,
                   ScalingAlgorithm::kNeverScale, 0xA12},
        ParityCase{"GreedyPredictive", AllocationAlgorithm::kGreedy,
                   ScalingAlgorithm::kPredictive, 0xA13},
        ParityCase{"LongTermAlways", AllocationAlgorithm::kLongTerm,
                   ScalingAlgorithm::kAlwaysScale, 0xA21},
        ParityCase{"LongTermPredictive", AllocationAlgorithm::kLongTerm,
                   ScalingAlgorithm::kPredictive, 0xA22},
        ParityCase{"AdaptiveNever", AllocationAlgorithm::kLongTermAdaptive,
                   ScalingAlgorithm::kNeverScale, 0xA31},
        ParityCase{"AdaptivePredictive",
                   AllocationAlgorithm::kLongTermAdaptive,
                   ScalingAlgorithm::kPredictive, 0xA32},
        ParityCase{"BestConstantAlways", AllocationAlgorithm::kBestConstant,
                   ScalingAlgorithm::kAlwaysScale, 0xA41},
        ParityCase{"BestConstantNever", AllocationAlgorithm::kBestConstant,
                   ScalingAlgorithm::kNeverScale, 0xA42},
        ParityCase{"BestConstantPredictive",
                   AllocationAlgorithm::kBestConstant,
                   ScalingAlgorithm::kPredictive, 0xA43},
        ParityCase{"BestConstantBandit", AllocationAlgorithm::kBestConstant,
                   ScalingAlgorithm::kLearnedBandit, 0xA51},
        ParityCase{"AdaptiveBandit", AllocationAlgorithm::kLongTermAdaptive,
                   ScalingAlgorithm::kLearnedBandit, 0xA52},
        ParityCase{"PredictiveWithFailures",
                   AllocationAlgorithm::kBestConstant,
                   ScalingAlgorithm::kPredictive, 0xA61, 0.02},
        ParityCase{"AlwaysWithFailures", AllocationAlgorithm::kGreedy,
                   ScalingAlgorithm::kAlwaysScale, 0xA62, 0.05},
        ParityCase{"PredictiveWithTimeline", AllocationAlgorithm::kLongTerm,
                   ScalingAlgorithm::kPredictive, 0xA71, 0.0, 10.0}),
    [](const testing::TestParamInfo<ParityCase>& info) {
      return info.param.name;
    });

TEST(RuntimeDeterminism, SameSeedVirtualRunsAreBitIdentical) {
  core::SimulationConfig config = BaseConfig();
  config.scaling = core::ScalingAlgorithm::kPredictive;

  runtime::RuntimeOptions options;
  options.record_schedule = true;

  runtime::RuntimePlatform first(config, gatk::PipelineModel::PaperGatk(),
                                 0xD0, options);
  runtime::RuntimePlatform second(config, gatk::PipelineModel::PaperGatk(),
                                  0xD0, options);
  const runtime::RuntimeReport a = first.Serve();
  const runtime::RuntimeReport b = second.Serve();
  EXPECT_EQ(MetricsFingerprint::Of(a.metrics).digest,
            MetricsFingerprint::Of(b.metrics).digest);
  EXPECT_EQ(a.metrics.stage_schedule.size(), b.metrics.stage_schedule.size());
  EXPECT_EQ(a.stage_tasks_dispatched, b.stage_tasks_dispatched);
}

TEST(RuntimeDeterminism, DifferentSeedsDiverge) {
  core::SimulationConfig config = BaseConfig();
  runtime::RuntimePlatform first(config, gatk::PipelineModel::PaperGatk(),
                                 0xD1);
  runtime::RuntimePlatform second(config, gatk::PipelineModel::PaperGatk(),
                                  0xD2);
  const runtime::RuntimeReport a = first.Serve();
  const runtime::RuntimeReport b = second.Serve();
  EXPECT_NE(MetricsFingerprint::Of(a.metrics).digest,
            MetricsFingerprint::Of(b.metrics).digest);
}

TEST(RuntimeParity, ServeTwiceThrows) {
  runtime::RuntimePlatform platform(BaseConfig(),
                                    gatk::PipelineModel::PaperGatk(), 0xE0);
  (void)platform.Serve();
  EXPECT_THROW((void)platform.Serve(), std::logic_error);
}

}  // namespace
}  // namespace scan::testkit
