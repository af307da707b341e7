// The headline correctness claim of the live runtime: under the virtual
// clock with a pinned seed, RuntimePlatform completes the same job set
// with the same per-job stage schedule as the discrete-event Scheduler —
// bit for bit, across the scaling x allocation matrix, including failure
// injection and timeline sampling. Both are hosts of one mechanics core
// (core::Engine), so this checks the host seam: each terminal event gated
// on its assignment's completion ticket, the slice fan-out onto the real
// execution pool, and the shared calendar's event order.

#include "scan/testkit/parity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "scan/common/str.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/trace.hpp"
#include "scan/testkit/digest.hpp"
#include "scan/workload/trace.hpp"
#include "expect_rejected.hpp"

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
    [](const testing::TestParamInfo<ParityCase>& param_info) {
      return param_info.param.name;
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

TEST(RuntimeDeterminism, TracesOneTicketDeliveryPerClaimedTicket) {
  // Every terminal event claims its ticket, whether or not the ticket's
  // message was drained before the gate, so a trace records one delivery
  // per claim and two runs of one seed record the same deliveries.
  core::SimulationConfig config = BaseConfig();
  config.scaling = core::ScalingAlgorithm::kPredictive;
  runtime::RuntimeOptions options;
  options.exec_threads = 4;
  options.record_schedule = true;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const auto delivered_tickets = [&] {
    recorder.Clear();
    recorder.Enable();
    runtime::RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(),
                                      0xD3, options);
    const runtime::RuntimeReport report = platform.Serve();
    recorder.Disable();
    std::vector<std::uint64_t> tickets;
    for (const obs::TraceEvent& event : recorder.Collect()) {
      if (event.kind == obs::EventKind::kTicketDelivery) {
        tickets.push_back(event.a);
      }
    }
    recorder.Clear();
    // No faults: each assignment's terminal event is its completion at its
    // planned end, and the calendar runs every event up to the horizon.
    const auto claimed = std::count_if(
        report.metrics.stage_schedule.begin(),
        report.metrics.stage_schedule.end(),
        [&](const core::StageRecord& r) { return r.end <= config.duration; });
    EXPECT_EQ(tickets.size(), static_cast<std::size_t>(claimed));
    std::sort(tickets.begin(), tickets.end());
    EXPECT_EQ(std::adjacent_find(tickets.begin(), tickets.end()),
              tickets.end())
        << "a ticket delivered twice";
    return tickets;
  };
  const std::vector<std::uint64_t> first = delivered_tickets();
  const std::vector<std::uint64_t> second = delivered_tickets();
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, second);
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

class TicketBurst : public testing::TestWithParam<std::size_t> {};

TEST_P(TicketBurst, MoreTicketsThanTheRingHoldsStillMatchTheSimulator) {
  // 3,000 jobs arrive together and always-scale hires a worker for each,
  // so far more tickets are outstanding than the 1,024-message completion
  // ring holds: executors block on a full ring while the coordinator,
  // which also runs queued slices as it waits at each gate, must still
  // drain every message and replay the simulator's schedule.
  constexpr std::size_t kJobs = 3000;
  constexpr std::size_t kRingCapacity = 1024;
  core::SimulationConfig config = BaseConfig();
  config.scaling = core::ScalingAlgorithm::kAlwaysScale;
  runtime::RuntimeOptions options;
  options.exec_threads = GetParam();
  workload::JobTrace trace;
  for (std::uint64_t id = 0; id < kJobs; ++id) {
    trace.jobs.push_back(
        {id, DataSize{1.0 + static_cast<double>(id % 9)}, SimTime{1.0}});
  }
  options.trace = std::move(trace);

  const ParityResult result = CheckSimRuntimeParity(config, 0xB0B, options);
  EXPECT_TRUE(result.ok()) << result.Describe();
  EXPECT_EQ(result.job_records, kJobs);

  runtime::RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(),
                                    0xB0B, options);
  const runtime::RuntimeReport report = platform.Serve();
  EXPECT_GT(report.peak_tickets_outstanding, kRingCapacity);
  EXPECT_EQ(report.metrics.jobs_completed, kJobs);
}

INSTANTIATE_TEST_SUITE_P(ExecThreads, TicketBurst, testing::Values(1, 4),
                         [](const testing::TestParamInfo<std::size_t>& p) {
                           return "Threads" + std::to_string(p.param);
                         });

TEST(RuntimeParity, EngineHooksSeeTheSimulatorsEventsOnTheCoordinator) {
  // RuntimeOptions is a SchedulerOptions, so the engine's hooks reach the
  // live engine too: under the virtual clock the trace hook sees the
  // simulator's (time, sequence) stream, and both hooks run on the thread
  // that called Serve().
  core::SimulationConfig config = BaseConfig();
  config.scaling = core::ScalingAlgorithm::kPredictive;
  TraceDigest sim_events;
  core::SchedulerOptions sim_options;
  sim_events.Attach(sim_options);
  core::Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 0xE2,
                            sim_options);
  (void)scheduler.Run();

  TraceDigest live_events;
  runtime::RuntimeOptions options;
  options.exec_threads = 2;
  live_events.Attach(options);
  const std::thread::id coordinator = std::this_thread::get_id();
  std::uint64_t views = 0;
  bool off_coordinator = false;
  options.inspection_hook = [&](const core::SchedulerView&) {
    ++views;
    off_coordinator |= std::this_thread::get_id() != coordinator;
  };
  runtime::RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(),
                                    0xE2, options);
  (void)platform.Serve();

  EXPECT_GT(sim_events.events(), 0u);
  EXPECT_EQ(live_events.events(), sim_events.events());
  EXPECT_EQ(live_events.value(), sim_events.value());
  EXPECT_EQ(views, live_events.events());
  EXPECT_FALSE(off_coordinator);
}

TEST(RuntimeParity, EngineHooksLeaveTheLiveRunUnchanged) {
  // The hooks only observe: a live run with both attached produces the
  // metrics of the same run without them.
  const core::SimulationConfig config = BaseConfig();
  runtime::RuntimeOptions plain;
  plain.exec_threads = 2;
  runtime::RuntimeOptions hooked = plain;
  TraceDigest events;
  events.Attach(hooked);
  std::uint64_t views = 0;
  hooked.inspection_hook = [&views](const core::SchedulerView&) { ++views; };
  runtime::RuntimePlatform bare(config, gatk::PipelineModel::PaperGatk(),
                                0xE3, plain);
  runtime::RuntimePlatform watched(config, gatk::PipelineModel::PaperGatk(),
                                   0xE3, hooked);
  const runtime::RuntimeReport a = bare.Serve();
  const runtime::RuntimeReport b = watched.Serve();
  EXPECT_GT(views, 0u);
  EXPECT_EQ(views, events.events());
  EXPECT_EQ(MetricsFingerprint::Of(a.metrics).digest,
            MetricsFingerprint::Of(b.metrics).digest);
  EXPECT_EQ(a.stage_tasks_dispatched, b.stage_tasks_dispatched);
}

TEST(RuntimeParity, ServeTwiceThrows) {
  runtime::RuntimePlatform platform(BaseConfig(),
                                    gatk::PipelineModel::PaperGatk(), 0xE0);
  (void)platform.Serve();
  EXPECT_THROW((void)platform.Serve(), std::logic_error);
}

TEST(RuntimeParity, ForcedPlanMustUseOfferedInstanceSizes) {
  // The live host shares the engine's plan check: a 3-thread stage is
  // rejected up front instead of stalling the run on a hire the cloud
  // refuses.
  runtime::RuntimeOptions options;
  options.forced_plan = core::ThreadPlan(7, 4);
  (*options.forced_plan)[2] = 3;
  try {
    runtime::RuntimePlatform platform(
        BaseConfig(), gatk::PipelineModel::PaperGatk(), 0xE1, options);
    FAIL() << "a 3-thread stage was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage 2"), std::string::npos) << what;
    EXPECT_NE(what.find("3 threads"), std::string::npos) << what;
  }
}

class WallScaleRejection : public testing::TestWithParam<double> {};

TEST_P(WallScaleRejection, ConstructorRejectsIt) {
  // A wall-clock TU scale that is not finite and > 0 puts the serving
  // loop's deadlines in the past (or nowhere): it would spin, or end at
  // once with nothing served.
  runtime::RuntimeOptions options;
  options.clock = runtime::ClockMode::kWall;
  options.wall_seconds_per_tu = GetParam();
  const auto build = [&] {
    runtime::RuntimePlatform platform(
        BaseConfig(), gatk::PipelineModel::PaperGatk(), 0xE4, options);
  };
  EXPECT_THROW(build(), std::invalid_argument);
  const std::string value = StrFormat("%g", GetParam());
  ExpectRejected(build, {"wall_seconds_per_tu", value.c_str()});
}

INSTANTIATE_TEST_SUITE_P(
    Scales, WallScaleRejection,
    testing::Values(-0.001, 0.0, std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity()),
    [](const testing::TestParamInfo<double>& param_info) {
      const double scale = param_info.param;
      if (std::isnan(scale)) return std::string("NaN");
      if (std::isinf(scale)) return std::string("Infinity");
      return std::string(scale < 0.0 ? "Negative" : "Zero");
    });

}  // namespace
}  // namespace scan::testkit
