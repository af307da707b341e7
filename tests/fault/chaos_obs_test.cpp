// Observability of fault recovery: injected crashes, checkpoints, retries,
// backoffs, speculation and breaker trips must be visible in the event
// trace, the decision audit (expected-rework pricing), and the Prometheus
// counters, which the engine publishes from its RunMetrics. This binary
// owns the process-global trace/audit/metrics state (quiescence contract:
// enable/disable only between runs), so it lives apart from the
// pure-computation chaos tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scan/core/scheduler.hpp"
#include "scan/obs/audit.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/trace.hpp"
#include "scan/runtime/runtime_platform.hpp"
#include "scan/testkit/chaos.hpp"
#include "scan/testkit/golden.hpp"

namespace scan::testkit {
namespace {

/// Enables trace + audit + metrics around a test; restores quiescence.
class ChaosObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::Global().Enable();
    obs::DecisionAudit::Global().Clear();
    obs::DecisionAudit::Global().Enable();
    obs::MetricsRegistry::Global().ResetAll();
    obs::EnableMetrics();
  }
  void TearDown() override {
    obs::DisableMetrics();
    obs::DecisionAudit::Global().Disable();
    obs::DecisionAudit::Global().Clear();
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().Clear();
  }

  static std::size_t CountKind(const std::vector<obs::TraceEvent>& events,
                               obs::EventKind kind) {
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(),
                      [kind](const obs::TraceEvent& e) {
                        return e.kind == kind;
                      }));
  }

  /// Registry instruments by exposition name (registered by the engine).
  static std::uint64_t CounterValue(const char* name) {
    return obs::MetricsRegistry::Global().GetCounter(name, "").value();
  }
  static double GaugeValue(const char* name) {
    return obs::MetricsRegistry::Global().GetGauge(name, "").value();
  }

  static ChaosSpec FindSpec(const std::string& name) {
    for (ChaosSpec& spec : ChaosScenarios()) {
      if (spec.name == name) return std::move(spec);
    }
    ADD_FAILURE() << "no chaos preset named " << name;
    return {};
  }
};

TEST_F(ChaosObsTest, CrashRecoveryShowsInTraceAndAudit) {
  const ChaosSpec spec = FindSpec("crash-checkpoint");
  const InstrumentedRun run = RunInstrumented(spec.config, 11);
  ASSERT_GT(run.metrics.worker_failures, 0u);

  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Collect();
  EXPECT_GT(CountKind(events, obs::EventKind::kWorkerFailure), 0u);
  EXPECT_GT(CountKind(events, obs::EventKind::kTaskRetry), 0u);
  EXPECT_GT(CountKind(events, obs::EventKind::kCheckpoint), 0u);
  EXPECT_GT(CountKind(events, obs::EventKind::kRetryBackoff), 0u);

  // The decision audit must price the crash risk: any predictive public
  // hire evaluated under a crash rate carries rework_factor > 1.
  bool saw_priced_decision = false;
  for (const obs::HireDecisionRecord& hire :
       obs::DecisionAudit::Global().hires()) {
    EXPECT_GE(hire.rework_factor, 1.0);
    if (hire.rework_factor > 1.0) saw_priced_decision = true;
  }
  EXPECT_TRUE(saw_priced_decision)
      << "no hire decision carried an expected-rework factor above 1";
}

TEST_F(ChaosObsTest, SpeculationAndStragglesShowInTrace) {
  const ChaosSpec spec = FindSpec("straggle-speculate");
  const InstrumentedRun run = RunInstrumented(spec.config, 11);
  ASSERT_GT(run.metrics.straggles_injected, 0u);
  ASSERT_GT(run.metrics.speculative_launches, 0u);

  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Collect();
  EXPECT_GT(CountKind(events, obs::EventKind::kStraggle), 0u);
  EXPECT_GT(CountKind(events, obs::EventKind::kSpeculativeLaunch), 0u);
  EXPECT_EQ(CountKind(events, obs::EventKind::kSpeculativeLaunch),
            run.metrics.speculative_launches);
  EXPECT_EQ(CountKind(events, obs::EventKind::kSpeculativeWasted),
            run.metrics.speculative_wasted);
}

TEST_F(ChaosObsTest, BreakerTripsShowInTraceAndCounters) {
  const ChaosSpec spec = FindSpec("flap-breaker");
  const InstrumentedRun run = RunInstrumented(spec.config, 11);
  ASSERT_GT(run.metrics.worker_flaps, 0u);
  ASSERT_GT(run.metrics.breaker_opens, 0u);

  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Collect();
  EXPECT_EQ(CountKind(events, obs::EventKind::kWorkerFlap),
            run.metrics.worker_flaps);
  EXPECT_EQ(CountKind(events, obs::EventKind::kBreakerOpen),
            run.metrics.breaker_opens);

  // The Prometheus counters carry the run metrics (SetUp reset the
  // registry; the engine registered them under these names).
  EXPECT_EQ(CounterValue("scan_worker_flaps_total"), run.metrics.worker_flaps);
  EXPECT_EQ(CounterValue("scan_breaker_opens_total"),
            run.metrics.breaker_opens);
}

/// Every platform counter equals its RunMetrics field, and the two gauges
/// equal the queue and worker levels of a timeline sample at the horizon,
/// for each preset on the simulator and on the threaded runtime.
TEST_F(ChaosObsTest, CountersAndGaugesEqualRunMetricsOnBothHosts) {
  std::size_t busy_at_horizon = 0;  // the gauge check must not be vacuous
  for (const ChaosSpec& spec : ChaosScenarios()) {
    const gatk::PipelineModel model =
        spec.model.value_or(gatk::PipelineModel::PaperGatk());
    const SimTime horizon = spec.config.duration;
    for (const bool runtime_host : {false, true}) {
      SCOPED_TRACE(spec.name + (runtime_host ? " on the runtime"
                                             : " on the simulator"));
      obs::MetricsRegistry::Global().ResetAll();
      core::RunMetrics metrics;
      if (runtime_host) {
        runtime::RuntimeOptions options;
        options.exec_threads = 2;
        options.timeline_sample_period = horizon;
        runtime::RuntimePlatform platform(spec.config, model, 11, options);
        metrics = platform.Serve().metrics;
      } else {
        core::SchedulerOptions options;
        options.timeline_sample_period = horizon;
        core::Scheduler scheduler(spec.config, model, 11, options);
        metrics = scheduler.Run();
      }
      for (const core::RunCounter& counter : core::kRunCounters) {
        EXPECT_EQ(CounterValue(counter.name), metrics.*counter.field)
            << counter.name;
      }
      ASSERT_FALSE(metrics.timeline.empty());
      const core::TimelinePoint& last = metrics.timeline.back();
      ASSERT_EQ(last.time.value(), horizon.value());
      EXPECT_EQ(GaugeValue("scan_queued_jobs"),
                static_cast<double>(last.queued_jobs));
      EXPECT_EQ(GaugeValue("scan_busy_workers"),
                static_cast<double>(last.busy_workers));
      busy_at_horizon += last.busy_workers;
    }
  }
  EXPECT_GT(busy_at_horizon, 0u);
}

TEST_F(ChaosObsTest, NewEventKindNamesAreStable) {
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kStraggle), "straggle");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kWorkerFlap),
               "worker-flap");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kBreakerOpen),
               "breaker-open");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kCheckpoint),
               "checkpoint");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kRetryBackoff),
               "retry-backoff");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kSpeculativeLaunch),
               "speculative-launch");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kSpeculativeWasted),
               "speculative-wasted");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kJobAbandoned),
               "job-abandoned");
}

}  // namespace
}  // namespace scan::testkit
