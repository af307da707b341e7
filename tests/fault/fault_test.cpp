// Unit coverage for the fault primitives: retry/backoff policy, the
// closed-form expected-rework factor, the worker health tracker (circuit
// breaker), and the deterministic fault injector.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "expect_rejected.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/fault/fault_config.hpp"
#include "scan/fault/health.hpp"
#include "scan/fault/injector.hpp"
#include "scan/fault/retry.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/runtime/runtime_platform.hpp"

namespace scan::fault {
namespace {

TEST(ExpectedReworkTest, ExactlyOneWithoutCrashes) {
  // Bit-exact 1.0, not merely close: the pricing path multiplies by this
  // factor only when it differs from 1.0, preserving legacy arithmetic.
  EXPECT_EQ(ExpectedReworkFactor(0.0, 5.0, 0.0), 1.0);
  EXPECT_EQ(ExpectedReworkFactor(-1.0, 5.0, 0.0), 1.0);
  EXPECT_EQ(ExpectedReworkFactor(0.05, 0.0, 0.0), 1.0);
}

TEST(ExpectedReworkTest, MatchesClosedFormAndGrowsWithRate) {
  // E[total work] for exponential crashes at rate r over an execution of
  // length c (restart from scratch) is (e^{rc} - 1) / r; per unit of
  // useful work that is expm1(rc)/(rc).
  const double rate = 0.1;
  const double exec = 4.0;
  const double factor = ExpectedReworkFactor(rate, exec, 0.0);
  EXPECT_NEAR(factor, std::expm1(rate * exec) / (rate * exec), 1e-12);
  EXPECT_GT(factor, 1.0);
  EXPECT_GT(ExpectedReworkFactor(0.2, exec, 0.0), factor);
  EXPECT_GT(ExpectedReworkFactor(rate, 8.0, 0.0), factor);
}

TEST(ExpectedReworkTest, CheckpointingShrinksTheFactor) {
  // With checkpoints every 0.5 TU only the last segment is at risk, so
  // the factor is the segment-sized one — strictly cheaper than paying
  // full-restart risk over the whole execution.
  const double full = ExpectedReworkFactor(0.1, 6.0, 0.0);
  const double segmented = ExpectedReworkFactor(0.1, 6.0, 0.5);
  EXPECT_LT(segmented, full);
  EXPECT_NEAR(segmented, ExpectedReworkFactor(0.1, 0.5, 0.0), 1e-15);
  // A checkpoint interval longer than the execution clamps to exec.
  EXPECT_EQ(ExpectedReworkFactor(0.1, 2.0, 50.0),
            ExpectedReworkFactor(0.1, 2.0, 0.0));
}

TEST(RetryPolicyTest, UnlimitedBudgetNeverExhausts) {
  FaultConfig config;  // max_retries_per_job = -1
  const RetryPolicy policy(config);
  EXPECT_FALSE(policy.Exhausted(0));
  EXPECT_FALSE(policy.Exhausted(1000));
}

TEST(RetryPolicyTest, BudgetExhaustsStrictlyAboveMax) {
  FaultConfig config;
  config.max_retries_per_job = 2;
  const RetryPolicy policy(config);
  EXPECT_FALSE(policy.Exhausted(0));
  EXPECT_FALSE(policy.Exhausted(2));
  EXPECT_TRUE(policy.Exhausted(3));
}

TEST(RetryPolicyTest, BackoffDoublesUpToCap) {
  FaultConfig config;
  config.backoff_base = SimTime{0.25};
  config.backoff_multiplier = 2.0;
  config.backoff_cap = SimTime{1.0};
  const RetryPolicy policy(config);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(0).value(), 0.25);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(1).value(), 0.5);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(2).value(), 1.0);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(3).value(), 1.0);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffFor(50).value(), 1.0);
}

TEST(RetryPolicyTest, ZeroBaseMeansImmediateRetry) {
  FaultConfig config;  // backoff_base = 0
  const RetryPolicy policy(config);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(0).value(), 0.0);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(7).value(), 0.0);
}

TEST(HealthTrackerTest, DisabledThresholdAllowsEveryone) {
  WorkerHealthTracker tracker(0, SimTime{10.0});
  EXPECT_TRUE(tracker.Allows(1, SimTime{0.0}));
  EXPECT_FALSE(tracker.RecordFlap(1, SimTime{0.0}));
  EXPECT_TRUE(tracker.Allows(1, SimTime{0.0}));
}

TEST(HealthTrackerTest, OpensAtThresholdAndCoolsDown) {
  WorkerHealthTracker tracker(2, SimTime{10.0});
  EXPECT_FALSE(tracker.RecordFlap(7, SimTime{1.0}));  // 1 of 2
  EXPECT_TRUE(tracker.Allows(7, SimTime{1.0}));
  EXPECT_TRUE(tracker.RecordFlap(7, SimTime{2.0}));  // opens
  EXPECT_FALSE(tracker.Allows(7, SimTime{5.0}));
  EXPECT_FALSE(tracker.Allows(7, SimTime{11.9}));
  EXPECT_TRUE(tracker.Allows(7, SimTime{12.0}));  // cooldown elapsed
}

TEST(HealthTrackerTest, OneFlapAfterCooldownReopens) {
  WorkerHealthTracker tracker(3, SimTime{5.0});
  EXPECT_FALSE(tracker.RecordFlap(7, SimTime{0.0}));
  EXPECT_FALSE(tracker.RecordFlap(7, SimTime{0.5}));
  EXPECT_TRUE(tracker.RecordFlap(7, SimTime{1.0}));  // opens until 6.0
  EXPECT_TRUE(tracker.Allows(7, SimTime{6.0}));
  // A half-open worker that flaps again goes straight back to open.
  EXPECT_TRUE(tracker.RecordFlap(7, SimTime{6.5}));
  EXPECT_FALSE(tracker.Allows(7, SimTime{7.0}));
}

TEST(HealthTrackerTest, SuccessAndForgetClearHistory) {
  WorkerHealthTracker tracker(2, SimTime{5.0});
  EXPECT_FALSE(tracker.RecordFlap(7, SimTime{0.0}));
  tracker.RecordSuccess(7);
  EXPECT_FALSE(tracker.RecordFlap(7, SimTime{1.0}));  // count restarted
  tracker.Forget(7);
  EXPECT_FALSE(tracker.RecordFlap(7, SimTime{2.0}));
  EXPECT_TRUE(tracker.RecordFlap(7, SimTime{3.0}));  // 2 of 2 since Forget
}

TEST(FaultInjectorTest, NoRatesMeansNoFaults) {
  FaultConfig config;  // straggle/flap off
  FaultInjector injector(42, 0.0, config);
  const FaultDecision fate = injector.Draw(SimTime{1.0}, SimTime{5.0});
  EXPECT_FALSE(fate.crash_at.has_value());
  EXPECT_FALSE(fate.flap_at.has_value());
  EXPECT_FALSE(fate.straggles());
  EXPECT_DOUBLE_EQ(fate.actual_end.value(), 5.0);
}

TEST(FaultInjectorTest, SameSeedSameFaultSchedule) {
  FaultConfig config;
  config.straggle_rate = 0.5;
  config.straggle_factor = 3.0;
  config.flap_rate = 0.05;
  FaultInjector a(99, 0.1, config);
  FaultInjector b(99, 0.1, config);
  for (int i = 0; i < 200; ++i) {
    const SimTime start{static_cast<double>(i)};
    const SimTime end{static_cast<double>(i) + 2.5};
    const FaultDecision fa = a.Draw(start, end);
    const FaultDecision fb = b.Draw(start, end);
    EXPECT_EQ(fa.crash_at.has_value(), fb.crash_at.has_value());
    if (fa.crash_at && fb.crash_at) {
      EXPECT_DOUBLE_EQ(fa.crash_at->value(), fb.crash_at->value());
    }
    EXPECT_EQ(fa.flap_at.has_value(), fb.flap_at.has_value());
    EXPECT_DOUBLE_EQ(fa.actual_end.value(), fb.actual_end.value());
    EXPECT_DOUBLE_EQ(fa.straggle_factor, fb.straggle_factor);
  }
}

TEST(FaultInjectorTest, StraggleExtendsActualEnd) {
  FaultConfig config;
  config.straggle_rate = 1.0;  // always straggle
  config.straggle_factor = 3.0;
  FaultInjector injector(7, 0.0, config);
  const FaultDecision fate = injector.Draw(SimTime{0.0}, SimTime{2.0});
  EXPECT_TRUE(fate.straggles());
  EXPECT_GT(fate.straggle_factor, 1.0);
  EXPECT_DOUBLE_EQ(fate.actual_end.value(), 2.0 * fate.straggle_factor);
}

TEST(FaultInjectorTest, FaultsLandInsideTheExecutionWindow) {
  FaultConfig config;
  config.straggle_rate = 0.3;
  config.straggle_factor = 2.5;
  config.flap_rate = 0.2;
  FaultInjector injector(3, 0.3, config);
  int crashes = 0;
  int flaps = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime start{static_cast<double>(i) * 0.1};
    const SimTime planned = start + SimTime{1.5};
    const FaultDecision fate = injector.Draw(start, planned);
    // At most one terminal fault per assignment.
    EXPECT_FALSE(fate.crash_at.has_value() && fate.flap_at.has_value());
    if (fate.crash_at) {
      ++crashes;
      EXPECT_GT(fate.crash_at->value(), start.value());
      EXPECT_LT(fate.crash_at->value(), fate.actual_end.value());
    }
    if (fate.flap_at) {
      ++flaps;
      EXPECT_GT(fate.flap_at->value(), start.value());
      EXPECT_LT(fate.flap_at->value(), fate.actual_end.value());
    }
    EXPECT_GE(fate.actual_end.value(), planned.value());
  }
  EXPECT_GT(crashes, 0);
  EXPECT_GT(flaps, 0);
}

// ---- Fault rates are checked before a run starts ---------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultInjectorTest, RejectsACrashRateThatIsNotFiniteAndNonNegative) {
  // Unchecked, NaN and -0.5 run as a reliable cloud and +inf fails mid-run
  // in RandomStream::Exponential.
  for (const double rate : {kNaN, -0.5, kInf}) {
    ExpectRejected([&] { FaultInjector(1, rate, FaultConfig{}); },
                   {"FaultInjector", "worker_failure_rate"});
  }
}

TEST(FaultInjectorTest, RejectsAFlapRateThatIsNotFiniteAndNonNegative) {
  for (const double rate : {kNaN, -0.5, kInf}) {
    FaultConfig config;
    config.flap_rate = rate;
    ExpectRejected([&] { FaultInjector(1, 0.0, config); },
                   {"FaultInjector", "fault.flap_rate"});
  }
}

TEST(FaultInjectorTest, RejectsAStraggleRateOutsideZeroToOne) {
  for (const double rate : {kNaN, -0.1, 1.5, kInf}) {
    FaultConfig config;
    config.straggle_rate = rate;
    ExpectRejected([&] { FaultInjector(1, 0.0, config); },
                   {"FaultInjector", "fault.straggle_rate"});
  }
}

TEST(FaultInjectorTest, RejectsAStraggleFactorThatIsNotFinite) {
  for (const double factor : {kNaN, kInf, -kInf}) {
    FaultConfig config;
    config.straggle_rate = 0.5;
    config.straggle_factor = factor;
    ExpectRejected([&] { FaultInjector(1, 0.0, config); },
                   {"FaultInjector", "fault.straggle_factor"});
  }
}

TEST(FaultInjectorTest, AcceptsTheEdgesOfEveryRange) {
  FaultConfig config;
  config.straggle_rate = 1.0;
  config.straggle_factor = 0.5;  // below 1 is treated as 1
  config.flap_rate = 0.0;
  FaultInjector injector(1, 0.0, config);
  EXPECT_DOUBLE_EQ(injector.Draw(SimTime{0.0}, SimTime{2.0}).actual_end.value(),
                   2.0);
}

TEST(FaultInjectorTest, BothHostsRejectABadRateBeforeTheRun) {
  core::SimulationConfig config;
  config.duration = SimTime{50.0};
  config.worker_failure_rate = kNaN;
  ExpectRejected(
      [&] {
        core::Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 1);
      },
      {"worker_failure_rate"});
  ExpectRejected(
      [&] {
        runtime::RuntimePlatform platform(
            config, gatk::PipelineModel::PaperGatk(), 1);
      },
      {"worker_failure_rate"});
}

}  // namespace
}  // namespace scan::fault
