// Horizon-boundary audit of the arrival generators and both engines'
// ingest paths. The contract everywhere: a batch at exactly the horizon
// is kept (<=), the straddling batch beyond it is dropped, and the lazy
// streaming path (NextBatch pulled one at a time) sees the identical
// batch sequence as the eager path (GenerateUntil). A streaming
// IngestSource that breaks its own contract (an instant in the past, or
// NaN) fails the run loudly instead of warping the clock, and so does a
// second live job under one id (on both engines) instead of vanishing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "scan/core/scheduler.hpp"
#include "scan/runtime/runtime_platform.hpp"
#include "scan/workload/arrivals.hpp"
#include "scan/workload/trace.hpp"

namespace scan::workload {
namespace {

void ExpectBatchesEqual(const std::vector<ArrivalBatch>& eager,
                        const std::vector<ArrivalBatch>& lazy) {
  ASSERT_EQ(eager.size(), lazy.size());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    EXPECT_EQ(eager[i].time.value(), lazy[i].time.value()) << "batch " << i;
    ASSERT_EQ(eager[i].jobs.size(), lazy[i].jobs.size()) << "batch " << i;
    for (std::size_t j = 0; j < eager[i].jobs.size(); ++j) {
      EXPECT_EQ(eager[i].jobs[j].id, lazy[i].jobs[j].id);
      EXPECT_EQ(eager[i].jobs[j].size.value(), lazy[i].jobs[j].size.value());
      EXPECT_EQ(eager[i].jobs[j].arrival.value(),
                lazy[i].jobs[j].arrival.value());
    }
  }
}

TEST(ArrivalBoundaryTest, LazyPullMatchesEagerGenerateUntil) {
  const ArrivalParams params;
  const SimTime horizon{500.0};

  ArrivalGenerator eager_gen(params, 1234);
  const std::vector<ArrivalBatch> eager = eager_gen.GenerateUntil(horizon);
  ASSERT_FALSE(eager.empty());

  // The streaming ingest path: pull batches one at a time from a fresh
  // same-seed generator, keeping those <= horizon, stopping at the first
  // beyond it — exactly what the engines' arrival pump does.
  ArrivalGenerator lazy_gen(params, 1234);
  std::vector<ArrivalBatch> lazy;
  for (;;) {
    ArrivalBatch batch = lazy_gen.NextBatch();
    if (batch.time > horizon) break;
    lazy.push_back(std::move(batch));
  }
  ExpectBatchesEqual(eager, lazy);
}

TEST(ArrivalBoundaryTest, BatchExactlyAtHorizonIsKeptOnBothPaths) {
  const ArrivalParams params;

  // Find the 10th batch's time with a scout generator, then use that exact
  // instant as the horizon: both paths must include it as the last batch.
  ArrivalGenerator scout(params, 77);
  SimTime exact{0.0};
  for (int i = 0; i < 10; ++i) exact = scout.NextBatch().time;

  ArrivalGenerator eager_gen(params, 77);
  const std::vector<ArrivalBatch> eager = eager_gen.GenerateUntil(exact);
  ASSERT_EQ(eager.size(), 10u);
  EXPECT_EQ(eager.back().time.value(), exact.value());

  ArrivalGenerator lazy_gen(params, 77);
  std::vector<ArrivalBatch> lazy;
  for (;;) {
    ArrivalBatch batch = lazy_gen.NextBatch();
    if (batch.time > exact) break;
    lazy.push_back(std::move(batch));
  }
  ExpectBatchesEqual(eager, lazy);
}

TEST(ArrivalBoundaryTest, PatternedLazyPullMatchesEagerAcrossPatterns) {
  const ArrivalParams params;
  const SimTime horizon{400.0};
  for (const ArrivalPattern p :
       {ArrivalPattern::kHomogeneous, ArrivalPattern::kDiurnal,
        ArrivalPattern::kBursty, ArrivalPattern::kFlashCrowd}) {
    PatternParams pattern;
    pattern.pattern = p;

    PatternedArrivalGenerator eager_gen(params, pattern, 909);
    const std::vector<ArrivalBatch> eager = eager_gen.GenerateUntil(horizon);
    ASSERT_FALSE(eager.empty());
    EXPECT_LE(eager.back().time.value(), horizon.value());

    PatternedArrivalGenerator lazy_gen(params, pattern, 909);
    std::vector<ArrivalBatch> lazy;
    for (;;) {
      ArrivalBatch batch = lazy_gen.NextBatch();
      if (batch.time > horizon) break;
      lazy.push_back(std::move(batch));
    }
    ExpectBatchesEqual(eager, lazy);
  }
}

TEST(ArrivalBoundaryTest, BurstyLazySegmentsIndependentOfQueryOrder) {
  // The bursty pattern extends its ON/OFF segment sequence lazily from a
  // dedicated stream; probing the rate far ahead must not perturb the
  // batch sequence an identically-seeded generator produces.
  const ArrivalParams params;
  PatternParams pattern;
  pattern.pattern = ArrivalPattern::kBursty;

  PatternedArrivalGenerator plain(params, pattern, 4242);
  const std::vector<ArrivalBatch> baseline =
      plain.GenerateUntil(SimTime{300.0});

  PatternedArrivalGenerator probed(params, pattern, 4242);
  (void)probed.RateFactorAt(950.0);  // force far-ahead segment extension
  (void)probed.RateFactorAt(10.0);
  const std::vector<ArrivalBatch> after_probe =
      probed.GenerateUntil(SimTime{300.0});
  ExpectBatchesEqual(baseline, after_probe);
}

JobTrace BoundaryTrace(double duration) {
  // One early job, one at exactly the horizon, one beyond it.
  JobTrace trace;
  trace.jobs.push_back(Job{0, DataSize{4.0}, SimTime{1.0}});
  trace.jobs.push_back(Job{1, DataSize{5.0}, SimTime{duration}});
  trace.jobs.push_back(Job{2, DataSize{6.0}, SimTime{duration + 0.5}});
  return trace;
}

TEST(ArrivalBoundaryTest, EnginesCountJobExactlyAtDurationIdentically) {
  core::SimulationConfig config;
  config.duration = SimTime{50.0};

  core::SchedulerOptions sim_options;
  sim_options.trace = BoundaryTrace(config.duration.value());
  core::Scheduler sim(config, gatk::PipelineModel::PaperGatk(), 5,
                      sim_options);
  const core::RunMetrics sim_metrics = sim.Run();
  // The job at exactly t == duration arrived; the one beyond did not.
  EXPECT_EQ(sim_metrics.jobs_arrived, 2u);

  runtime::RuntimeOptions run_options;
  run_options.trace = BoundaryTrace(config.duration.value());
  runtime::RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(),
                                    5, run_options);
  const runtime::RuntimeReport report = platform.Serve();
  EXPECT_EQ(report.metrics.jobs_arrived, 2u);
  EXPECT_EQ(report.metrics.jobs_arrived, sim_metrics.jobs_arrived);
}

TEST(ArrivalBoundaryTest, SyntheticEnginesAgreeOnArrivalCountAtHorizon) {
  // Synthetic path through both engines: the streaming pump must admit
  // exactly the eager GenerateUntil job count — including any batch that
  // lands on the horizon.
  core::SimulationConfig config;
  config.duration = SimTime{120.0};

  ArrivalGenerator reference(config.MakeArrivalParams(), 7);
  std::size_t expected_jobs = 0;
  for (const ArrivalBatch& b : reference.GenerateUntil(config.duration)) {
    expected_jobs += b.jobs.size();
  }

  core::Scheduler sim(config, gatk::PipelineModel::PaperGatk(), 7);
  EXPECT_EQ(sim.Run().jobs_arrived, expected_jobs);

  runtime::RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(),
                                    7);
  EXPECT_EQ(platform.Serve().metrics.jobs_arrived, expected_jobs);
}

/// Answers NextEventTime() from a script and injects one job per pull.
class ScriptedSource final : public runtime::IngestSource {
 public:
  explicit ScriptedSource(std::vector<double> times)
      : times_(std::move(times)) {}

  std::optional<SimTime> NextEventTime() override {
    if (pulled_ >= times_.size()) return std::nullopt;
    return SimTime{times_[pulled_]};
  }
  std::vector<Job> PullDue(SimTime now) override {
    ++pulled_;
    return {Job{pulled_, DataSize{4.0}, now}};
  }
  std::vector<Job> OnJobOutcome(const runtime::JobOutcome&) override {
    return {};
  }

 private:
  std::vector<double> times_;
  std::uint64_t pulled_ = 0;
};

/// Serves `source` and returns the error the run raised ("" if none).
std::string ServeError(runtime::IngestSource& source) {
  core::SimulationConfig config;
  config.duration = SimTime{100.0};
  runtime::RuntimeOptions options;
  options.exec_threads = 2;
  options.ingest = &source;
  runtime::RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(),
                                    3, options);
  try {
    (void)platform.Serve();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ArrivalBoundaryTest, IngestInstantInThePastFailsLoudly) {
  // Jobs pulled at 10 and 20 are executing when the source answers 5:
  // the run must throw (not run the clock backwards) and Serve() must
  // unwind past those in-flight tickets without hanging.
  ScriptedSource source({10.0, 20.0, 5.0, 30.0});
  const std::string error = ServeError(source);
  EXPECT_NE(error.find("IngestSource"), std::string::npos) << error;
  EXPECT_NE(error.find("NextEventTime() returned 5 at time 20"),
            std::string::npos)
      << error;
}

TEST(ArrivalBoundaryTest, IngestNaNInstantFailsLoudly) {
  ScriptedSource source({10.0, std::numeric_limits<double>::quiet_NaN()});
  const std::string error = ServeError(source);
  EXPECT_NE(error.find("IngestSource"), std::string::npos) << error;
  EXPECT_NE(error.find("returned nan"), std::string::npos) << error;
}

/// Injects two jobs under one id at t = 1, then nothing.
class DuplicateIdSource final : public runtime::IngestSource {
 public:
  std::optional<SimTime> NextEventTime() override {
    if (pulled_) return std::nullopt;
    return SimTime{1.0};
  }
  std::vector<Job> PullDue(SimTime now) override {
    pulled_ = true;
    return {Job{7, DataSize{4.0}, now}, Job{7, DataSize{3.0}, now}};
  }
  std::vector<Job> OnJobOutcome(const runtime::JobOutcome&) override {
    return {};
  }

 private:
  bool pulled_ = false;
};

TEST(ArrivalBoundaryTest, DuplicateLiveJobIdFailsLoudly) {
  // Two live jobs under one id used to share one book entry: the second
  // was merged into the first (2 arrived, 1 completed, 1 outcome, a
  // speculative_wasted for a run without speculation). Both hosts reject
  // the second job instead, naming the id and the time.
  DuplicateIdSource source;
  const std::string error = ServeError(source);
  EXPECT_NE(error.find("job id 7 admitted at time 1 "), std::string::npos)
      << error;
  EXPECT_NE(error.find("still live"), std::string::npos) << error;

  core::SimulationConfig config;
  config.duration = SimTime{100.0};
  core::SchedulerOptions options;
  JobTrace trace;
  trace.jobs = {Job{7, DataSize{4.0}, SimTime{2.0}},
                Job{7, DataSize{3.0}, SimTime{2.0}}};
  options.trace = trace;
  core::Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 3,
                            options);
  try {
    (void)scheduler.Run();
    ADD_FAILURE() << "the simulator accepted a duplicate live job id";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("job id 7 admitted at time 2 "),
              std::string::npos)
        << e.what();
  }
}

TEST(ArrivalBoundaryTest, JobIdMayReturnOnceItsJobRetired) {
  // Ids must be unique among live jobs only: once job 7 has completed, a
  // new job 7 is a new job.
  core::SimulationConfig config;
  config.duration = SimTime{1000.0};
  core::SchedulerOptions options;
  JobTrace trace;
  trace.jobs = {Job{7, DataSize{4.0}, SimTime{1.0}},
                Job{7, DataSize{3.0}, SimTime{500.0}}};
  options.trace = trace;
  core::Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 3,
                            options);
  const core::RunMetrics metrics = scheduler.Run();
  EXPECT_EQ(metrics.jobs_arrived, 2u);
  EXPECT_EQ(metrics.jobs_completed, 2u);
}

}  // namespace
}  // namespace scan::workload
