// The causal span graph's headline guarantee: per-job critical paths are
// *exact* — the queued/boot/run segments of the reconstructed hops
// telescope to the job's recorded latency, across retries, backoff,
// speculation, and DAG dependency chains, because every boundary is a
// recorded event instant. These tests drive real (chaos-injected)
// scheduler runs and assert that law for every completed job, plus the
// Perfetto flow-arrow export that visualizes the same edges.

#include "scan/obs/span_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"

namespace scan::obs {
namespace {

class SpanGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }

  /// Runs a traced simulation and returns (metrics, collected events).
  core::RunMetrics TracedRun(const core::SimulationConfig& config,
                             std::uint64_t seed) {
    TraceRecorder::Global().Enable();
    core::Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), seed);
    core::RunMetrics metrics = scheduler.Run();
    TraceRecorder::Global().Disable();
    return metrics;
  }
};

core::SimulationConfig CalmConfig() {
  core::SimulationConfig config;
  config.duration = SimTime{400.0};
  config.scaling = core::ScalingAlgorithm::kPredictive;
  return config;
}

/// Crashes + straggles + flaps + checkpoints + backoff + speculation all
/// on: every span-threading code path in the emission table fires.
core::SimulationConfig ChaosConfig() {
  core::SimulationConfig config = CalmConfig();
  config.worker_failure_rate = 0.004;
  config.fault.straggle_rate = 0.08;
  config.fault.straggle_factor = 3.0;
  config.fault.flap_rate = 0.004;
  config.fault.checkpoint_interval = SimTime{2.0};
  config.fault.max_retries_per_job = 4;
  config.fault.backoff_base = SimTime{0.5};
  config.fault.speculation_slowdown = 2.0;
  return config;
}

/// The telescoping law, checked exactly (tolerance only for the float
/// additions themselves).
void ExpectPathsExact(const SpanGraph& graph) {
  ASSERT_FALSE(graph.jobs().empty());
  for (const JobCriticalPath& path : graph.jobs()) {
    ASSERT_TRUE(path.complete_chain) << "job " << path.job_id;
    ASSERT_FALSE(path.hops.empty()) << "job " << path.job_id;
    const double sum = path.total_queued_tu() + path.total_boot_tu() +
                       path.total_run_tu();
    const double tol = 1e-9 * std::max(1.0, std::fabs(path.latency_tu));
    EXPECT_NEAR(sum, path.latency_tu, tol)
        << "job " << path.job_id << ": " << path.hops.size()
        << " hops do not telescope";
    // The chain starts at arrival and ends at completion.
    EXPECT_DOUBLE_EQ(path.hops.front().enqueue_tu, path.arrival_tu)
        << "job " << path.job_id;
    EXPECT_DOUBLE_EQ(path.hops.back().end_tu, path.complete_tu)
        << "job " << path.job_id;
    // Hops are causally ordered and every segment is non-negative.
    for (std::size_t h = 0; h < path.hops.size(); ++h) {
      const SpanHop& hop = path.hops[h];
      EXPECT_GE(hop.queued_tu(), 0.0) << "job " << path.job_id;
      EXPECT_GE(hop.boot_tu(), 0.0) << "job " << path.job_id;
      EXPECT_GE(hop.run_tu(), 0.0) << "job " << path.job_id;
      EXPECT_EQ(TagOf(hop.span), SpanTag::kStage);
      EXPECT_EQ(SpanJob(hop.span), path.job_id);
      if (h > 0) {
        EXPECT_GE(hop.enqueue_tu, path.hops[h - 1].enqueue_tu);
      }
    }
  }
}

TEST_F(SpanGraphTest, CleanRunPathsTelescopeExactly) {
  const core::RunMetrics metrics = TracedRun(CalmConfig(), 42);
  const SpanGraph graph =
      SpanGraph::Build(TraceRecorder::Global().Collect());
  EXPECT_EQ(graph.jobs().size(), metrics.jobs_completed);
  EXPECT_GT(graph.span_count(), 0u);
  EXPECT_GT(graph.edge_count(), 0u);
  ExpectPathsExact(graph);
  // Without faults every attempt is epoch 0 and stages ascend.
  for (const JobCriticalPath& path : graph.jobs()) {
    for (const SpanHop& hop : path.hops) EXPECT_EQ(hop.epoch, 0u);
  }
}

TEST_F(SpanGraphTest, ChaosRunPathsTelescopeAcrossRetriesAndSpeculation) {
  const core::RunMetrics metrics = TracedRun(ChaosConfig(), 1337);
  // The seed/config pair must actually exercise the fault machinery or
  // this test degenerates into the clean-run one.
  ASSERT_GT(metrics.task_retries, 0u);
  ASSERT_GT(metrics.straggles_injected, 0u);
  ASSERT_GT(metrics.speculative_launches, 0u);

  const SpanGraph graph =
      SpanGraph::Build(TraceRecorder::Global().Collect());
  EXPECT_EQ(graph.jobs().size(), metrics.jobs_completed);
  ExpectPathsExact(graph);
  // At least one path must have walked through a retry epoch.
  bool any_retry_hop = false;
  for (const JobCriticalPath& path : graph.jobs()) {
    for (const SpanHop& hop : path.hops) {
      if (hop.epoch > 0) any_retry_hop = true;
    }
  }
  EXPECT_TRUE(any_retry_hop);
}

TEST_F(SpanGraphTest, FindLocatesJobsById) {
  (void)TracedRun(CalmConfig(), 7);
  const SpanGraph graph =
      SpanGraph::Build(TraceRecorder::Global().Collect());
  ASSERT_FALSE(graph.jobs().empty());
  const JobCriticalPath& first = graph.jobs().front();
  const JobCriticalPath* found = graph.Find(first.job_id);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->job_id, first.job_id);
  EXPECT_EQ(graph.Find(0xDEADBEEFull), nullptr);
}

TEST_F(SpanGraphTest, EmptyStreamBuildsEmptyGraph) {
  const SpanGraph graph = SpanGraph::Build({});
  EXPECT_TRUE(graph.jobs().empty());
  EXPECT_EQ(graph.span_count(), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
}

/// The Chrome export materializes the span graph as Perfetto flow
/// arrows: an "s" (flow start) event at the parent's defining anchor and
/// an "f" (flow finish) at the child, bound by matching ids.
TEST_F(SpanGraphTest, ChromeExportEmitsFlowArrowPairs) {
  (void)TracedRun(CalmConfig(), 11);
  const std::string path =
      ::testing::TempDir() + "/span_graph_flow_test.json";
  ASSERT_TRUE(TraceRecorder::Global().ExportChromeJson(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::remove(path.c_str());

  std::size_t starts = 0;
  std::size_t finishes = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"s\"", pos)) != std::string::npos; ++pos) {
    ++starts;
  }
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"f\"", pos)) != std::string::npos; ++pos) {
    ++finishes;
  }
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, finishes);  // arrows come in s/f pairs
  EXPECT_NE(json.find("\"cat\":\"scan-flow\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"causal\""), std::string::npos);
}

/// The JSONL export carries raw span/parent ids; a re-parse of the file
/// must reconstruct the identical graph (obs_inspect relies on this).
TEST_F(SpanGraphTest, JsonlExportCarriesSpanAndParent) {
  (void)TracedRun(CalmConfig(), 11);
  const std::string path =
      ::testing::TempDir() + "/span_graph_jsonl_test.jsonl";
  ASSERT_TRUE(TraceRecorder::Global().ExportJsonl(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t with_span = 0;
  std::size_t with_parent = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"span\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"parent\":"), std::string::npos) << line;
    if (line.find("\"span\":0,") == std::string::npos) ++with_span;
    if (line.find("\"parent\":0}") == std::string::npos &&
        line.find("\"parent\":0,") == std::string::npos) {
      ++with_parent;
    }
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_GT(with_span, 0u);
  EXPECT_GT(with_parent, 0u);
}

/// Structural span ids: both engines mint them as pure functions of
/// agreed values, so the codec must round-trip every field.
TEST_F(SpanGraphTest, SpanCodecRoundTrips) {
  const std::uint64_t job = JobSpan(12345);
  EXPECT_EQ(TagOf(job), SpanTag::kJob);
  EXPECT_EQ(SpanJob(job), 12345u);

  const std::uint64_t stage = StageSpan(12345, 6, 9, /*copy=*/true);
  EXPECT_EQ(TagOf(stage), SpanTag::kStage);
  EXPECT_EQ(SpanJob(stage), 12345u);
  EXPECT_EQ(SpanStage(stage), 6u);
  EXPECT_EQ(SpanEpoch(stage), 9u);
  EXPECT_TRUE(SpanIsCopy(stage));
  // The speculative copy and its canonical attempt differ only in the
  // copy bit.
  EXPECT_EQ(stage ^ StageSpan(12345, 6, 9, /*copy=*/false), 1u);

  const std::uint64_t slice = SliceSpan(777, 3);
  EXPECT_EQ(TagOf(slice), SpanTag::kSlice);
  EXPECT_EQ(TagOf(kSpanNone), SpanTag::kNone);
}

}  // namespace
}  // namespace scan::obs
