// ObsSession turns export paths into collection: each path it is given
// enables one subsystem (trace recorder, metrics registry, decision audit)
// until Finish() or destruction writes it out, in the format the path's
// extension names, and disables it again.

#include "scan/obs/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scan/obs/audit.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/trace.hpp"

namespace scan::obs {
namespace {

/// Every test starts and ends with all three subsystems off and empty.
class ObsSessionTest : public ::testing::Test {
 protected:
  void SetUp() override { Quiesce(); }
  void TearDown() override {
    Quiesce();
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  static void Quiesce() {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
    DisableMetrics();
    MetricsRegistry::Global().ResetAll();
    DecisionAudit::Global().Disable();
    DecisionAudit::Global().Clear();
  }

  /// A scratch path owned by the running test (ctest runs tests in
  /// parallel processes), removed at teardown.
  std::string Path(const std::string& suffix) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    paths_.push_back(::testing::TempDir() + "obs_session_" + info->name() +
                     suffix);
    std::remove(paths_.back().c_str());
    return paths_.back();
  }

  static bool Exists(const std::string& path) {
    return std::ifstream(path).good();
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }

  static std::vector<std::string> Lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }

 private:
  std::vector<std::string> paths_;
};

constexpr const char* kCounter = "scan_session_test_total";

PlanDecisionRecord SomePlan() {
  PlanDecisionRecord plan;
  plan.job_id = 5;
  plan.allocation = "greedy";
  plan.plan = {1, 4};
  return plan;
}

TEST_F(ObsSessionTest, EmptyOptionsEnableNothing) {
  ObsSession session(ObsOptions{});
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(TraceEnabled());
  EXPECT_FALSE(MetricsEnabled());
  EXPECT_FALSE(AuditEnabled());
}

TEST_F(ObsSessionTest, EachPathEnablesOnlyItsSubsystemUntilFinish) {
  for (int which = 0; which < 3; ++which) {
    SCOPED_TRACE(which);
    ObsOptions options;
    std::string* path = which == 0   ? &options.trace_path
                        : which == 1 ? &options.metrics_path
                                     : &options.audit_path;
    *path = Path("_" + std::to_string(which));
    ObsSession session(options);
    EXPECT_TRUE(session.active());
    EXPECT_EQ(TraceEnabled(), which == 0);
    EXPECT_EQ(MetricsEnabled(), which == 1);
    EXPECT_EQ(AuditEnabled(), which == 2);
    session.Finish();
    EXPECT_FALSE(TraceEnabled());
    EXPECT_FALSE(MetricsEnabled());
    EXPECT_FALSE(AuditEnabled());
    EXPECT_TRUE(Exists(*path));
  }
}

TEST_F(ObsSessionTest, TraceFormatFollowsThePathExtension) {
  std::string texts[2];
  const std::string paths[2] = {Path(".jsonl"), Path(".json")};
  for (int i = 0; i < 2; ++i) {
    ObsOptions options;
    options.trace_path = paths[i];
    ObsSession session(options);
    TraceEmit(EventKind::kShardSplit, 0.0, 0, 0, 25, 4.0);
    session.Finish();
    texts[i] = Slurp(paths[i]);
  }
  EXPECT_EQ(texts[0].find("traceEvents"), std::string::npos);
  EXPECT_NE(texts[1].find("traceEvents"), std::string::npos);
  for (const std::string& text : texts) {
    const auto events = ParseTrace(text);
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    ASSERT_EQ(events->size(), 1u);
    EXPECT_EQ((*events)[0].kind, EventKind::kShardSplit);
    EXPECT_EQ((*events)[0].b, 25u);
    EXPECT_EQ((*events)[0].value, 4.0);
  }
}

TEST_F(ObsSessionTest, MetricsFormatFollowsThePathExtension) {
  std::string texts[2];
  const std::string paths[2] = {Path(".json"), Path(".prom")};
  for (int i = 0; i < 2; ++i) {
    ObsOptions options;
    options.metrics_path = paths[i];
    ObsSession session(options);
    MetricsRegistry::Global().GetCounter(kCounter, "session test").Increment(3);
    session.Finish();
    texts[i] = Slurp(paths[i]);
  }
  EXPECT_NE(texts[0].find("\"" + std::string(kCounter) + "\": 3"),
            std::string::npos)
      << texts[0];
  EXPECT_NE(texts[1].find("# TYPE " + std::string(kCounter) + " counter\n" +
                          kCounter + " 3\n"),
            std::string::npos)
      << texts[1];
}

TEST_F(ObsSessionTest, AuditPathExportsTheRecordedDecisions) {
  ObsOptions options;
  options.audit_path = Path(".jsonl");
  ObsSession session(options);
  DecisionAudit::Global().RecordPlan(SomePlan());
  session.Finish();
  const std::vector<std::string> lines = Lines(options.audit_path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\":\"plan\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"allocation\":\"greedy\""), std::string::npos)
      << lines[0];
}

TEST_F(ObsSessionTest, ConstructionDropsWhatWasCollectedBefore) {
  // A session exports what its own run collected, not what an earlier
  // run in the same process left behind.
  TraceRecorder::Global().Enable();
  TraceEmit(EventKind::kShardSplit, 1.0, 0, 0);
  EnableMetrics();
  MetricsRegistry::Global().GetCounter(kCounter, "session test").Increment(7);
  DecisionAudit::Global().Enable();
  DecisionAudit::Global().RecordPlan(SomePlan());

  ObsOptions options;
  options.trace_path = Path(".jsonl");
  options.metrics_path = Path(".json");
  options.audit_path = Path("_audit.jsonl");
  ObsSession session(options);
  session.Finish();

  const auto events = ParseTrace(Slurp(options.trace_path));
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_TRUE(events->empty());
  EXPECT_NE(Slurp(options.metrics_path)
                .find("\"" + std::string(kCounter) + "\": 0"),
            std::string::npos);
  EXPECT_TRUE(Lines(options.audit_path).empty());
}

TEST_F(ObsSessionTest, DestructionFinishesAndFinishRunsOnce) {
  ObsOptions options;
  options.trace_path = Path(".jsonl");
  {
    const ObsSession session(options);
    TraceEmit(EventKind::kShardSplit, 0.0, 0, 0);
  }
  EXPECT_FALSE(TraceEnabled());
  EXPECT_TRUE(Exists(options.trace_path));

  // A second Finish, and the destructor after it, write nothing more.
  std::remove(options.trace_path.c_str());
  {
    ObsSession session(options);
    session.Finish();
    ASSERT_TRUE(Exists(options.trace_path));
    std::remove(options.trace_path.c_str());
    session.Finish();
  }
  EXPECT_FALSE(Exists(options.trace_path));
}

TEST_F(ObsSessionTest, AnUnwritablePathStillEndsCollection) {
  // Observability must never fail the run it observes: an export that
  // cannot be written is reported on stderr, and collection stops anyway.
  const std::string missing_dir = Path("_missing_dir") + "/";
  ObsOptions options;
  options.trace_path = missing_dir + "trace.jsonl";
  options.metrics_path = missing_dir + "metrics.prom";
  options.audit_path = missing_dir + "audit.jsonl";
  ObsSession session(options);
  EXPECT_NO_THROW(session.Finish());
  EXPECT_FALSE(TraceEnabled());
  EXPECT_FALSE(MetricsEnabled());
  EXPECT_FALSE(AuditEnabled());
  EXPECT_FALSE(Exists(options.trace_path));
}

}  // namespace
}  // namespace scan::obs
