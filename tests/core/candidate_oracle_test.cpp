// Regression harness for the incremental candidate index (DESIGN.md §11).
//
// With SCAN_TESTKIT_VERIFY_CANDIDATES set, the engine re-derives the
// candidate sets from scratch (the legacy O(workers) rescan) after every
// scheduler decision and throws std::logic_error on any divergence from the
// incremental WorkerIndex. This suite runs drawn scenarios — including the
// fault knobs that exercise flapping, breakers, and compaction — under
// that oracle, on both of the engine's hosts: the discrete-event
// Scheduler and the live runtime.
//
// The env flag is read once in the engine's constructor, so the fixture
// sets it before any engine is built and clears it afterwards.

#include <gtest/gtest.h>

#include <cstdlib>

#include "scan/testkit/parity.hpp"
#include "scan/testkit/scenario.hpp"

namespace scan::testkit {
namespace {

class CandidateOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::setenv("SCAN_TESTKIT_VERIFY_CANDIDATES", "1", 1);
  }
  void TearDown() override { ::unsetenv("SCAN_TESTKIT_VERIFY_CANDIDATES"); }
};

TEST_F(CandidateOracleTest, DrawnScenariosMatchRescan) {
  ScenarioOptions options;
  options.check_determinism = false;  // oracle cost is the point here
  const auto results = StressSweep(0xCA11D1DAu, 6, options);
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok()) << result.Describe();
    EXPECT_GT(result.events_checked, 0u);
  }
}

TEST_F(CandidateOracleTest, FaultScenariosMatchRescan) {
  // Flaps, breakers, speculation, and retry churn drive the busiest
  // index transitions (workers leaving and re-entering the idle sets).
  ScenarioOptions options;
  options.check_determinism = false;
  options.draw_fault_knobs = true;
  const auto results = StressSweep(0xFA117u, 6, options);
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok()) << result.Describe();
  }
}

TEST_F(CandidateOracleTest, RuntimeParityHoldsUnderOracle) {
  // Parity under the rescan oracle checks the index on both hosts in one
  // run (the live host dispatches on real threads between checks).
  core::SimulationConfig config = DrawScenario(0xBEEFu);
  const ParityResult result = CheckSimRuntimeParity(config, 0xBEEFu);
  EXPECT_TRUE(result.ok()) << result.Describe();
  EXPECT_GT(result.stage_records, 0u);
}

TEST_F(CandidateOracleTest, OracleFlagIsActuallyArmed) {
  // Guard against the flag silently rotting: the fixture must leave the
  // variable set during test bodies.
  EXPECT_NE(std::getenv("SCAN_TESTKIT_VERIFY_CANDIDATES"), nullptr);
}

}  // namespace
}  // namespace scan::testkit
