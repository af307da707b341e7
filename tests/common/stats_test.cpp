#include "scan/common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace scan {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  const RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.Add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.population_variance(), 4.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0 + i;
    all.Add(x);
    (i < 40 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(3.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStatsTest, MergeEmptyWithEmptyStaysEmpty) {
  RunningStats a;
  RunningStats b;
  a.Merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(RunningStatsTest, MergePreservesExtremaAndSum) {
  RunningStats a;
  a.Add(1.0);
  a.Add(9.0);
  RunningStats b;
  b.Add(-4.0);
  b.Add(6.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.min(), -4.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

TEST(RunningStatsTest, SingleSampleVarianceIsZeroAfterMerge) {
  RunningStats single;
  single.Add(7.0);
  RunningStats empty;
  single.Merge(empty);
  EXPECT_EQ(single.count(), 1u);
  EXPECT_DOUBLE_EQ(single.variance(), 0.0);
  EXPECT_DOUBLE_EQ(single.stddev(), 0.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(5.0);
  s.Reset();
  EXPECT_TRUE(s.empty());
}

TEST(RunningStatsTest, ToStringShowsMeanStddevAndCount) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0}) s.Add(x);
  EXPECT_EQ(s.ToString(), "2 +- 1 (n=3)");
  EXPECT_EQ(RunningStats{}.ToString(), "0 +- 0 (n=0)");
}

TEST(FitLineTest, ExactLine) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {5.0, 7.0, 9.0, 11.0};
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLineTest, NoisyLineRecoversCoefficients) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.1;
    xs.push_back(x);
    // symmetric deterministic "noise"
    ys.push_back(3.5 * x + 1.25 + ((i % 2 == 0) ? 0.01 : -0.01));
  }
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.5, 0.01);
  EXPECT_NEAR(fit.intercept, 1.25, 0.05);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(FitLineTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(FitLine({}, {}).slope, 0.0);
  const LinearFit single = FitLine({2.0}, {9.0});
  EXPECT_DOUBLE_EQ(single.slope, 0.0);
  EXPECT_DOUBLE_EQ(single.intercept, 9.0);
  // Constant x: slope undefined -> 0, intercept = mean(y).
  const LinearFit constant = FitLine({1.0, 1.0, 1.0}, {2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(constant.slope, 0.0);
  EXPECT_DOUBLE_EQ(constant.intercept, 4.0);
}

TEST(EwmaTest, FirstValueSeeds) {
  Ewma e(0.5);
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value_or(42.0), 42.0);
  e.Add(10.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, BlendsTowardNewValues) {
  Ewma e(0.5);
  e.Add(0.0);
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

TEST(EwmaTest, AlphaOneTracksExactly) {
  Ewma e(1.0);
  e.Add(3.0);
  e.Add(8.0);
  EXPECT_DOUBLE_EQ(e.value(), 8.0);
}

}  // namespace
}  // namespace scan
