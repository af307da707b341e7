#include "scan/common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "expect_rejected.hpp"

namespace scan {
namespace {

TEST(Pcg32Test, DeterministicSequence) {
  Pcg32 a(123, 7);
  Pcg32 b(123, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1, 7);
  Pcg32 b(2, 7);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(Pcg32Test, UniformBelowRespectsBound) {
  Pcg32 gen(42, 1);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(gen.UniformBelow(17), 17u);
  }
  EXPECT_EQ(gen.UniformBelow(1), 0u);
  EXPECT_EQ(gen.UniformBelow(0), 0u);
}

TEST(Pcg32Test, UniformDoubleInUnitInterval) {
  Pcg32 gen(42, 1);
  for (int i = 0; i < 10'000; ++i) {
    const double u = gen.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Fnv1aTest, StableKnownValues) {
  // FNV-1a has fixed published constants; the empty string hashes to the
  // offset basis.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("scan"), Fnv1a64("scan"));
}

TEST(MixSeedTest, OrderSensitive) {
  EXPECT_NE(MixSeed(1, 2), MixSeed(2, 1));
}

TEST(RandomStreamTest, NamedStreamsAreIndependent) {
  RandomStream arrivals(99, "arrivals");
  RandomStream sizes(99, "sizes");
  // Same root seed, different names -> different sequences.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (arrivals.Uniform() != sizes.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomStreamTest, SameNameSameSeedReproduces) {
  RandomStream a(7, "workload");
  RandomStream b(7, "workload");
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RandomStreamTest, UniformRange) {
  RandomStream s(5, "u");
  for (int i = 0; i < 1000; ++i) {
    const double x = s.Uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RandomStreamTest, ExponentialMeanConverges) {
  RandomStream s(11, "exp");
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += s.Exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RandomStreamTest, ExponentialAlwaysNonNegative) {
  RandomStream s(11, "exp2");
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(s.Exponential(0.001), 0.0);
  }
}

TEST(RandomStreamTest, ExponentialRejectsAMeanThatIsNotPositive) {
  // -mean * log(u) with mean <= 0 is a draw <= 0 (NaN for a NaN mean): an
  // inter-arrival or crash time that runs backwards.
  RandomStream s(11, "exp-bad");
  ExpectRejected([&] { (void)s.Exponential(0.0); }, {"Exponential", "0"});
  ExpectRejected([&] { (void)s.Exponential(-2.5); }, {"Exponential", "-2.5"});
  ExpectRejected(
      [&] { (void)s.Exponential(std::numeric_limits<double>::quiet_NaN()); },
      {"Exponential", "nan"});
  // A rejected call draws nothing: the stream continues as a fresh one.
  RandomStream fresh(11, "exp-bad");
  EXPECT_EQ(s.Exponential(2.0), fresh.Exponential(2.0));
}

TEST(RandomStreamTest, TruncatedNormalRejectsANegativeStddev) {
  // A negative variance's square root is NaN: every draw would fail the
  // bound test, so the re-draw loop would spend its 1024 attempts and
  // return the bound as if it were a sample.
  RandomStream s(17, "trunc-bad");
  ExpectRejected([&] { (void)s.TruncatedNormal(3.0, -1.0, 0.0); },
                 {"TruncatedNormal", "-1"});
  ExpectRejected([&] { (void)s.TruncatedNormal(3.0, std::sqrt(-2.0), 0.0); },
                 {"TruncatedNormal", "nan"});
  RandomStream fresh(17, "trunc-bad");
  EXPECT_EQ(s.TruncatedNormal(3.0, 1.5, 0.0),
            fresh.TruncatedNormal(3.0, 1.5, 0.0));
}

TEST(RandomStreamTest, ExponentialAcceptsTheSmallestPositiveMean) {
  // The precondition is mean > 0, nothing stricter: a subnormal mean is
  // valid and yields finite, non-negative draws.
  RandomStream s(11, "exp-tiny");
  for (int i = 0; i < 1000; ++i) {
    const double x = s.Exponential(std::numeric_limits<double>::denorm_min());
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_GE(x, 0.0);
  }
}

TEST(RandomStreamTest, NormalMomentsConverge) {
  RandomStream s(13, "norm");
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = s.Normal(10.0, 3.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RandomStreamTest, TruncatedNormalRespectsFloor) {
  RandomStream s(17, "trunc");
  for (int i = 0; i < 20'000; ++i) {
    EXPECT_GE(s.TruncatedNormal(1.0, 5.0, 0.5), 0.5);
  }
}

TEST(RandomStreamTest, TruncatedNormalDegenerateSigma) {
  RandomStream s(17, "trunc0");
  EXPECT_DOUBLE_EQ(s.TruncatedNormal(4.0, 0.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.TruncatedNormal(0.0, 0.0, 1.0), 1.0);
}

TEST(RandomStreamTest, TruncatedNormalReturnsTheBoundWhenNoDrawReachesIt) {
  // The re-draw loop gives up after 1024 attempts and returns the bound; a
  // floor 50 standard deviations above the mean is never drawn.
  RandomStream s(17, "trunc-far");
  EXPECT_EQ(s.TruncatedNormal(0.0, 1.0, 50.0), 50.0);
}

TEST(RandomStreamTest, NormalDrawsOnePairOfUniformsPerTwoDeviates) {
  // Box-Muller turns two uniforms into two deviates on one circle of
  // radius sqrt(-2 ln u1); the second Normal() call returns the cached
  // deviate and draws nothing.
  RandomStream s(13, "pair");
  RandomStream uniforms(13, "pair");
  const double first = s.Normal();
  const double second = s.Normal();
  const double u1 = uniforms.Uniform();
  (void)uniforms.Uniform();
  const double radius_sq = -2.0 * std::log(u1);
  EXPECT_NEAR(first * first + second * second, radius_sq, 1e-12 * radius_sq);
  EXPECT_EQ(s.Uniform(), uniforms.Uniform());
  // A third call starts the next pair.
  (void)s.Normal();
  (void)uniforms.Uniform();
  (void)uniforms.Uniform();
  EXPECT_EQ(s.Uniform(), uniforms.Uniform());
}

TEST(RandomStreamTest, WeightedIndexDistribution) {
  RandomStream s(29, "weights");
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40'000;
  for (int i = 0; i < n; ++i) ++counts[s.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RandomStreamTest, WeightedIndexRejectsBadInput) {
  RandomStream s(29, "bad");
  EXPECT_THROW((void)s.WeightedIndex({}), std::invalid_argument);
  EXPECT_THROW((void)s.WeightedIndex({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)s.WeightedIndex({1.0, -1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace scan
