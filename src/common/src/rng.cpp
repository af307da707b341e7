#include "scan/common/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "scan/common/str.hpp"

namespace scan {

double RandomStream::Exponential(double mean) {
  if (!(mean > 0.0)) {
    throw std::invalid_argument(StrFormat(
        "RandomStream::Exponential: mean is %g; it must be > 0", mean));
  }
  // Inverse CDF; guard against log(0).
  double u = gen_.UniformDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double RandomStream::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller.
  double u1 = gen_.UniformDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = gen_.UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double RandomStream::TruncatedNormal(double mean, double stddev, double lo) {
  if (!(stddev >= 0.0)) {
    throw std::invalid_argument(StrFormat(
        "RandomStream::TruncatedNormal: stddev is %g; it must be >= 0",
        stddev));
  }
  if (stddev == 0.0) return mean < lo ? lo : mean;
  for (int attempt = 0; attempt < 1024; ++attempt) {
    const double x = Normal(mean, stddev);
    if (x >= lo) return x;
  }
  // Pathological truncation (mean far below lo): fall back to the bound.
  return lo;
}

std::size_t RandomStream::WeightedIndex(const std::vector<double>& weights) {
  if (weights.empty()) {
    throw std::invalid_argument("WeightedIndex: empty weight vector");
  }
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("WeightedIndex: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("WeightedIndex: weights sum to zero");
  }
  double target = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: return the last index
}

}  // namespace scan
