#include "scan/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace scan {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::population_variance() const {
  if (count_ == 0) return 0.0;
  return m2_ / static_cast<double>(count_);
}

std::string RunningStats::ToString() const {
  std::ostringstream os;
  os << mean() << " +- " << stddev() << " (n=" << count_ << ")";
  return os.str();
}

LinearFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys) {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n == 0) return fit;
  const double mean_y =
      std::accumulate(ys.begin(), ys.begin() + static_cast<long>(n), 0.0) /
      static_cast<double>(n);
  if (n < 2) {
    fit.intercept = mean_y;
    return fit;
  }
  const double mean_x =
      std::accumulate(xs.begin(), xs.begin() + static_cast<long>(n), 0.0) /
      static_cast<double>(n);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mean_x;
    const double dy = ys[i] - mean_y;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) {
    fit.intercept = mean_y;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = mean_y - fit.slope * mean_x;
  fit.r_squared = syy == 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace scan
