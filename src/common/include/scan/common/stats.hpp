#pragma once

// Statistics accumulators used for experiment reporting.
//
// The paper reports every measurement as a mean over 10 repetitions with
// error bars of one standard deviation; RunningStats provides exactly that
// via Welford's numerically stable online algorithm. FitLine calibrates
// linear models, and Ewma feeds the scheduler's queue-time estimator.

#include <cstddef>
#include <string>
#include <vector>

namespace scan {

/// Welford online accumulator for mean / variance / min / max.
class RunningStats {
 public:
  void Add(double x);

  /// Merge another accumulator (Chan et al. parallel combination), enabling
  /// per-thread accumulation followed by a reduction.
  void Merge(const RunningStats& other);

  void Reset() { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  /// Sample standard deviation.
  [[nodiscard]] double stddev() const;
  /// Population variance (n denominator).
  [[nodiscard]] double population_variance() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return count_ ? mean_ * static_cast<double>(count_) : 0.0; }

  /// "mean +- stddev (n=count)"
  [[nodiscard]] std::string ToString() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Ordinary least squares for y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0, 1]; 1 means a perfect fit.
  double r_squared = 0.0;
};

/// Fits a line through (x, y) pairs. Requires xs.size() == ys.size() >= 2
/// and non-constant xs; returns slope 0 / intercept mean(y) otherwise.
[[nodiscard]] LinearFit FitLine(const std::vector<double>& xs,
                                const std::vector<double>& ys);

/// Exponentially weighted moving average, used by the scheduler's
/// queue-time estimator (EQT_i): estimates drift with the workload.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest observation.
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void Add(double x) {
    value_ = seeded_ ? alpha_ * x + (1.0 - alpha_) * value_ : x;
    seeded_ = true;
  }

  [[nodiscard]] bool seeded() const { return seeded_; }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] double value_or(double fallback) const {
    return seeded_ ? value_ : fallback;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace scan
