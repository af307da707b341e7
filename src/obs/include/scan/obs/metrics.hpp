#pragma once

// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with Prometheus text exposition and a JSON snapshot. Instruments the
// scheduler, ThreadPool, CompletionQueue, and RuntimePlatform.
//
// Cost model mirrors the trace recorder: sites branch on MetricsEnabled()
// (one relaxed load) and pay relaxed atomic updates only when collection
// is on. Registration (Get*) locks a mutex and is meant for construction
// time; the returned references stay valid for the process lifetime.
//
// Determinism: metric updates never feed back into scheduling decisions,
// so enabling collection cannot change a run's schedule or its parity
// digest.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "scan/obs/sketch.hpp"

namespace scan::obs {

namespace internal {
inline std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

[[nodiscard]] inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void EnableMetrics() {
  internal::g_metrics_enabled.store(true, std::memory_order_release);
}
inline void DisableMetrics() {
  internal::g_metrics_enabled.store(false, std::memory_order_release);
}

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, busy workers, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// CAS loop: std::atomic<double>::fetch_add is C++20 but not offered by
  /// every libstdc++ we target.
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` (less-or-equal) semantics:
/// an observation lands in the first bucket whose upper bound is >= it;
/// anything above the last bound lands in the implicit +Inf bucket.
class Histogram {
 public:
  /// `upper_bounds` must be strictly ascending and non-empty (throws
  /// std::invalid_argument otherwise).
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return upper_bounds_;
  }
  /// Raw (non-cumulative) count of bucket i; i == upper_bounds().size()
  /// is the +Inf bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::vector<double> upper_bounds_;
  /// unique_ptr-free fixed array: one atomic per bound plus +Inf.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Process-wide registry. Names follow Prometheus conventions
/// ([a-zA-Z_][a-zA-Z0-9_]*); re-registering a name with a different type
/// throws std::logic_error, with the same type returns the existing
/// instrument (so Resolve-style call sites are idempotent).
class MetricsRegistry {
 public:
  [[nodiscard]] static MetricsRegistry& Global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  [[nodiscard]] Counter& GetCounter(const std::string& name,
                                    const std::string& help);
  [[nodiscard]] Gauge& GetGauge(const std::string& name,
                                const std::string& help);
  /// `upper_bounds` applies on first registration; later calls return the
  /// existing histogram unchanged.
  [[nodiscard]] Histogram& GetHistogram(const std::string& name,
                                        const std::string& help,
                                        std::vector<double> upper_bounds);
  /// Relative-error quantile sketch, exposed as a Prometheus summary
  /// (quantile="0.5|0.95|0.99" + _sum/_count). `relative_accuracy`
  /// applies on first registration.
  [[nodiscard]] QuantileSketch& GetSketch(
      const std::string& name, const std::string& help,
      double relative_accuracy = QuantileSketch::kDefaultAccuracy);
  /// SLO monitoring an already-registered sketch (its Observe() forwards
  /// there, so call sites feed both with one call). `spec` applies on
  /// first registration.
  [[nodiscard]] Slo& GetSlo(const std::string& name, const std::string& help,
                            SloSpec spec, QuantileSketch& sketch);

  /// Prometheus text exposition format (HELP/TYPE comments, cumulative
  /// `le` buckets, `_sum`, `_count`, `+Inf`).
  [[nodiscard]] std::string PrometheusText() const;

  /// One JSON object: {"name": value, ...}; histograms expand into
  /// {"buckets": [{"le", "count"}...], "sum", "count"}.
  [[nodiscard]] std::string JsonSnapshot() const;

  /// Zeroes every instrument (registrations stay).
  void ResetAll();

 private:
  MetricsRegistry();
  struct Impl;
  Impl* impl_;
};

/// The platform distributions the engine feeds a sample per event, resolved
/// once so hot paths touch only atomics. Its counts and levels are published
/// from RunMetrics when a run finishes (core::kRunCounters).
struct PlatformMetrics {
  Histogram* queue_wait_tu = nullptr;
  Histogram* job_latency_tu = nullptr;
  Histogram* worker_utilization = nullptr;
  /// Relative-error sketches: tails across decades of magnitude, which
  /// the fixed-bucket histograms above cannot resolve.
  QuantileSketch* queue_wait_sketch = nullptr;    ///< TU
  QuantileSketch* job_latency_sketch = nullptr;   ///< TU
  QuantileSketch* decision_latency_us = nullptr;  ///< wall microseconds
  /// p99 decision latency objective (the ROADMAP item-2 gate) and a
  /// p95 job-latency objective; Observe() feeds their sketches too.
  Slo* decision_latency_slo = nullptr;
  Slo* job_latency_slo = nullptr;

  [[nodiscard]] static PlatformMetrics Resolve();
};

/// Serving-front-end instruments (scan::serve::ServeFrontend): admission
/// flow counters, backlog gauges, and the batched hire-vs-wait decision
/// latency objective. Per-tenant queue-depth gauges are registered
/// dynamically as `scan_serve_tenant_queue_depth_<id>` (see
/// TenantQueueGauge) since the tenant set is per-deployment.
struct ServeMetrics {
  Counter* jobs_submitted = nullptr;  ///< arrivals offered by all tenants
  Counter* jobs_admitted = nullptr;   ///< accepted into a tenant queue
  Counter* jobs_shed = nullptr;       ///< rejected: bounded queue full
  Counter* jobs_released = nullptr;   ///< handed to the platform by DRR
  Counter* jobs_completed = nullptr;  ///< outcomes reported back
  Counter* decision_rounds = nullptr; ///< DRR release rounds run
  Counter* pricing_evaluations = nullptr;  ///< batched hire-vs-wait prices
  Gauge* queued_jobs = nullptr;       ///< backlog across all tenant queues
  Gauge* in_flight_jobs = nullptr;    ///< released, not yet retired
  /// Wall microseconds per DRR release round (the amortized §III decision
  /// cost) and its p99 objective.
  QuantileSketch* decision_micros = nullptr;
  Slo* decision_slo = nullptr;

  [[nodiscard]] static ServeMetrics Resolve();
};

/// The dynamically-named per-tenant backlog gauge.
[[nodiscard]] Gauge& TenantQueueGauge(std::uint64_t tenant_id);

/// Execution-substrate instruments (ThreadPool / CompletionQueue), shared
/// process-wide and resolved lazily on first touch.
struct PoolMetrics {
  Counter* tasks_submitted = nullptr;
  Counter* tasks_executed = nullptr;
  Gauge* queue_depth = nullptr;
  Counter* completions_pushed = nullptr;

  [[nodiscard]] static PoolMetrics& Global();
};

}  // namespace scan::obs
