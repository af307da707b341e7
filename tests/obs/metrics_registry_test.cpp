#include "scan/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace scan::obs {
namespace {

/// Restores the process-wide collection flag (default: disabled).
class MetricsFlagGuard {
 public:
  MetricsFlagGuard() : saved_(MetricsEnabled()) {}
  ~MetricsFlagGuard() {
    if (saved_) {
      EnableMetrics();
    } else {
      DisableMetrics();
    }
  }

 private:
  bool saved_;
};

TEST(MetricsFlagTest, EnableDisableRoundTrips) {
  const MetricsFlagGuard guard;
  EnableMetrics();
  EXPECT_TRUE(MetricsEnabled());
  DisableMetrics();
  EXPECT_FALSE(MetricsEnabled());
}

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.Add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketBoundariesUseLessOrEqualSemantics) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);  // below first bound -> bucket 0
  h.Observe(1.0);  // exactly on a bound counts in that bucket (le = <=)
  h.Observe(1.5);
  h.Observe(2.0);  // on the last bound, still not +Inf
  h.Observe(2.1);  // above every bound -> +Inf bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 2.1);
}

TEST(HistogramTest, RejectsEmptyOrNonAscendingBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, ResetZeroesBucketsCountAndSum) {
  Histogram h({10.0});
  h.Observe(3.0);
  h.Observe(30.0);
  h.Reset();
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(MetricsRegistryTest, SameNameSameTypeReturnsSameInstrument) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& a = reg.GetCounter("obs_test_idempotent_total", "help");
  Counter& b = reg.GetCounter("obs_test_idempotent_total", "other help");
  EXPECT_EQ(&a, &b);
  Histogram& ha = reg.GetHistogram("obs_test_idempotent_tu", "h", {1.0});
  // Later bounds are ignored: the first registration wins.
  Histogram& hb = reg.GetHistogram("obs_test_idempotent_tu", "h", {5.0, 9.0});
  EXPECT_EQ(&ha, &hb);
  EXPECT_EQ(hb.upper_bounds().size(), 1u);
}

TEST(MetricsRegistryTest, SameNameDifferentTypeThrows) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  (void)reg.GetCounter("obs_test_type_clash", "help");
  EXPECT_THROW((void)reg.GetGauge("obs_test_type_clash", "help"),
               std::logic_error);
  EXPECT_THROW((void)reg.GetHistogram("obs_test_type_clash", "help", {1.0}),
               std::logic_error);
}

TEST(MetricsRegistryTest, InvalidNamesAreRejected) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_THROW((void)reg.GetCounter("", "help"), std::invalid_argument);
  EXPECT_THROW((void)reg.GetCounter("9starts_with_digit", "help"),
               std::invalid_argument);
  EXPECT_THROW((void)reg.GetCounter("has-dash", "help"),
               std::invalid_argument);
}

TEST(MetricsRegistryTest, PrometheusTextExposesCumulativeBuckets) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("obs_test_prom_total", "Prom exposition test");
  Histogram& h =
      reg.GetHistogram("obs_test_prom_tu", "Prom histogram test", {1.0, 2.0});
  c.Reset();
  h.Reset();
  c.Increment(3);
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(9.0);

  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# HELP obs_test_prom_total Prom exposition test\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_tu histogram\n"),
            std::string::npos);
  // Buckets are cumulative: le=1 holds 1, le=2 holds 2, +Inf holds all 3.
  EXPECT_NE(text.find("obs_test_prom_tu_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_tu_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_tu_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_tu_sum 11\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_tu_count 3\n"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotCarriesInstrumentValues) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("obs_test_json_total", "json");
  Gauge& g = reg.GetGauge("obs_test_json_depth", "json");
  c.Reset();
  c.Increment(7);
  g.Set(2.5);
  const std::string json = reg.JsonSnapshot();
  EXPECT_EQ(json.rfind("{", 0), 0u);
  EXPECT_NE(json.find("\"obs_test_json_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_json_depth\": 2.5"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllZeroesEveryInstrument) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("obs_test_resetall_total", "r");
  Gauge& g = reg.GetGauge("obs_test_resetall_depth", "r");
  Histogram& h = reg.GetHistogram("obs_test_resetall_tu", "r", {1.0});
  c.Increment(5);
  g.Set(3.0);
  h.Observe(0.5);
  reg.ResetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(PlatformMetricsTest, ResolveIsIdempotent) {
  const PlatformMetrics a = PlatformMetrics::Resolve();
  const PlatformMetrics b = PlatformMetrics::Resolve();
  ASSERT_NE(a.queue_wait_tu, nullptr);
  EXPECT_EQ(a.queue_wait_tu, b.queue_wait_tu);
  EXPECT_EQ(a.job_latency_tu, b.job_latency_tu);
  EXPECT_EQ(a.worker_utilization, b.worker_utilization);
  EXPECT_EQ(a.queue_wait_sketch, b.queue_wait_sketch);
  EXPECT_EQ(a.job_latency_sketch, b.job_latency_sketch);
  EXPECT_EQ(a.decision_latency_us, b.decision_latency_us);
  EXPECT_EQ(a.decision_latency_slo, b.decision_latency_slo);
  EXPECT_EQ(a.job_latency_slo, b.job_latency_slo);
}

TEST(PoolMetricsTest, GlobalIsASingleton) {
  PoolMetrics& a = PoolMetrics::Global();
  PoolMetrics& b = PoolMetrics::Global();
  EXPECT_EQ(&a, &b);
  ASSERT_NE(a.tasks_submitted, nullptr);
  ASSERT_NE(a.completions_pushed, nullptr);
}

}  // namespace
}  // namespace scan::obs
