#include "scan/obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "scan/common/str.hpp"

namespace scan::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(upper_bounds_.size() + 1) {
  if (upper_bounds_.empty()) {
    throw std::invalid_argument("Histogram: needs at least one bound");
  }
  if (!std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()) ||
      std::adjacent_find(upper_bounds_.begin(), upper_bounds_.end()) !=
          upper_bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must strictly ascend");
  }
}

void Histogram::Observe(double value) {
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  const std::size_t index =
      static_cast<std::size_t>(it - upper_bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

namespace {

enum class MetricType { kCounter, kGauge, kHistogram, kSketch, kSlo };

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
    case MetricType::kSketch:
      return "summary";
    case MetricType::kSlo:
      return "slo";
  }
  return "?";
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
  }
  return true;
}

struct Entry {
  std::string help;
  MetricType type = MetricType::kCounter;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
  std::unique_ptr<QuantileSketch> sketch;
  std::unique_ptr<Slo> slo;
};

}  // namespace

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  /// std::map: exposition output is sorted by name, so snapshots diff
  /// cleanly run to run.
  std::map<std::string, Entry> entries;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: instruments resolved into long-lived structs
  // (PlatformMetrics, PoolMetrics) must outlive every static destructor.
  static auto* registry = new MetricsRegistry();
  return *registry;
}

namespace {

Entry& FindOrCreate(std::map<std::string, Entry>& entries,
                    const std::string& name, const std::string& help,
                    MetricType type) {
  if (!ValidMetricName(name)) {
    throw std::invalid_argument("MetricsRegistry: bad metric name: " + name);
  }
  const auto it = entries.find(name);
  if (it != entries.end()) {
    if (it->second.type != type) {
      throw std::logic_error("MetricsRegistry: " + name + " already a " +
                             MetricTypeName(it->second.type));
    }
    return it->second;
  }
  Entry entry;
  entry.help = help;
  entry.type = type;
  return entries.emplace(name, std::move(entry)).first->second;
}

}  // namespace

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  const std::scoped_lock lock(impl_->mutex);
  Entry& entry =
      FindOrCreate(impl_->entries, name, help, MetricType::kCounter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  const std::scoped_lock lock(impl_->mutex);
  Entry& entry = FindOrCreate(impl_->entries, name, help, MetricType::kGauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> upper_bounds) {
  const std::scoped_lock lock(impl_->mutex);
  Entry& entry =
      FindOrCreate(impl_->entries, name, help, MetricType::kHistogram);
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *entry.histogram;
}

QuantileSketch& MetricsRegistry::GetSketch(const std::string& name,
                                           const std::string& help,
                                           double relative_accuracy) {
  const std::scoped_lock lock(impl_->mutex);
  Entry& entry = FindOrCreate(impl_->entries, name, help, MetricType::kSketch);
  if (!entry.sketch) {
    entry.sketch = std::make_unique<QuantileSketch>(relative_accuracy);
  }
  return *entry.sketch;
}

Slo& MetricsRegistry::GetSlo(const std::string& name, const std::string& help,
                             SloSpec spec, QuantileSketch& sketch) {
  const std::scoped_lock lock(impl_->mutex);
  Entry& entry = FindOrCreate(impl_->entries, name, help, MetricType::kSlo);
  if (!entry.slo) entry.slo = std::make_unique<Slo>(spec, sketch);
  return *entry.slo;
}

std::string MetricsRegistry::PrometheusText() const {
  const std::scoped_lock lock(impl_->mutex);
  std::ostringstream out;
  for (const auto& [name, entry] : impl_->entries) {
    // Sketches and SLOs render whole blocks (their own TYPE lines: a
    // summary, resp. a family of counters/gauges under the name prefix).
    if (entry.type == MetricType::kSketch) {
      out << SketchPrometheusBlock(name, entry.help, *entry.sketch);
      continue;
    }
    if (entry.type == MetricType::kSlo) {
      out << SloPrometheusBlock(name, entry.help, *entry.slo);
      continue;
    }
    if (!entry.help.empty()) {
      out << "# HELP " << name << ' ' << entry.help << '\n';
    }
    out << "# TYPE " << name << ' ' << MetricTypeName(entry.type) << '\n';
    switch (entry.type) {
      case MetricType::kCounter:
        out << name << ' ' << entry.counter->value() << '\n';
        break;
      case MetricType::kGauge:
        out << name << ' ' << StrFormat("%.17g", entry.gauge->value())
            << '\n';
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *entry.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cumulative += h.bucket_count(i);
          out << name << "_bucket{le=\""
              << StrFormat("%g", h.upper_bounds()[i]) << "\"} " << cumulative
              << '\n';
        }
        cumulative += h.bucket_count(h.upper_bounds().size());
        out << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
        out << name << "_sum " << StrFormat("%.17g", h.sum()) << '\n';
        out << name << "_count " << h.count() << '\n';
        break;
      }
      case MetricType::kSketch:
      case MetricType::kSlo:
        break;  // handled above
    }
  }
  return out.str();
}

std::string MetricsRegistry::JsonSnapshot() const {
  const std::scoped_lock lock(impl_->mutex);
  std::ostringstream out;
  out << "{\n";
  bool first = true;
  for (const auto& [name, entry] : impl_->entries) {
    if (!first) out << ",\n";
    first = false;
    out << "  \"" << name << "\": ";
    switch (entry.type) {
      case MetricType::kCounter:
        out << entry.counter->value();
        break;
      case MetricType::kGauge:
        out << StrFormat("%.17g", entry.gauge->value());
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *entry.histogram;
        out << "{\"sum\": " << StrFormat("%.17g", h.sum())
            << ", \"count\": " << h.count() << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          out << "{\"le\": " << StrFormat("%g", h.upper_bounds()[i])
              << ", \"count\": " << h.bucket_count(i) << "}, ";
        }
        out << "{\"le\": \"+Inf\", \"count\": "
            << h.bucket_count(h.upper_bounds().size()) << "}]}";
        break;
      }
      case MetricType::kSketch: {
        const QuantileSketch& s = *entry.sketch;
        out << "{\"p50\": " << StrFormat("%.17g", s.Quantile(0.5))
            << ", \"p95\": " << StrFormat("%.17g", s.Quantile(0.95))
            << ", \"p99\": " << StrFormat("%.17g", s.Quantile(0.99))
            << ", \"sum\": " << StrFormat("%.17g", s.sum())
            << ", \"count\": " << s.count() << "}";
        break;
      }
      case MetricType::kSlo: {
        const Slo& s = *entry.slo;
        out << "{\"good\": " << s.good() << ", \"breach\": " << s.breached()
            << ", \"objective\": " << StrFormat("%.17g", s.spec().threshold)
            << ", \"observed\": "
            << StrFormat("%.17g", s.sketch().Quantile(s.spec().quantile))
            << ", \"budget_burn\": " << StrFormat("%.17g", s.BudgetBurn())
            << "}";
        break;
      }
    }
  }
  out << "\n}\n";
  return out.str();
}

void MetricsRegistry::ResetAll() {
  const std::scoped_lock lock(impl_->mutex);
  for (auto& [name, entry] : impl_->entries) {
    switch (entry.type) {
      case MetricType::kCounter:
        entry.counter->Reset();
        break;
      case MetricType::kGauge:
        entry.gauge->Reset();
        break;
      case MetricType::kHistogram:
        entry.histogram->Reset();
        break;
      case MetricType::kSketch:
        entry.sketch->Reset();
        break;
      case MetricType::kSlo:
        entry.slo->Reset();
        break;
    }
  }
}

PlatformMetrics PlatformMetrics::Resolve() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  PlatformMetrics m;
  m.queue_wait_tu = &reg.GetHistogram(
      "scan_queue_wait_tu", "Per-dispatch queue wait (TU)",
      {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0});
  m.job_latency_tu = &reg.GetHistogram(
      "scan_job_latency_tu", "Completed-job latency (TU)",
      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0});
  m.worker_utilization = &reg.GetHistogram(
      "scan_worker_utilization_ratio",
      "Released-worker lifetime utilization (busy/hired)",
      {0.1, 0.25, 0.5, 0.75, 0.9, 0.99});
  m.queue_wait_sketch = &reg.GetSketch(
      "scan_queue_wait_sketch_tu", "Per-dispatch queue wait quantiles (TU)");
  m.job_latency_sketch = &reg.GetSketch(
      "scan_job_latency_sketch_tu", "Completed-job latency quantiles (TU)");
  m.decision_latency_us = &reg.GetSketch(
      "scan_decision_latency_us",
      "Wall-clock dispatch-round decision latency quantiles (microseconds)");
  m.decision_latency_slo = &reg.GetSlo(
      "scan_decision_latency_slo",
      "Objective: p99 decision latency <= 500us, 1% error budget",
      SloSpec{0.99, 500.0, 0.01}, *m.decision_latency_us);
  m.job_latency_slo = &reg.GetSlo(
      "scan_job_latency_slo",
      "Objective: p95 job latency <= 200 TU, 5% error budget",
      SloSpec{0.95, 200.0, 0.05}, *m.job_latency_sketch);
  return m;
}

ServeMetrics ServeMetrics::Resolve() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  ServeMetrics m;
  m.jobs_submitted = &reg.GetCounter("scan_serve_jobs_submitted_total",
                                     "Jobs offered by all tenants");
  m.jobs_admitted = &reg.GetCounter("scan_serve_jobs_admitted_total",
                                    "Submissions accepted into a tenant queue");
  m.jobs_shed = &reg.GetCounter("scan_serve_jobs_shed_total",
                                "Submissions rejected (bounded queue full)");
  m.jobs_released = &reg.GetCounter(
      "scan_serve_jobs_released_total",
      "Jobs handed to the platform by the weighted-fair dispatcher");
  m.jobs_completed = &reg.GetCounter("scan_serve_jobs_completed_total",
                                     "Job outcomes reported back to tenants");
  m.decision_rounds = &reg.GetCounter("scan_serve_decision_rounds_total",
                                      "DRR release rounds run");
  m.pricing_evaluations =
      &reg.GetCounter("scan_serve_pricing_evaluations_total",
                      "Batched hire-vs-wait evaluations (one per tenant "
                      "per loaded round)");
  m.queued_jobs = &reg.GetGauge("scan_serve_queued_jobs",
                                "Backlog across all tenant queues");
  m.in_flight_jobs = &reg.GetGauge("scan_serve_in_flight_jobs",
                                   "Released jobs not yet retired");
  m.decision_micros = &reg.GetSketch(
      "scan_serve_decision_micros",
      "Wall-clock DRR release-round latency quantiles (microseconds)");
  m.decision_slo = &reg.GetSlo(
      "scan_serve_decision_slo",
      "Objective: p99 serve decision round <= 250us, 1% error budget",
      SloSpec{0.99, 250.0, 0.01}, *m.decision_micros);
  return m;
}

Gauge& TenantQueueGauge(std::uint64_t tenant_id) {
  return MetricsRegistry::Global().GetGauge(
      "scan_serve_tenant_queue_depth_" + std::to_string(tenant_id),
      "Queued jobs for one tenant");
}

PoolMetrics& PoolMetrics::Global() {
  static PoolMetrics* metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* m = new PoolMetrics();
    m->tasks_submitted = &reg.GetCounter("scan_pool_tasks_submitted_total",
                                         "Slice tasks submitted to the pool");
    m->tasks_executed = &reg.GetCounter("scan_pool_tasks_executed_total",
                                        "Slice tasks executed by the pool");
    m->queue_depth = &reg.GetGauge("scan_pool_queue_depth",
                                   "Submitted-but-unstarted pool backlog");
    m->completions_pushed =
        &reg.GetCounter("scan_completions_pushed_total",
                        "Completion tickets pushed worker -> coordinator");
    return m;
  }();
  return *metrics;
}

}  // namespace scan::obs
