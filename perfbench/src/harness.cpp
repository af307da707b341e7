#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "scan/obs/audit.hpp"
#include "scan/obs/trace.hpp"
#include "scan/runtime/clock.hpp"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"jobs_per_s", "jobs/s"},      {"op_p50_us", "us"},
      {"op_p99_us", "us"},           {"cost_per_job", "CU"},
      {"latency_mean_tu", "TU"},     {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"host.nproc", "count"},
      {"host.spin_rate", "1/s"},
      {"serve.busy_s", "s"},
      {"serve.calls", "count"},
      {"serve.decision_rounds", "count"},
      {"serve.pricing_evals", "count"},
      {"serve.pricing_per_release", "ratio"},
      {"serve.shed", "count"},
      {"serve.queue_wait_mean_tu", "TU"},
      {"serve.release_p50_us", "us"},
      {"serve.release_p99_us", "us"},
      {"runtime.dispatch_rounds", "count"},
      {"runtime.dispatch_busy_s", "s"},
      {"runtime.dispatch_mean_us", "us"},
      {"runtime.stage_tasks", "count"},
      {"runtime.other_s", "s"},
      {"concurrency.threads", "count"},
      {"concurrency.slices", "count"},
      {"concurrency.slices_per_task", "ratio"},
      {"concurrency.peak_queue_depth", "count"},
      {"core.dispatches", "count"},
      {"core.hires_private", "count"},
      {"core.hires_public", "count"},
      {"core.reconfigs", "count"},
      {"core.releases", "count"},
      {"core.worker_util_mean", "ratio"},
      {"core.hire_evals", "count"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.episode_s_p50", "s"},
      {"kb.advise_calls", "count"},
      {"kb.advise_p50_us", "us"},
      {"kb.frozen_share", "ratio"},
      {"kb.writes", "count"},
      {"kb.write_mean_us", "us"},
      {"kb.freeze_s", "s"},
      {"genomics.shard_s", "s"},
      {"genomics.shard_mb_per_s", "MB/s"},
      {"genomics.shards", "count"},
      {"obs.trace_events", "count"},
      {"obs.trace_slowdown", "ratio"},
  };
  return kDefs;
}

namespace {

bool InTable(const std::vector<MetricDef>& defs, std::string_view name) {
  return std::any_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return name == d.name; });
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Outcome::Set(std::string_view name, double value) {
  if (!InTable(EndToEndMetrics(), name) && !InTable(PerLayerMetrics(), name)) {
    throw std::logic_error("unknown metric " + std::string(name));
  }
  values_.insert_or_assign(std::string(name), value);
}

void Outcome::Fail(const std::string& why, std::uint64_t ops) {
  failures_.push_back(why);
  failed_ += ops;
}

bool Outcome::Print(bool trace) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const std::string& why : failures_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  bool complete = true;
  std::string metrics;
  for (const MetricDef& def : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = values_.find(def.name);
    double value = it == values_.end() ? 0.0 : it->second;
    if ((!trace && it == values_.end()) || !std::isfinite(value)) {
      std::fprintf(stderr, "metric %s missing or not finite\n", def.name);
      complete = false;
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(def.name).append("\": {\"value\": ");
    metrics.append(JsonNumber(value)).append(", \"unit\": \"");
    metrics.append(def.unit).append("\"}");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() && complete ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return complete;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

void SpanLog::Record(std::uint64_t id, const char* name,
                     Clock::time_point start, Clock::time_point end,
                     std::uint64_t parent, std::uint64_t request) {
  ++total_;
  if (spans_.size() >= kMaxStored) return;
  spans_.push_back(Span{
      name, id, parent, request,
      std::chrono::duration<double, std::micro>(start - origin_).count(),
      std::chrono::duration<double, std::micro>(end - start).count()});
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_us\":" << JsonNumber(s.start_us)
        << ",\"dur_us\":" << JsonNumber(s.dur_us) << "}\n";
  }
  return out.good();
}

ObsPass::ObsPass() {
  scan::obs::TraceRecorder::Global().Clear();
  scan::obs::DecisionAudit::Global().Clear();
  scan::obs::TraceRecorder::Global().Enable();
  scan::obs::DecisionAudit::Global().Enable();
}

ObsPass::~ObsPass() {
  scan::obs::TraceRecorder::Global().Disable();
  scan::obs::DecisionAudit::Global().Disable();
  scan::obs::TraceRecorder::Global().Clear();
  scan::obs::DecisionAudit::Global().Clear();
}

void ObsPass::Harvest() {
  auto& recorder = scan::obs::TraceRecorder::Global();
  auto& audit = scan::obs::DecisionAudit::Global();
  recorder.Disable();
  audit.Disable();
  events_ = recorder.stats().events_recorded;
  for (const scan::obs::HireDecisionRecord& r : audit.hires()) {
    if (!std::isnan(r.delay_cost)) ++hire_evals_;
  }
  std::map<std::string, std::uint64_t> counts;
  for (const scan::obs::TraceEvent& e : recorder.Collect()) {
    ++counts[scan::obs::EventKindName(e.kind)];
  }
  by_kind_.clear();
  for (const auto& [kind, count] : counts) {
    by_kind_ += " " + kind + "=" + std::to_string(count);
  }
}

void RecordHost(Outcome& out) {
  const double nproc = std::max(1u, std::thread::hardware_concurrency());
  const double spin_rate =
      scan::runtime::SpinKernel::Calibrate().iterations_per_second();
  out.Set("host.nproc", nproc);
  out.Set("host.spin_rate", spin_rate);
  out.Note("host: nproc=" + JsonNumber(nproc) +
           " spin_rate=" + JsonNumber(spin_rate) + " iter/s");
}

void WriteSpans(const RunOptions& opts, const SpanLog& spans, Outcome& out) {
  if (opts.out_dir.empty()) return;
  const std::string path =
      opts.out_dir + "/spans-" + opts.workload + ".jsonl";
  if (spans.WriteJsonl(path)) {
    out.Note("spans: " + std::to_string(spans.total()) + " recorded, first " +
             std::to_string(std::min<std::uint64_t>(spans.total(),
                                                    SpanLog::kMaxStored)) +
             " written to " + path);
  } else {
    out.Note("spans: could not write " + path);
  }
}

}  // namespace perfbench
