#include "scan/obs/session.hpp"

#include <cstdio>
#include <fstream>

#include "scan/common/str.hpp"
#include "scan/obs/audit.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/trace.hpp"

namespace scan::obs {

ObsSession::ObsSession(ObsOptions options) : options_(std::move(options)) {
  if (!options_.trace_path.empty()) {
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable(options_.trace_capacity);
    trace_on_ = true;
  }
  if (!options_.metrics_path.empty()) {
    MetricsRegistry::Global().ResetAll();
    EnableMetrics();
    metrics_on_ = true;
  }
  if (!options_.audit_path.empty()) {
    DecisionAudit::Global().Clear();
    DecisionAudit::Global().Enable();
    audit_on_ = true;
  }
}

ObsSession::~ObsSession() { Finish(); }

void ObsSession::Finish() {
  if (finished_) return;
  finished_ = true;
  if (trace_on_) {
    TraceRecorder& recorder = TraceRecorder::Global();
    recorder.Disable();
    const bool jsonl = EndsWith(options_.trace_path, ".jsonl");
    const bool ok = jsonl ? recorder.ExportJsonl(options_.trace_path)
                          : recorder.ExportChromeJson(options_.trace_path);
    if (!ok) {
      std::fprintf(stderr, "obs: failed to write trace to %s\n",
                   options_.trace_path.c_str());
    }
  }
  if (metrics_on_) {
    DisableMetrics();
    const std::string text = EndsWith(options_.metrics_path, ".json")
                                 ? MetricsRegistry::Global().JsonSnapshot()
                                 : MetricsRegistry::Global().PrometheusText();
    std::ofstream out(options_.metrics_path);
    out << text;
    if (!out.good()) {
      std::fprintf(stderr, "obs: failed to write metrics to %s\n",
                   options_.metrics_path.c_str());
    }
  }
  if (audit_on_) {
    DecisionAudit::Global().Disable();
    if (!DecisionAudit::Global().ExportJsonl(options_.audit_path)) {
      std::fprintf(stderr, "obs: failed to write audit log to %s\n",
                   options_.audit_path.c_str());
    }
  }
}

}  // namespace scan::obs
