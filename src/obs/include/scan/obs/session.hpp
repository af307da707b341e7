#pragma once

// ObsSession: RAII wiring from command-line flags to the observability
// subsystems. Construction enables whatever the options request (trace
// recorder, metrics registry, decision audit); Finish() — or
// destruction — exports each to its path and disables collection again.
//
// Intended use in bench/example binaries:
//   const auto obs_session = bench::MakeObsSession(flags);
//   ... run the exhibit ...
//   // exports happen when obs_session leaves scope
//
// Path conventions: a trace path ending in ".jsonl" exports JSONL,
// anything else Chrome trace JSON; a metrics path ending in ".json"
// exports the JSON snapshot, anything else Prometheus text.

#include <cstddef>
#include <string>

namespace scan::obs {

struct ObsOptions {
  std::string trace_path;    ///< empty = tracing stays off
  std::string metrics_path;  ///< empty = metrics stay off
  std::string audit_path;    ///< empty = decision audit stays off
  std::size_t trace_capacity = 0;  ///< 0 = recorder default per-thread ring
};

class ObsSession {
 public:
  explicit ObsSession(ObsOptions options);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Exports every enabled subsystem to its path and disables collection.
  /// Idempotent; export failures go to stderr (observability must never
  /// fail the exhibit).
  void Finish();

  /// True when any subsystem was enabled by this session.
  [[nodiscard]] bool active() const {
    return trace_on_ || metrics_on_ || audit_on_;
  }

 private:
  ObsOptions options_;
  bool trace_on_ = false;
  bool metrics_on_ = false;
  bool audit_on_ = false;
  bool finished_ = false;
};

}  // namespace scan::obs
