#pragma once

// Sim <-> runtime parity oracle: the cross-validation contract of the live
// runtime. Under the runtime's virtual clock, a pinned seed must make the
// simulator and the live platform produce the *same run* — the identical
// per-job stage schedule (worker, threads, start, end for every
// assignment), the identical completions, and a bit-identical
// MetricsFingerprint — even though the runtime executed every stage task
// on real OS threads. Both hosts run one mechanics core (core::Engine),
// so agreement here checks the host seam: ticket gating (each terminal
// event waits for its assignment's completion message), the slice fan-out
// onto the execution pool, and the shared calendar's event order.

#include <cstdint>
#include <string>
#include <vector>

#include "scan/core/config.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/runtime/runtime_platform.hpp"
#include "scan/testkit/digest.hpp"

namespace scan::testkit {

/// Outcome of one sim-vs-runtime comparison.
struct ParityResult {
  std::uint64_t seed = 0;
  MetricsFingerprint sim_fingerprint;
  MetricsFingerprint runtime_fingerprint;
  /// Assignments / completed jobs compared (identical on both sides when
  /// ok(); the sim's counts otherwise).
  std::size_t stage_records = 0;
  std::size_t job_records = 0;
  /// Human-readable differences; empty means bit-for-bit agreement.
  std::vector<std::string> mismatches;
  /// Per-job critical paths and profile-ledger rows compared (non-zero
  /// only under SCAN_OBS_FULL=1, which runs both engines with tracing,
  /// metric sketches, and audit all enabled, derives both artifacts from
  /// each side's span graph, and also compares the decision audit's hire
  /// and plan records in order).
  std::size_t critical_paths_compared = 0;
  std::size_t ledger_rows_compared = 0;

  [[nodiscard]] bool ok() const { return mismatches.empty(); }
  [[nodiscard]] std::string Describe() const;
};

/// Runs the discrete-event simulator and the live runtime (forced to the
/// virtual clock, schedule recording on) with the same config and seed
/// and compares the full parity payload. Remaining `runtime_options`
/// fields (forced plan, trace, timeline sampling) are honored; the
/// simulator runs with their core::SchedulerOptions part.
[[nodiscard]] ParityResult CheckSimRuntimeParity(
    const core::SimulationConfig& config, const gatk::PipelineModel& model,
    std::uint64_t seed, runtime::RuntimeOptions runtime_options = {});

/// Same, on the paper's hardcoded GATK pipeline (the legacy default).
[[nodiscard]] ParityResult CheckSimRuntimeParity(
    const core::SimulationConfig& config, std::uint64_t seed,
    runtime::RuntimeOptions runtime_options = {});

}  // namespace scan::testkit
