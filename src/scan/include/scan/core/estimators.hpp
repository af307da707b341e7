#pragma once

// The scheduler's time estimators (§III-A-2, Eq. 2):
//
//   ETT(j) = elapsed_j + sum_{i >= S_j} (EQT_i + EET_i(j))
//
// EET_i — estimated execution time of stage i — is "a linear function of
// the number of job input records derived from profiling data": we evaluate
// the (possibly regression-fitted) PipelineModel at the job's planned
// thread count. A job's size and plan are fixed at admission, so its EET
// table is too: StageExecTimes tabulates it once per job, and every ETT
// after that is a fold over the table.
//
// EQT_i — estimated queueing time for stage i — is maintained online as an
// exponentially weighted moving average of observed waits, so the estimate
// tracks load changes. The estimator keeps the current EQT of every stage
// in one table, which a pricing pass reads as it is.

#include <span>
#include <stdexcept>
#include <vector>

#include "scan/common/stats.hpp"
#include "scan/common/units.hpp"
#include "scan/gatk/pipeline_model.hpp"

namespace scan::core {

/// Online queue-wait estimator, one EWMA per pipeline stage.
class QueueTimeEstimator {
 public:
  /// alpha: EWMA weight of the newest observation.
  explicit QueueTimeEstimator(std::size_t stages, double alpha = 0.2);

  /// Records an observed wait for stage `i`.
  void Observe(std::size_t stage, SimTime wait);

  /// EQT_i; 0 until the first observation.
  [[nodiscard]] SimTime Estimate(std::size_t stage) const;

  /// EQT_i of every stage, in stage order (0 until a stage's first
  /// observation).
  [[nodiscard]] std::span<const SimTime> estimates() const {
    return estimates_;
  }

  [[nodiscard]] std::size_t stage_count() const { return ewmas_.size(); }

 private:
  std::vector<Ewma> ewmas_;
  std::vector<SimTime> estimates_;  ///< ewmas_[i].value_or(0), kept in step
};

/// Fills `table` with EET_i(j) of every stage: T_i(thread_plan[i],
/// job_size), keeping the vector's capacity. Throws std::invalid_argument
/// unless the plan has one entry per stage.
void StageExecTimes(const gatk::PipelineModel& model,
                    std::span<const int> thread_plan, DataSize job_size,
                    std::vector<SimTime>& table);

/// Remaining time only: EQT_i + EET_i summed over stages >= current_stage,
/// in stage order. `eqt` and `stage_exec` hold one entry per stage (a
/// mismatch throws std::invalid_argument).
[[nodiscard]] inline SimTime EstimateRemainingTime(
    std::span<const SimTime> eqt, std::span<const SimTime> stage_exec,
    std::size_t current_stage) {
  if (eqt.size() != stage_exec.size()) {
    throw std::invalid_argument("EstimateRemainingTime: table size mismatch");
  }
  SimTime total{0.0};
  for (std::size_t i = current_stage; i < stage_exec.size(); ++i) {
    total += eqt[i];
    total += stage_exec[i];
  }
  return total;
}

/// Estimated Total Time of a job (Eq. 2). `elapsed` is the time since the
/// job entered the system; `current_stage` is the stage it is queued for
/// (0-based).
[[nodiscard]] inline SimTime EstimateTotalTime(
    std::span<const SimTime> eqt, std::span<const SimTime> stage_exec,
    SimTime elapsed, std::size_t current_stage) {
  return elapsed + EstimateRemainingTime(eqt, stage_exec, current_stage);
}

}  // namespace scan::core
