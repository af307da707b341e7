#include "scan/core/estimators.hpp"

#include <stdexcept>

namespace scan::core {

QueueTimeEstimator::QueueTimeEstimator(std::size_t stages, double alpha) {
  if (stages == 0) {
    throw std::invalid_argument("QueueTimeEstimator: zero stages");
  }
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("QueueTimeEstimator: alpha outside (0, 1]");
  }
  ewmas_.assign(stages, Ewma(alpha));
  estimates_.assign(stages, SimTime{0.0});
}

void QueueTimeEstimator::Observe(std::size_t stage, SimTime wait) {
  if (stage >= ewmas_.size()) {
    throw std::out_of_range("QueueTimeEstimator::Observe: bad stage");
  }
  ewmas_[stage].Add(wait.value());
  estimates_[stage] = SimTime{ewmas_[stage].value()};
}

SimTime QueueTimeEstimator::Estimate(std::size_t stage) const {
  if (stage >= estimates_.size()) {
    throw std::out_of_range("QueueTimeEstimator::Estimate: bad stage");
  }
  return estimates_[stage];
}

void StageExecTimes(const gatk::PipelineModel& model,
                    std::span<const int> thread_plan, DataSize job_size,
                    std::vector<SimTime>& table) {
  if (thread_plan.size() != model.stage_count()) {
    throw std::invalid_argument("StageExecTimes: plan size mismatch");
  }
  table.clear();
  for (std::size_t i = 0; i < thread_plan.size(); ++i) {
    table.push_back(model.ThreadedTime(i, thread_plan[i], job_size));
  }
}

}  // namespace scan::core
