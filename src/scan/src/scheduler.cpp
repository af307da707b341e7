#include "scan/core/scheduler.hpp"

#include <stdexcept>

#include "scan/core/engine.hpp"

namespace scan::core {

Scheduler::Scheduler(const SimulationConfig& config, gatk::PipelineModel model,
                     std::uint64_t seed, SchedulerOptions options)
    : engine_(std::make_unique<Engine>(config, std::move(model), seed,
                                       std::move(options))) {}

Scheduler::~Scheduler() = default;

ThreadPlan Scheduler::PlanFor(DataSize size) const {
  return engine_->PlanFor(size);
}

RunMetrics Scheduler::Run() {
  if (ran_) throw std::logic_error("Scheduler::Run: already ran");
  ran_ = true;
  engine_->Start();
  engine_->calendar().RunUntil(engine_->config().duration);
  return engine_->Finish();
}

}  // namespace scan::core
