#include "scan/runtime/runtime_platform.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"

namespace scan::runtime {

core::SchedulerOptions EngineOptions(const RuntimeOptions& options) {
  core::SchedulerOptions engine;
  engine.forced_plan = options.forced_plan;
  engine.allocation_price_hint = options.allocation_price_hint;
  engine.timeline_sample_period = options.timeline_sample_period;
  engine.trace = options.trace;
  engine.record_schedule = options.record_schedule;
  return engine;
}

RuntimePlatform::RuntimePlatform(const core::SimulationConfig& config,
                                 gatk::PipelineModel model,
                                 std::uint64_t seed, RuntimeOptions options)
    : options_(std::move(options)),
      engine_(config, std::move(model), seed, EngineOptions(options_), this,
              options_.ingest),
      kernel_(options_.clock == ClockMode::kWall ? SpinKernel::Calibrate()
                                                 : SpinKernel{}),
      completions_(options_.completion_capacity) {
  dispatch_micros_hist_ = &obs::MetricsRegistry::Global().GetHistogram(
      "scan_dispatch_micros", "Coordinator time per dispatch round (us)",
      {1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0});
  exec_pool_ = std::make_unique<ThreadPool>(options_.exec_threads);
}

RuntimePlatform::~RuntimePlatform() = default;

RuntimeReport RuntimePlatform::Serve() {
  if (ran_) throw std::logic_error("RuntimePlatform::Serve: already ran");
  ran_ = true;

  // The clock starts here, not at construction: wall time must be zero at
  // the first admission decision.
  const auto wall_start = std::chrono::steady_clock::now();
  if (options_.clock == ClockMode::kWall) {
    wall_.emplace(options_.wall_seconds_per_tu);
  }
  try {
    engine_.Start();
    if (wall_) {
      RunWall();
    } else {
      engine_.calendar().RunUntil(engine_.config().duration);
    }
  } catch (...) {
    // Executors block on a full completion queue, so a run that throws
    // still collects every message it is owed before the pool is joined.
    DrainInFlight();
    throw;
  }

  // Every dispatched task still owes a message (e.g. tasks orphaned by a
  // crash, or slices finishing just past the horizon); consume them all
  // before the pool can be considered quiescent.
  DrainInFlight();
  exec_pool_->WaitIdle();

  RuntimeReport report;
  report.metrics = engine_.Finish();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  report.wall_seconds = wall.count();
  report.dispatch_micros = dispatch_micros_;
  report.stage_tasks_dispatched = stage_tasks_dispatched_;
  report.pool_tasks_executed = exec_pool_->tasks_executed();
  report.peak_pool_queue_depth = peak_pool_queue_depth_;
  report.exec_threads = exec_pool_->thread_count();
  report.clock = options_.clock;
  return report;
}

void RuntimePlatform::RunWall() {
  sim::Simulator& calendar = engine_.calendar();
  const SimTime horizon = engine_.config().duration;
  for (;;) {
    // Completions that already arrived join the calendar at this instant;
    // then everything due by now fires in (time, sequence) order. The
    // calendar's clock never runs ahead of the wall clock.
    const SimTime now = wall_->Now();
    while (const auto completion = completions_.TryPop()) {
      --unconsumed_;
      DeliverCompletion(completion->ticket, now);
    }
    calendar.RunUntil(std::min(now, horizon));
    if (now >= horizon) break;
    // Quiescent early exit: nothing in flight and no future event inside
    // the horizon means nothing can change any more.
    if (in_flight_.empty() && calendar.NextEventTime() > horizon) break;
    // Sleep until the next event, the horizon, or a completion — whichever
    // comes first.
    const SimTime next = std::min(calendar.NextEventTime(), horizon);
    if (const auto completion = completions_.PopUntil(wall_->DeadlineFor(next))) {
      --unconsumed_;
      DeliverCompletion(completion->ticket, wall_->Now());
    }
  }
}

void RuntimePlatform::DeliverCompletion(std::uint64_t ticket, SimTime arrived) {
  engine_.calendar().ScheduleAt(arrived, [this, ticket](sim::Simulator& s) {
    const auto it = in_flight_.find(ticket);
    if (it == in_flight_.end()) {
      throw std::logic_error("completion message for unknown ticket " +
                             std::to_string(ticket));
    }
    const InFlight task = it->second;
    in_flight_.erase(it);
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::EventKind::kTicketDelivery, s.Now().value(), 0,
                     ticket, 0, 0.0, 0.0, task.assignment.span);
    }
    if (task.orphaned) return;  // its worker crashed; the result is lost
    const core::Assignment& a = task.assignment;
    engine_.OnTaskComplete(a.job_id, a.stage, a.worker_key, a.epoch, a.extra);
  });
}

void RuntimePlatform::WaitForTicket(std::uint64_t ticket) {
  if (reaped_.erase(ticket) > 0) return;
  for (;;) {
    const TaskCompletion completion = completions_.Pop();
    --unconsumed_;
    if (completion.ticket == ticket) {
      if (obs::TraceEnabled()) {
        const auto it = in_flight_.find(ticket);
        const std::uint64_t span = it != in_flight_.end()
                                       ? it->second.assignment.span
                                       : obs::kSpanNone;
        obs::TraceEmit(obs::EventKind::kTicketDelivery,
                       engine_.calendar().Now().value(), 0, ticket, 0, 0.0,
                       0.0, span);
      }
      return;
    }
    reaped_.insert(completion.ticket);
  }
}

void RuntimePlatform::DrainInFlight() {
  while (unconsumed_ > 0) {
    (void)completions_.Pop();
    --unconsumed_;
  }
  reaped_.clear();
  in_flight_.clear();
}

void RuntimePlatform::OnHire(std::uint64_t worker_key, int threads) {
  live_workers_.emplace(worker_key,
                        std::make_unique<LiveWorker>(worker_key, threads,
                                                     *exec_pool_, completions_,
                                                     kernel_));
}

void RuntimePlatform::OnReconfigure(std::uint64_t worker_key, int threads) {
  live_workers_.at(worker_key)->Configure(threads);
}

void RuntimePlatform::OnRelease(std::uint64_t worker_key) {
  // Safe with slices still running: they share their slice group, not the
  // worker (see live_worker.hpp).
  live_workers_.erase(worker_key);
}

void RuntimePlatform::Execute(const core::Assignment& assignment) {
  // Under the virtual clock the slices do token work; under the wall
  // clock they burn the (straggle-extended) duration in real CPU, and the
  // boot delay becomes a real sleep.
  in_flight_.emplace(assignment.ticket, InFlight{assignment});
  ++unconsumed_;
  ++stage_tasks_dispatched_;
  const double seconds_per_tu = wall_ ? wall_->seconds_per_tu() : 0.0;
  const SimTime actual_exec = assignment.actual_end - assignment.start;
  StageTask task;
  task.ticket = assignment.ticket;
  task.slices = assignment.threads;
  task.parent_span = assignment.span;
  task.pre_delay_seconds =
      (assignment.start - engine_.calendar().Now()).value() * seconds_per_tu;
  task.burn_seconds = actual_exec.value() * seconds_per_tu;
  task.sim_start_tu = assignment.start.value();
  task.sim_exec_tu = actual_exec.value();
  live_workers_.at(assignment.worker_key)->Execute(task);
  peak_pool_queue_depth_ =
      std::max(peak_pool_queue_depth_, exec_pool_->queue_depth());
}

bool RuntimePlatform::Claim(std::uint64_t ticket) {
  if (!wall_) {
    WaitForTicket(ticket);
    in_flight_.erase(ticket);
    return true;
  }
  // A wall-clock crash or flap timer. The physical task may have beaten
  // the modeled fault; then the fault simply does not happen (wall mode
  // tracks physical reality). Otherwise its result is orphaned.
  const auto it = in_flight_.find(ticket);
  if (it == in_flight_.end() || it->second.orphaned) return false;
  it->second.orphaned = true;
  return true;
}

void RuntimePlatform::OnDispatchRound(double micros) {
  dispatch_micros_.Add(micros);
  if (obs::MetricsEnabled()) dispatch_micros_hist_->Observe(micros);
}

}  // namespace scan::runtime
