#include "scan/runtime/runtime_platform.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "scan/common/str.hpp"
#include "scan/obs/trace.hpp"

namespace scan::runtime {

namespace {

/// Completion ring size: an executor that finds this many messages
/// undrained blocks until the coordinator drains them.
constexpr std::size_t kCompletionCapacity = 1024;

/// The host's own options, checked before anything is built: a wall-clock
/// TU scale that is not a positive finite number puts every calendar
/// deadline in the past (or nowhere), and the serving loop would spin.
RuntimeOptions Checked(RuntimeOptions options) {
  if (options.clock == ClockMode::kWall &&
      !(std::isfinite(options.wall_seconds_per_tu) &&
        options.wall_seconds_per_tu > 0.0)) {
    throw std::invalid_argument(StrFormat(
        "RuntimeOptions::wall_seconds_per_tu is %g; the wall clock needs a "
        "finite value > 0",
        options.wall_seconds_per_tu));
  }
  return options;
}

}  // namespace

RuntimePlatform::RuntimePlatform(const core::SimulationConfig& config,
                                 gatk::PipelineModel model,
                                 std::uint64_t seed, RuntimeOptions options)
    : options_(Checked(std::move(options))),
      engine_(config, std::move(model), seed, options_, this,
              options_.ingest),
      kernel_(options_.clock == ClockMode::kWall ? SpinKernel::Calibrate()
                                                 : SpinKernel{}),
      completions_(kCompletionCapacity),
      drained_(completions_.capacity()),
      exec_pool_(std::make_unique<ThreadPool>(options_.exec_threads)) {}

RuntimePlatform::~RuntimePlatform() = default;

RuntimeReport RuntimePlatform::Serve() {
  if (ran_) throw std::logic_error("RuntimePlatform::Serve: already ran");
  ran_ = true;

  // The clock starts here, not at construction: wall time must be zero at
  // the first admission decision.
  const auto wall_start = std::chrono::steady_clock::now();
  if (options_.clock == ClockMode::kWall) {
    wall_.emplace(options_.wall_seconds_per_tu);
  } else {
    // The virtual-clock gate runs slices on this thread (Claim), so the
    // completion ring keeps a slot for its pushes.
    completions_.BindConsumer();
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
  report.peak_tickets_outstanding = book_.peak_outstanding();
  report.ticket_slots = book_.slots();
  report.exec_threads = exec_pool_->thread_count();
  report.clock = options_.clock;
  return report;
}

void RuntimePlatform::RunWall() {
  sim::Simulator& calendar = engine_.calendar();
  const SimTime horizon = engine_.config().duration;
  for (;;) {
    // Everything due by now fires in (time, sequence) order, including the
    // completions delivered below; the calendar's clock never runs ahead
    // of the wall clock.
    const SimTime now = wall_->Now();
    calendar.RunUntil(std::min(now, horizon));
    if (now >= horizon) break;
    // Quiescent early exit: nothing in flight and no future event inside
    // the horizon means nothing can change any more.
    if (book_.outstanding() == 0 && calendar.NextEventTime() > horizon) break;
    // Sleep until the next event, the horizon, or a completion — whichever
    // comes first — then put every completion that arrived on the calendar
    // at its arrival instant.
    const SimTime next = std::min(calendar.NextEventTime(), horizon);
    const std::size_t n =
        completions_.DrainUntil(drained_, wall_->DeadlineFor(next));
    const SimTime arrived = wall_->Now();
    for (std::size_t i = 0; i < n; ++i) {
      DeliverCompletion(drained_[i].ticket, arrived);
    }
    unconsumed_ -= n;
  }
}

void RuntimePlatform::DeliverCompletion(std::uint64_t ticket, SimTime arrived) {
  engine_.calendar().ScheduleAt(arrived, [this, ticket](sim::Simulator& s) {
    TicketBook::Slot& task = BookedSlot(ticket);
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::EventKind::kTicketDelivery, s.Now().value(), 0,
                     ticket, 0, 0.0, 0.0, task.assignment.span);
    }
    // Copied out first: the engine may book the freed slot again.
    const core::Assignment a = task.assignment;
    const bool orphaned = task.orphaned;
    book_.Release(task);
    if (orphaned) return;  // its worker crashed; the result is lost
    engine_.OnTaskComplete(a.job_id, a.stage, a.worker_key, a.epoch, a.extra);
  });
}

void RuntimePlatform::MarkReported(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    BookedSlot(drained_[i].ticket).reported = true;
  }
  unconsumed_ -= n;
}

TicketBook::Slot& RuntimePlatform::BookedSlot(std::uint64_t ticket) {
  TicketBook::Slot* slot = book_.Find(ticket);
  if (slot == nullptr) {
    throw std::logic_error("no dispatched task holds ticket " +
                           std::to_string(ticket));
  }
  return *slot;
}

void RuntimePlatform::DrainInFlight() {
  while (unconsumed_ > 0) unconsumed_ -= completions_.Drain(drained_);
  book_.Clear();
}

void RuntimePlatform::Execute(const core::Assignment& assignment) {
  // Under the virtual clock the slices do token work; under the wall
  // clock they burn the (straggle-extended) duration in real CPU, and the
  // boot delay becomes a real sleep.
  const double seconds_per_tu = wall_ ? wall_->seconds_per_tu() : 0.0;
  TicketBook::Slot& slot = book_.Acquire(assignment);
  slot.pre_delay_seconds =
      (assignment.start - engine_.calendar().Now()).value() * seconds_per_tu;
  slot.burn_seconds =
      (assignment.actual_end - assignment.start).value() * seconds_per_tu;
  LaunchSlices(slot, *exec_pool_, kernel_, completions_);
  // A message is owed from here on (the coordinator alone drains the
  // completion queue, so none can be consumed before this).
  ++unconsumed_;
  ++stage_tasks_dispatched_;
  peak_pool_queue_depth_ =
      std::max(peak_pool_queue_depth_, exec_pool_->queue_depth());
}

bool RuntimePlatform::Claim(std::uint64_t ticket) {
  if (!wall_) {
    // The gate: the terminal event waits for the physical completion,
    // draining (and marking) whatever else arrives first. While it waits
    // the coordinator runs queued slices itself, draining before each one
    // so it pushes at most one message between drains (the ring keeps a
    // slot for that push), and blocks only when no slice is queued.
    TicketBook::Slot& slot = BookedSlot(ticket);
    while (!slot.reported) {
      MarkReported(completions_.TryDrain(drained_));
      if (slot.reported) break;
      if (!exec_pool_->TryRunOne()) MarkReported(completions_.Drain(drained_));
    }
    // One per claimed ticket, whether or not its message came first: how
    // many a trace records must not depend on thread timing.
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::EventKind::kTicketDelivery,
                     engine_.calendar().Now().value(), 0, ticket, 0, 0.0, 0.0,
                     slot.assignment.span);
    }
    book_.Release(slot);
    return true;
  }
  // A wall-clock crash or flap timer. The physical task may have beaten
  // the modeled fault; then the fault simply does not happen (wall mode
  // tracks physical reality). Otherwise its result is orphaned.
  TicketBook::Slot* slot = book_.Find(ticket);
  if (slot == nullptr || slot->orphaned) return false;
  slot->orphaned = true;
  return true;
}

void RuntimePlatform::OnDispatchRound(double micros) {
  dispatch_micros_.Add(micros);
}

}  // namespace scan::runtime
