#include "scan/runtime/live_worker.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "scan/common/str.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"

namespace scan::runtime {

namespace {

/// Token work per slice under the virtual clock — enough to force real pool
/// scheduling and memory traffic, small enough not to dominate the run.
constexpr std::uint64_t kTokenIterations = 256;

void RunSlice(SliceGroup& group, int slice) {
  const StageTask& task = group.task;
  if (task.pre_delay_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(task.pre_delay_seconds));
  }
  if (task.burn_seconds > 0.0) {
    group.kernel.Burn(task.burn_seconds);
  } else {
    group.kernel.BurnIterations(kTokenIterations);
  }
  if (obs::TraceEnabled()) {
    // Executor-thread span on its own track band (1000 + lane), stamped
    // with modeled time so virtual-mode traces stay deterministic.
    obs::TraceEmit(obs::EventKind::kStageSlice, task.sim_start_tu,
                   1000 + obs::TraceRecorder::Global().CurrentLane(),
                   task.ticket, static_cast<std::uint64_t>(slice), 0.0,
                   task.sim_exec_tu,
                   obs::SliceSpan(task.ticket, static_cast<std::uint64_t>(slice)),
                   task.parent_span);
  }
  if (group.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (obs::MetricsEnabled()) {
      obs::PoolMetrics::Global().completions_pushed->Increment();
    }
    group.completions->Push({task.ticket});
  }
}

}  // namespace

void LiveWorker::Execute(const StageTask& task, SliceGroup& group) {
  // Checked before anything is queued: a task with no slice would never
  // report its ticket, and the coordinator would wait for it forever.
  if (task.slices < 1) {
    throw std::invalid_argument(StrFormat(
        "LiveWorker::Execute: ticket %llu on worker %llu has %d slices; a "
        "stage task needs at least one",
        static_cast<unsigned long long>(task.ticket),
        static_cast<unsigned long long>(key_), task.slices));
  }
  group.task = task;
  group.kernel = kernel_;
  group.completions = completions_;
  group.remaining.store(task.slices, std::memory_order_relaxed);
  // All slices go to the pool in one handoff (the pool's queue lock
  // publishes the group to the executors).
  pool_->Submit(static_cast<std::size_t>(task.slices),
                [&group](std::size_t slice) -> UniqueTask {
                  return [&group, slice] {
                    RunSlice(group, static_cast<int>(slice));
                  };
                });
}

}  // namespace scan::runtime
