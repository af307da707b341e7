#include "scan/runtime/live_worker.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "scan/common/str.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"

namespace scan::runtime {

namespace {

/// Token work per slice under the virtual clock — enough to force real pool
/// scheduling and memory traffic, small enough not to dominate the run.
constexpr std::uint64_t kTokenIterations = 256;

/// What one task's slices share: the task, the kernel, and the countdown
/// whose last decrement reports the ticket. Heap-owned and shared by every
/// slice so the worker (and even the platform's worker map entry) may be
/// destroyed while slices are still in flight.
struct SliceGroup {
  SliceGroup(const StageTask& t, SpinKernel k, CompletionQueue* queue)
      : task(t), kernel(k), completions(queue), remaining(t.slices) {}

  const StageTask task;
  const SpinKernel kernel;
  CompletionQueue* const completions;
  std::atomic<int> remaining;
};

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

void LiveWorker::Execute(const StageTask& task) {
  // Checked before anything is queued: a task with no slice would never
  // report its ticket, and the coordinator would wait for it forever.
  if (task.slices < 1) {
    throw std::invalid_argument(StrFormat(
        "LiveWorker::Execute: ticket %llu on worker %llu has %d slices; a "
        "stage task needs at least one",
        static_cast<unsigned long long>(task.ticket),
        static_cast<unsigned long long>(key_), task.slices));
  }
  const auto group = std::make_shared<SliceGroup>(task, kernel_, completions_);
  // All slices go to the pool in one handoff.
  std::vector<UniqueTask> slices;
  slices.reserve(static_cast<std::size_t>(task.slices));
  for (int slice = 0; slice < task.slices; ++slice) {
    slices.emplace_back([group, slice] { RunSlice(*group, slice); });
  }
  pool_->Submit(slices);
}

}  // namespace scan::runtime
