#include "scan/runtime/live_worker.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <thread>

#include "scan/obs/metrics.hpp"
#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"

namespace scan::runtime {

namespace {

/// Token work per slice under the virtual clock — enough to force real pool
/// scheduling and memory traffic, small enough not to dominate the run.
constexpr std::uint64_t kTokenIterations = 256;

/// Shared countdown for one task's slices. Heap-owned and shared by every
/// slice so the worker (and even the platform's worker map entry) may be
/// destroyed while slices are still in flight.
struct SliceGroup {
  std::atomic<int> remaining{0};
  std::uint64_t ticket = 0;
  CompletionQueue* completions = nullptr;
};

}  // namespace

void LiveWorker::Execute(const StageTask& task) {
  assert(task.slices >= 1);
  auto group = std::make_shared<SliceGroup>();
  group->remaining.store(task.slices, std::memory_order_relaxed);
  group->ticket = task.ticket;
  group->completions = completions_;

  for (int slice = 0; slice < task.slices; ++slice) {
    pool_->Submit(UniqueTask([group, kernel = kernel_,
                              pre = task.pre_delay_seconds,
                              burn = task.burn_seconds, slice,
                              sim_start = task.sim_start_tu,
                              sim_exec = task.sim_exec_tu,
                              parent_span = task.parent_span] {
      if (pre > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(pre));
      }
      if (burn > 0.0) {
        kernel.Burn(burn);
      } else {
        kernel.BurnIterations(kTokenIterations);
      }
      if (obs::TraceEnabled()) {
        // Executor-thread span on its own track band (1000 + lane), stamped
        // with modeled time so virtual-mode traces stay deterministic.
        obs::TraceEmit(obs::EventKind::kStageSlice, sim_start,
                       1000 + obs::TraceRecorder::Global().CurrentLane(),
                       group->ticket, static_cast<std::uint64_t>(slice), 0.0,
                       sim_exec,
                       obs::SliceSpan(group->ticket,
                                      static_cast<std::uint64_t>(slice)),
                       parent_span);
      }
      if (group->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (obs::MetricsEnabled()) {
          obs::PoolMetrics::Global().completions_pushed->Increment();
        }
        group->completions->Push({group->ticket});
      }
    }));
  }
}

}  // namespace scan::runtime
