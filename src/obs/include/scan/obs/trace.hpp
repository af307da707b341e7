#pragma once

// Low-overhead structured trace recorder for the SCAN scheduler and live
// runtime. Instrumentation sites emit typed events (job arrival, shard
// split, queue enqueue/dequeue, worker hire/release/failure/retry,
// stage-slice execution, completion-ticket delivery, scheduler decisions)
// into per-thread ring buffers; exporters turn the merged stream into
// Chrome/Perfetto trace JSON or JSONL.
//
// Cost model: when tracing is disabled every instrumentation site pays one
// relaxed atomic load and a predicted-not-taken branch (TraceEnabled()).
// When enabled, Emit appends to the calling thread's lane without taking a
// lock (lanes are registered once per thread under a mutex, then cached
// through an epoch-validated thread_local pointer).
//
// Determinism contract: events are stamped with *modeled* (simulation)
// time supplied by the caller, never with wall time, and recording never
// draws randomness or feeds back into scheduling state. A simulator run
// is single-threaded, so it records into a single lane; under the
// runtime's virtual clock the coordinator's decision events are likewise
// single-lane, while executor threads record their slice events into their
// own lanes. Enabling tracing therefore cannot perturb the 15-seed
// sim <-> runtime parity suite.
//
// Quiescence contract: Enable/Disable/Clear/Collect/Export must only be
// called while no other thread is emitting (before a run starts or after
// its pools have drained). Emit itself is safe from any thread.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace scan::obs {

/// Typed trace events. Payload conventions (a/b/track/value) per kind:
///  kJobArrival     instant  a=job_id                     value=size_du
///  kShardSplit     instant  a=job_id  b=shard_count      value=shard_du
///  kQueueEnqueue   instant  a=job_id  b=stage
///  kQueueDequeue   instant  a=job_id  b=stage            value=wait_tu
///  kWorkerHire     instant  a=job_id  b=tier  track=key  value=threads
///  kWorkerRelease  instant  track=worker_key
///  kWorkerFailure  instant  a=job_id  b=stage track=worker_key
///  kTaskRetry      instant  a=job_id  b=stage
///  kStageExec      span     a=job_id  b=stage track=key  value=threads
///  kStageSlice     span     a=ticket  b=slice track=lane
///  kTicketDelivery instant  a=ticket
///  kJobComplete    instant  a=job_id                     value=latency_tu
///  kDecision       instant  a=job_id  b=stage track=HireChoice
///                           value=delay_cost-hire_cost (0 if not priced)
///  kStraggle       instant  a=job_id  b=stage track=key value=factor
///  kWorkerFlap     instant  a=job_id  b=stage track=worker_key
///  kBreakerOpen    instant  track=worker_key             value=cooldown_tu
///  kCheckpoint     instant  a=job_id  b=stage            value=stage_done
///  kRetryBackoff   instant  a=job_id  b=stage            value=backoff_tu
///  kSpeculativeLaunch instant a=job_id b=stage track=straggler_key
///  kSpeculativeWasted instant a=job_id b=stage track=worker_key
///  kJobAbandoned   instant  a=job_id  b=stage            value=retries
///
/// Causal span/parent conventions (ids from span.hpp; 0 = none/root):
///  kJobArrival        span=JobSpan                 parent=0
///  kQueueEnqueue      span=StageSpan(+copy bit)    parent=caller's cause
///  kQueueDequeue/kStageExec  same attempt span     parent=enqueue cause
///  kDecision/kWorkerHire     span=StageSpan        parent=JobSpan
///  kStraggle          span=StageSpan(+copy)        parent=JobSpan
///  kWorkerFailure/kWorkerFlap/kCheckpoint span=StageSpan parent=JobSpan
///  kTaskRetry/kRetryBackoff  span=StageSpan(epoch) parent=StageSpan(epoch-1)
///  kSpeculativeLaunch span=StageSpan(copy=1)       parent=StageSpan(copy=0)
///  kSpeculativeWasted span=StageSpan(stale epoch)
///  kStageSlice        span=SliceSpan(ticket,slice) parent=exec attempt span
///  kTicketDelivery    span=exec attempt span
///  kJobComplete       span=JobSpan                 parent=final attempt span
///  kJobAbandoned      span=JobSpan                 parent=lost attempt span
enum class EventKind : std::uint8_t {
  kJobArrival = 0,
  kShardSplit,
  kQueueEnqueue,
  kQueueDequeue,
  kWorkerHire,
  kWorkerRelease,
  kWorkerFailure,
  kTaskRetry,
  kStageExec,
  kStageSlice,
  kTicketDelivery,
  kJobComplete,
  kDecision,
  kStraggle,
  kWorkerFlap,
  kBreakerOpen,
  kCheckpoint,
  kRetryBackoff,
  kSpeculativeLaunch,
  kSpeculativeWasted,
  kJobAbandoned,
};

[[nodiscard]] const char* EventKindName(EventKind kind);

/// Span kinds carry a duration; instants do not.
[[nodiscard]] inline bool IsSpan(EventKind kind) {
  return kind == EventKind::kStageExec || kind == EventKind::kStageSlice;
}

/// One recorded event. Times are modeled simulation TU (doubles, so the
/// recorder depends on nothing but scan_common).
///
/// `span` names the causal node this event belongs to and `parent` the
/// node that caused it (0 = root / unlinked). Ids follow the structural
/// scheme in span.hpp, so both engines mint identical values.
struct TraceEvent {
  double time_tu = 0.0;
  double duration_tu = 0.0;  ///< spans only; 0 for instants
  std::uint64_t track = 0;   ///< worker key / lane / choice, per kind
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double value = 0.0;
  std::uint64_t span = 0;    ///< causal node id (span.hpp), 0 = none
  std::uint64_t parent = 0;  ///< causal parent node id, 0 = root
  EventKind kind = EventKind::kJobArrival;
};

namespace internal {
/// The one flag every instrumentation site reads. Inline so the check
/// compiles to a single relaxed load + branch with no function call.
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

/// True when the global recorder is collecting. Relaxed: sites may observe
/// the transition late by a few events, which the quiescence contract
/// (Enable/Disable only between runs) makes irrelevant.
[[nodiscard]] inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Process-wide trace recorder. One instance (Global()); per-thread lanes.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  /// Cumulative recorder counters (approximate while threads emit).
  struct Stats {
    std::uint64_t events_recorded = 0;  ///< accepted Emit calls
    std::uint64_t events_dropped = 0;   ///< ring overwrites (oldest lost)
    std::size_t lanes = 0;              ///< thread lanes ever attached
  };

  [[nodiscard]] static TraceRecorder& Global();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Starts collecting. Lanes grow lazily up to `capacity_per_thread`
  /// events, then overwrite their oldest entry (bounded memory).
  void Enable(std::size_t capacity_per_thread = kDefaultCapacity);

  /// Stops collecting; recorded events stay available for export.
  void Disable();

  /// Discards all lanes and counters. Invalidates every thread's cached
  /// lane (they re-attach on next Emit).
  void Clear();

  /// Records one event into the calling thread's lane (no-op while
  /// disabled). Callers on hot paths should branch on TraceEnabled()
  /// first so the disabled cost stays one load + branch.
  void Emit(const TraceEvent& event);

  /// The calling thread's lane id (attaching if needed). Meaningful only
  /// while enabled; used to tag executor-thread events.
  [[nodiscard]] std::uint32_t CurrentLane();

  /// Merges every lane into one chronologically sorted stream. Ties keep
  /// lane-registration order (stable), so single-threaded runs replay in
  /// exact emission order.
  [[nodiscard]] std::vector<TraceEvent> Collect() const;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] bool enabled() const { return TraceEnabled(); }
  [[nodiscard]] std::size_t capacity_per_thread() const;

  /// Writes the merged stream as Chrome trace-event JSON ("traceEvents"
  /// array; 1 TU = 1000 trace microseconds). Loadable in Perfetto /
  /// chrome://tracing. Parent->child span edges additionally emit flow
  /// event pairs (ph "s"/"f") so Perfetto draws causal arrows. False on
  /// I/O failure.
  bool ExportChromeJson(const std::string& path) const;

  /// Writes one JSON object per line ({"t","dur","kind","track","a","b",
  /// "v","span","parent"}), times in TU with full round-trip precision.
  bool ExportJsonl(const std::string& path) const;

 private:
  TraceRecorder() = default;
  struct Lane;
  struct Impl;
  [[nodiscard]] Lane& Local();
  [[nodiscard]] Impl& impl() const;
};

/// Emission helper: TraceEmit(kind, t, track, a, b, value, duration,
/// span, parent). Span/parent default to 0 (unlinked) so legacy sites
/// stay valid.
inline void TraceEmit(EventKind kind, double time_tu, std::uint64_t track,
                      std::uint64_t a, std::uint64_t b = 0,
                      double value = 0.0, double duration_tu = 0.0,
                      std::uint64_t span = 0, std::uint64_t parent = 0) {
  TraceRecorder::Global().Emit(
      TraceEvent{time_tu, duration_tu, track, a, b, value, span, parent, kind});
}

}  // namespace scan::obs
