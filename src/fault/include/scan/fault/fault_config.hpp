#pragma once

// Fault-model knobs (PR 5).
//
// The paper's §III elasticity analysis treats a worker loss as a total
// restart of the in-flight shard. This config generalizes that into the
// fault model production genomics stacks actually face: crashes (worker
// destroyed), flaps (worker survives but drops its task), stragglers
// (task runs a constant factor slower than its modeled T_i(t,d)), plus
// the recovery machinery — per-stage checkpoints, capped-exponential
// retry backoff with a per-job budget, a per-worker circuit breaker, and
// speculative re-execution of suspected stragglers.
//
// Every knob defaults to "off"/legacy so a config that never touches
// `fault` reproduces the pre-fault scheduler bit for bit (same RNG draw
// sequence, same event calendar, same metrics fingerprint).

#include "scan/common/units.hpp"

namespace scan::fault {

struct FaultConfig {
  // --- injection -------------------------------------------------------
  /// Probability that an assignment straggles (runs slower than modeled).
  /// 0 disables straggle injection (and its RNG draw).
  double straggle_rate = 0.0;
  /// Slowdown multiplier applied to a straggling assignment's execution
  /// time. Values below 1 are treated as 1 (a straggler never speeds up).
  double straggle_factor = 3.0;
  /// Exponential hazard rate for worker flaps (worker survives, loses its
  /// in-flight task). 0 disables flap injection (and its RNG draw).
  double flap_rate = 0.0;

  // --- recovery --------------------------------------------------------
  /// Checkpoint interval in modeled execution time. A lost assignment
  /// resumes from the last whole multiple of this interval instead of
  /// restarting its stage. 0 disables checkpointing (legacy: full stage
  /// rework on every loss).
  SimTime checkpoint_interval{0.0};
  /// Per-job retry budget. A job whose stage is lost more than this many
  /// times is abandoned. Negative means unlimited (legacy).
  int max_retries_per_job = -1;
  /// First retry backoff. 0 requeues the lost job immediately in the same
  /// event (legacy — no extra calendar entry is scheduled).
  SimTime backoff_base{0.0};
  /// Backoff growth per successive retry of the same job.
  double backoff_multiplier = 2.0;
  /// Upper bound on a single backoff wait.
  SimTime backoff_cap{8.0};

  // --- health / circuit breaker ---------------------------------------
  /// Flap count at which a worker's breaker opens (no new assignments
  /// until the cooldown passes). 0 disables the breaker entirely.
  int breaker_threshold = 0;
  /// How long an open breaker blocks assignments to the worker.
  SimTime breaker_cooldown{10.0};

  // --- speculation -----------------------------------------------------
  /// Straggler-detection multiplier: an assignment still running at
  /// start + slowdown * modeled_exec gets a speculative copy enqueued.
  /// Must exceed 1 to be meaningful; 0 disables speculation (and its
  /// check event).
  double speculation_slowdown = 0.0;
};

}  // namespace scan::fault
