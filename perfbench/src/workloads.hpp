#pragma once

// The benchmark's four workloads. Each runs its timed loop for
// opts.seconds, checks its outputs, and returns every end-to-end metric
// plus the per-layer metrics of the layers it calls (see README.md for the
// layer -> metric -> workload map).

#include "harness.hpp"

namespace perfbench {

/// Four tenants, one per arrival pattern, generous quotas: the platform's
/// headline serving path (runtime coordinator + exec pool dominate).
[[nodiscard]] Outcome RunServeMixed(const RunOptions& opts);

/// Two tenants with tiny queues and a scarce global cap: admission, DRR
/// release and batched pricing run on every arrival, most jobs are shed.
[[nodiscard]] Outcome RunServeOverload(const RunOptions& opts);

/// The Fig. 4 grid (3 scaling algorithms x 11 arrival intervals) through
/// core::Scheduler on the DES calendar, one cell after another.
[[nodiscard]] Outcome RunSimFig4(const RunOptions& opts);

/// The knowledge-expansion loop: KB advice, FASTQ sharding and task-log
/// write-back per job, one caller.
[[nodiscard]] Outcome RunBrokerFeedback(const RunOptions& opts);

}  // namespace perfbench
