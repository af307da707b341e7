#pragma once

// The multi-tenant serving front end: a streaming IngestSource that turns
// the single-scenario RuntimePlatform into a long-running platform.
//
// Flow of one job: a tenant submission (synthetic generator batch or an
// explicit SubmitAt) hits admission control — shed if the tenant's
// bounded FIFO queue is full, otherwise queued. A deficit-round-robin
// dispatcher releases queued jobs to the platform: each release round
// visits backlogged tenants in rotation, credits deficit proportional to
// the tenant's weight (one quantum is the predicted worker-TU of a
// mean-size job), and releases queue heads while the deficit covers
// the head's predicted worker-TU cost — subject to the tenant's in-flight
// quota, its per-epoch worker-TU budget, and a global in-flight cap
// (backpressure). Under load the round also prices the paper's §III
// hire-vs-wait inequality ONCE per (tenant, round) — delay cost of
// holding the tenant's whole queue for one mean-size job's predicted
// execution time (per-tenant reward function) vs. the public-tier cost of
// the head job — so the decision cost amortizes across a burst instead of
// being paid per job. Outcomes reported back by the platform retire quota,
// credit tenant-priced reward, and trigger the next release round.
//
// Determinism: every method runs on the platform's coordinator thread in
// modeled-time event order, and every stochastic choice draws from a
// named per-tenant RandomStream — one seed replays the whole serving
// episode bit-identically (Digest() pins it). Wall-clock decision-latency
// measurements are kept outside the digest.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "scan/core/config.hpp"
#include "scan/core/policy.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/audit.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/sketch.hpp"
#include "scan/runtime/ingest.hpp"
#include "scan/serve/tenant.hpp"
#include "scan/workload/arrivals.hpp"
#include "scan/workload/reward.hpp"

namespace scan::serve {

/// Front-end wide knobs (per-tenant terms live in TenantSpec). The DRR
/// quantum and the pricing hold probe are not knobs: both derive from a
/// mean-size job under the policy's own plan (its predicted worker-TU
/// cost and its predicted execution time), so they track the workload.
struct ServeOptions {
  /// Global in-flight cap across all tenants (backpressure: releases stop
  /// and jobs wait in tenant queues until outcomes retire capacity).
  std::size_t global_max_in_flight = 512;
  /// Batched hire-vs-wait pricing activates once global in-flight reaches
  /// this fraction of global_max_in_flight; below it the platform is
  /// lightly loaded and releases are free.
  double pricing_onset = 0.5;
};

/// ServeFrontend: the IngestSource a RuntimePlatform pulls tenant work
/// from. Construct, register any explicit submissions with SubmitAt, wire
/// into RuntimeOptions::ingest, then RuntimePlatform::Serve().
class ServeFrontend final : public runtime::IngestSource {
 public:
  /// `model` is the unscaled pipeline model (the policy applies
  /// config.stage_time_scale, exactly as the platform does). Throws
  /// std::invalid_argument on duplicate tenant ids, a weight that is not
  /// finite and > 0, or (for a tenant with a finite worker-TU budget) a
  /// quota epoch that is not finite and > 0.
  ServeFrontend(const core::SimulationConfig& config,
                const gatk::PipelineModel& model,
                std::vector<TenantSpec> tenants, std::uint64_t seed,
                ServeOptions options = {});

  /// Registers one explicit submission before the run (deterministic test
  /// workloads; `when` in modeled TU). Must not be called once the
  /// platform is serving. Throws std::invalid_argument unless `when` is
  /// finite and >= 0 and `size` is finite and > 0 (a job trace's rules).
  void SubmitAt(SimTime when, std::uint64_t tenant_id, DataSize size);

  // --- IngestSource (called by the platform, coordinator thread) ---
  [[nodiscard]] std::optional<SimTime> NextEventTime() override;
  [[nodiscard]] std::vector<workload::Job> PullDue(SimTime now) override;
  [[nodiscard]] std::vector<workload::Job> OnJobOutcome(
      const runtime::JobOutcome& outcome) override;

  // --- post-run interrogation ---
  [[nodiscard]] const std::vector<TenantSpec>& tenants() const {
    return specs_;
  }
  /// Throws std::out_of_range for an unknown tenant id.
  [[nodiscard]] const TenantStats& StatsFor(std::uint64_t tenant_id) const;

  [[nodiscard]] std::uint64_t decision_rounds() const {
    return decision_rounds_;
  }
  /// Batched hire-vs-wait evaluations run (one per tenant per loaded
  /// round — the amortization the tentpole is about: this stays far below
  /// jobs released).
  [[nodiscard]] std::uint64_t pricing_evaluations() const {
    return pricing_evaluations_;
  }
  [[nodiscard]] std::uint64_t priced_holds() const { return priced_holds_; }
  /// Times a release left a tenant above its quota or the platform above
  /// the global cap. Must be 0; counted (not asserted) so the testkit
  /// oracle owns the failure.
  [[nodiscard]] std::uint64_t quota_violations() const {
    return quota_violations_;
  }
  /// Times a release round ended with free global capacity AND an
  /// eligible backlogged tenant. Must be 0 (work conservation).
  [[nodiscard]] std::uint64_t work_conservation_violations() const {
    return work_conservation_violations_;
  }
  [[nodiscard]] std::size_t peak_global_in_flight() const {
    return peak_global_in_flight_;
  }
  [[nodiscard]] std::size_t queued_total() const;
  [[nodiscard]] std::size_t in_flight_total() const {
    return global_in_flight_;
  }
  /// Wall-clock release-round latency quantile in microseconds (local
  /// sketch, collected even when global metrics are off).
  [[nodiscard]] double DecisionMicrosQuantile(double q) const {
    return decision_micros_.Quantile(q);
  }
  [[nodiscard]] std::uint64_t decision_samples() const {
    return decision_micros_.count();
  }

  /// FNV digest of the deterministic serving ledger: per-tenant stats,
  /// round/pricing counters, violation counters, peaks. Two runs with the
  /// same seed and specs must produce equal digests (bit-identical
  /// replay); wall-time measurements are excluded.
  [[nodiscard]] std::uint64_t Digest() const;

 private:
  /// One queued submission, priced at admission (plan + predicted cost).
  struct PendingJob {
    std::uint64_t platform_id = 0;
    DataSize size{0.0};
    SimTime submitted{0.0};
    double cost_tu = 0.0;  ///< predicted worker-TU (sum threads x time)
    double exec_tu = 0.0;  ///< predicted serialized execution time
  };

  struct TenantState {
    TenantSpec spec;
    workload::RewardFunction reward;
    std::optional<workload::PatternedArrivalGenerator> gen;
    std::optional<workload::ArrivalBatch> lookahead;  ///< next undelivered batch
    std::deque<PendingJob> queue;
    std::size_t in_flight = 0;
    double deficit = 0.0;        ///< DRR credit (worker-TU)
    std::uint64_t epoch_index = 0;
    double budget_used_tu = 0.0;  ///< charged this quota epoch
    std::uint64_t priced_round = 0;  ///< round the cached pricing is for
    bool priced_hold = false;
    TenantStats stats;
    obs::Gauge* depth_gauge = nullptr;

    explicit TenantState(const TenantSpec& s)
        : spec(s), reward(s.reward) {}
  };

  /// A released job awaiting its outcome.
  struct InFlightJob {
    std::size_t tenant_index = 0;
    SimTime submitted{0.0};
    DataSize size{0.0};
  };

  struct ExternalSubmission {
    SimTime when{0.0};
    std::uint64_t tenant_id = 0;
    DataSize size{0.0};
  };

  /// A job of `size` priced under the policy's own plan (cost_tu, exec_tu).
  [[nodiscard]] PendingJob Price(DataSize size) const;
  void Submit(TenantState& tenant, DataSize size, SimTime when);
  void AdvanceEpochs(SimTime now);
  /// Runs one DRR release round; appends released jobs to `out`.
  void ReleaseRound(SimTime now, std::vector<workload::Job>& out);
  void ReleaseHead(TenantState& tenant, SimTime now,
                   std::vector<workload::Job>& out);
  /// True when the tenant's head job does not fit the remaining per-epoch
  /// worker-TU budget.
  [[nodiscard]] bool BudgetBlocked(const TenantState& tenant) const;
  /// Batched §III pricing, cached per (tenant, round); true = hold.
  [[nodiscard]] bool PricedHold(TenantState& tenant, SimTime now);
  [[nodiscard]] bool Eligible(const TenantState& tenant) const;
  void RecordAdmission(const TenantState& tenant, std::uint64_t job_id,
                       obs::AdmissionOutcome outcome, DataSize size,
                       SimTime when) const;

  core::SimulationConfig config_;
  core::SchedulingPolicy policy_;  ///< pricing-only (PlanFor + model)
  ServeOptions options_;
  std::vector<TenantSpec> specs_;  ///< as handed in (report ordering)
  std::vector<TenantState> tenants_;
  std::unordered_map<std::uint64_t, std::size_t> tenant_index_;

  std::vector<ExternalSubmission> external_;
  std::size_t external_cursor_ = 0;
  bool external_sorted_ = false;
  bool serving_ = false;  ///< first IngestSource call seals SubmitAt

  std::unordered_map<std::uint64_t, InFlightJob> in_flight_jobs_;
  std::size_t global_in_flight_ = 0;
  std::size_t peak_global_in_flight_ = 0;
  std::size_t drr_cursor_ = 0;
  /// Whether the tenant at drr_cursor_ has received its quantum for the
  /// current (possibly capacity-split) visit.
  bool drr_credited_ = false;
  double quantum_tu_ = 0.0;
  SimTime hold_probe_{0.0};
  std::size_t pricing_onset_count_ = 0;
  std::uint64_t next_platform_id_ = 1;
  SimTime last_now_{0.0};

  std::uint64_t round_ = 0;
  std::uint64_t decision_rounds_ = 0;
  std::uint64_t pricing_evaluations_ = 0;
  std::uint64_t priced_holds_ = 0;
  std::uint64_t quota_violations_ = 0;
  std::uint64_t work_conservation_violations_ = 0;

  /// Wall micros per release round; local so benches see it without the
  /// global registry, mirrored into ServeMetrics when metrics are on.
  obs::QuantileSketch decision_micros_;
  obs::ServeMetrics smetrics_ = obs::ServeMetrics::Resolve();
};

}  // namespace scan::serve
