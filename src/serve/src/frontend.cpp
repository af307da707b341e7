#include "scan/serve/frontend.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "scan/common/rng.hpp"
#include "scan/common/str.hpp"
#include "scan/obs/audit.hpp"

namespace scan::serve {

namespace {

/// Ledger mixing: doubles by bit pattern, as in testkit.
std::uint64_t MixDouble(std::uint64_t h, double v) {
  return Fnv1aMixU64(h, std::bit_cast<std::uint64_t>(v));
}

/// Input-boundary rejection naming the tenant and the field.
[[noreturn]] void Reject(const char* where, std::uint64_t tenant,
                         const char* field, double value, const char* rule) {
  throw std::invalid_argument(
      StrFormat("%s: tenant %llu %s is %g; %s", where,
                static_cast<unsigned long long>(tenant), field, value, rule));
}

}  // namespace

ServeFrontend::ServeFrontend(const core::SimulationConfig& config,
                             const gatk::PipelineModel& model,
                             std::vector<TenantSpec> tenants,
                             std::uint64_t seed, ServeOptions options)
    : config_(config),
      policy_(config, model, std::nullopt,
              MixSeed(seed, Fnv1a64("serve-frontend"))),
      options_(options),
      specs_(std::move(tenants)) {
  if (specs_.empty()) {
    throw std::invalid_argument("ServeFrontend: no tenants");
  }
  tenants_.reserve(specs_.size());
  for (const TenantSpec& spec : specs_) {
    if (!std::isfinite(spec.weight) || spec.weight <= 0.0) {
      Reject("ServeFrontend", spec.id, "weight", spec.weight,
             "it must be finite and > 0");
    }
    // The epoch index divides by the epoch; a budgeted tenant needs one.
    const double epoch = spec.quota_epoch.value();
    if (std::isfinite(spec.worker_tu_per_epoch) &&
        (!std::isfinite(epoch) || epoch <= 0.0)) {
      Reject("ServeFrontend", spec.id, "quota_epoch", epoch,
             "a finite worker_tu_per_epoch needs a finite epoch > 0");
    }
    if (!tenant_index_.emplace(spec.id, tenants_.size()).second) {
      throw std::invalid_argument("ServeFrontend: duplicate tenant id");
    }
    TenantState state(spec);
    if (spec.drive_synthetic) {
      workload::ArrivalParams params = config.MakeArrivalParams();
      if (spec.rate_scale > 0.0) {
        params.mean_interarrival_tu /= spec.rate_scale;
      }
      state.gen.emplace(params, spec.pattern, MixSeed(seed, spec.id));
      state.lookahead = state.gen->NextBatch();
    }
    state.depth_gauge = &obs::TenantQueueGauge(spec.id);
    tenants_.push_back(std::move(state));
  }

  // The DRR quantum and the pricing probe derive from a mean-size job
  // under the policy's own plan, so they track the workload.
  const PendingJob mean =
      Price(DataSize{config.MakeArrivalParams().mean_job_size});
  quantum_tu_ = std::max(mean.cost_tu, 1e-9);
  hold_probe_ = SimTime{std::max(mean.exec_tu, 1e-9)};
  pricing_onset_count_ = static_cast<std::size_t>(std::ceil(
      options_.pricing_onset *
      static_cast<double>(options_.global_max_in_flight)));
}

void ServeFrontend::SubmitAt(SimTime when, std::uint64_t tenant_id,
                             DataSize size) {
  if (serving_) {
    throw std::logic_error("ServeFrontend::SubmitAt: platform is serving");
  }
  if (tenant_index_.find(tenant_id) == tenant_index_.end()) {
    throw std::out_of_range("ServeFrontend::SubmitAt: unknown tenant");
  }
  // NaN times have no order to sort by, and a NaN size prices to NaN.
  if (!std::isfinite(when.value()) || when.value() < 0.0) {
    Reject("ServeFrontend::SubmitAt", tenant_id, "time", when.value(),
           "it must be finite and >= 0");
  }
  if (!std::isfinite(size.value()) || size.value() <= 0.0) {
    Reject("ServeFrontend::SubmitAt", tenant_id, "size", size.value(),
           "it must be finite and > 0");
  }
  external_.push_back({when, tenant_id, size});
  external_sorted_ = false;
}

std::optional<SimTime> ServeFrontend::NextEventTime() {
  serving_ = true;
  if (!external_sorted_) {
    std::stable_sort(external_.begin() + static_cast<std::ptrdiff_t>(
                                             external_cursor_),
                     external_.end(),
                     [](const ExternalSubmission& a,
                        const ExternalSubmission& b) { return a.when < b.when; });
    external_sorted_ = true;
  }
  std::optional<double> best;
  const auto consider = [&](double t) {
    // Clamp to the last processed instant: the contract requires a
    // non-decreasing sequence.
    t = std::max(t, last_now_.value());
    if (!best || t < *best) best = t;
  };
  if (external_cursor_ < external_.size()) {
    consider(external_[external_cursor_].when.value());
  }
  for (const TenantState& t : tenants_) {
    if (t.lookahead) consider(t.lookahead->time.value());
    // A backlogged tenant blocked only by its epoch budget has no arrival
    // or outcome to wake it; wake at the next budget replenishment.
    if (!t.queue.empty() && t.in_flight < t.spec.max_in_flight &&
        BudgetBlocked(t)) {
      consider(static_cast<double>(t.epoch_index + 1) *
               t.spec.quota_epoch.value());
    }
  }
  if (!best) return std::nullopt;
  return SimTime{*best};
}

std::vector<workload::Job> ServeFrontend::PullDue(SimTime now) {
  serving_ = true;
  last_now_ = now;
  AdvanceEpochs(now);
  while (external_cursor_ < external_.size() &&
         external_[external_cursor_].when <= now) {
    const ExternalSubmission& sub = external_[external_cursor_++];
    Submit(tenants_[tenant_index_.at(sub.tenant_id)], sub.size, sub.when);
  }
  for (TenantState& t : tenants_) {
    while (t.lookahead && t.lookahead->time <= now) {
      for (const workload::Job& job : t.lookahead->jobs) {
        Submit(t, job.size, t.lookahead->time);
      }
      t.lookahead = t.gen->NextBatch();
    }
  }
  std::vector<workload::Job> released;
  ReleaseRound(now, released);
  return released;
}

std::vector<workload::Job> ServeFrontend::OnJobOutcome(
    const runtime::JobOutcome& outcome) {
  serving_ = true;
  const auto it = in_flight_jobs_.find(outcome.job_id);
  if (it == in_flight_jobs_.end()) return {};
  const InFlightJob info = it->second;
  in_flight_jobs_.erase(it);
  TenantState& t = tenants_[info.tenant_index];
  if (t.in_flight > 0) --t.in_flight;
  if (global_in_flight_ > 0) --global_in_flight_;
  if (outcome.completed) {
    ++t.stats.completed;
    // Reprice under the tenant's own reward terms, measured from the
    // tenant-visible submit instant (queue wait included), not the
    // platform-visible release instant.
    const SimTime tenant_latency = outcome.finished_at - info.submitted;
    t.stats.reward += t.reward(info.size, tenant_latency).value();
  } else {
    ++t.stats.abandoned;
  }
  if (obs::MetricsEnabled()) {
    smetrics_.jobs_completed->Increment();
    smetrics_.in_flight_jobs->Add(-1.0);
  }
  last_now_ = std::max(last_now_, outcome.finished_at);
  std::vector<workload::Job> released;
  AdvanceEpochs(last_now_);
  ReleaseRound(last_now_, released);
  return released;
}

const TenantStats& ServeFrontend::StatsFor(std::uint64_t tenant_id) const {
  const auto it = tenant_index_.find(tenant_id);
  if (it == tenant_index_.end()) {
    throw std::out_of_range("ServeFrontend::StatsFor: unknown tenant");
  }
  return tenants_[it->second].stats;
}

std::size_t ServeFrontend::queued_total() const {
  std::size_t total = 0;
  for (const TenantState& t : tenants_) total += t.queue.size();
  return total;
}

std::uint64_t ServeFrontend::Digest() const {
  std::uint64_t h = kFnv1aOffset;
  for (const TenantState& t : tenants_) {
    h = Fnv1aMixU64(h, t.spec.id);
    h = Fnv1aMixU64(h, t.stats.submitted);
    h = Fnv1aMixU64(h, t.stats.shed);
    h = Fnv1aMixU64(h, t.stats.released);
    h = Fnv1aMixU64(h, t.stats.completed);
    h = Fnv1aMixU64(h, t.stats.abandoned);
    h = MixDouble(h, t.stats.reward);
    h = MixDouble(h, t.stats.worker_tu_charged);
    h = MixDouble(h, t.stats.total_queue_wait_tu);
    h = MixDouble(h, t.stats.max_queue_wait_tu);
    h = Fnv1aMixU64(h, t.stats.peak_queue_depth);
    h = Fnv1aMixU64(h, t.stats.peak_in_flight);
  }
  h = Fnv1aMixU64(h, decision_rounds_);
  h = Fnv1aMixU64(h, pricing_evaluations_);
  h = Fnv1aMixU64(h, priced_holds_);
  h = Fnv1aMixU64(h, quota_violations_);
  h = Fnv1aMixU64(h, work_conservation_violations_);
  h = Fnv1aMixU64(h, peak_global_in_flight_);
  h = Fnv1aMixU64(h, next_platform_id_);
  return h;
}

void ServeFrontend::Submit(TenantState& tenant, DataSize size, SimTime when) {
  ++tenant.stats.submitted;
  if (obs::MetricsEnabled()) smetrics_.jobs_submitted->Increment();

  PendingJob pending = Price(size);
  // Shed: bounded queue full, or the job can never fit the tenant's
  // per-epoch budget (it would pin the queue head forever).
  const bool oversized =
      std::isfinite(tenant.spec.worker_tu_per_epoch) &&
      pending.cost_tu > tenant.spec.worker_tu_per_epoch;
  if (tenant.queue.size() >= tenant.spec.max_queue_depth || oversized) {
    ++tenant.stats.shed;
    if (obs::MetricsEnabled()) smetrics_.jobs_shed->Increment();
    RecordAdmission(tenant, 0, obs::AdmissionOutcome::kShed, size, when);
    return;
  }

  pending.platform_id = next_platform_id_++;
  pending.submitted = when;
  tenant.queue.push_back(pending);
  tenant.stats.peak_queue_depth =
      std::max(tenant.stats.peak_queue_depth, tenant.queue.size());
  if (obs::MetricsEnabled()) {
    smetrics_.jobs_admitted->Increment();
    smetrics_.queued_jobs->Add(1.0);
    tenant.depth_gauge->Set(static_cast<double>(tenant.queue.size()));
  }
  RecordAdmission(tenant, pending.platform_id,
                  obs::AdmissionOutcome::kAdmitted, size, when);
}

ServeFrontend::PendingJob ServeFrontend::Price(DataSize size) const {
  const core::ThreadPlan plan = policy_.PlanFor(size);
  const gatk::PipelineModel& model = policy_.model();
  PendingJob job;
  job.size = size;
  for (std::size_t s = 0; s < model.stage_count(); ++s) {
    const double t = model.ThreadedTime(s, plan[s], size).value();
    job.cost_tu += static_cast<double>(plan[s]) * t;
    job.exec_tu += t;
  }
  return job;
}

void ServeFrontend::AdvanceEpochs(SimTime now) {
  for (TenantState& t : tenants_) {
    if (!std::isfinite(t.spec.worker_tu_per_epoch)) continue;
    const auto idx = static_cast<std::uint64_t>(
        now.value() / t.spec.quota_epoch.value());
    if (idx > t.epoch_index) {
      t.epoch_index = idx;
      t.budget_used_tu = 0.0;
    }
  }
}

bool ServeFrontend::BudgetBlocked(const TenantState& tenant) const {
  if (!std::isfinite(tenant.spec.worker_tu_per_epoch)) return false;
  if (tenant.queue.empty()) return false;
  return tenant.budget_used_tu + tenant.queue.front().cost_tu >
         tenant.spec.worker_tu_per_epoch;
}

bool ServeFrontend::Eligible(const TenantState& tenant) const {
  return !tenant.queue.empty() &&
         tenant.in_flight < tenant.spec.max_in_flight &&
         !BudgetBlocked(tenant);
}

bool ServeFrontend::PricedHold(TenantState& tenant, SimTime now) {
  if (global_in_flight_ < pricing_onset_count_) return false;
  if (tenant.priced_round == round_) return tenant.priced_hold;
  tenant.priced_round = round_;
  ++pricing_evaluations_;
  if (obs::MetricsEnabled()) smetrics_.pricing_evaluations->Increment();

  // Eq. 1, batched over the tenant's whole queue: reward lost if every
  // queued job slips by the hold probe vs. the public-tier cost of the
  // head. One evaluation prices the burst; the DRR loop then releases as
  // many heads as deficit and quotas allow without re-pricing.
  double delay_cost = 0.0;
  for (const PendingJob& job : tenant.queue) {
    const SimTime ett = (now - job.submitted) + SimTime{job.exec_tu};
    delay_cost +=
        tenant.reward.DelayCost(job.size, ett, hold_probe_).value();
  }
  const PendingJob& head = tenant.queue.front();
  const double hire_cost = head.cost_tu * config_.public_cost_per_core_tu;
  const bool hire = delay_cost >= hire_cost;
  tenant.priced_hold = !hire;
  if (tenant.priced_hold) ++priced_holds_;

  if (obs::AuditEnabled()) {
    obs::HireDecisionRecord rec;
    rec.time_tu = now.value();
    rec.job_id = head.platform_id;
    rec.stage = 0;
    rec.threads = 0;
    rec.choice = hire ? obs::HireChoice::kHirePublic : obs::HireChoice::kWait;
    rec.scaling = "serve-batched";
    rec.queue_length = tenant.queue.size();
    rec.head_size_du = head.size.value();
    rec.delay_cost = delay_cost;
    rec.hire_cost = hire_cost;
    rec.public_core_price = config_.public_cost_per_core_tu;
    obs::DecisionAudit::Global().RecordHire(rec);
  }
  return tenant.priced_hold;
}

void ServeFrontend::ReleaseHead(TenantState& tenant, SimTime now,
                                std::vector<workload::Job>& out) {
  PendingJob job = tenant.queue.front();
  tenant.queue.pop_front();
  tenant.deficit -= job.cost_tu;
  tenant.budget_used_tu += job.cost_tu;

  ++tenant.stats.released;
  tenant.stats.worker_tu_charged += job.cost_tu;
  const double wait = (now - job.submitted).value();
  tenant.stats.total_queue_wait_tu += wait;
  tenant.stats.max_queue_wait_tu =
      std::max(tenant.stats.max_queue_wait_tu, wait);

  ++tenant.in_flight;
  tenant.stats.peak_in_flight =
      std::max(tenant.stats.peak_in_flight, tenant.in_flight);
  ++global_in_flight_;
  peak_global_in_flight_ =
      std::max(peak_global_in_flight_, global_in_flight_);
  if (tenant.in_flight > tenant.spec.max_in_flight ||
      global_in_flight_ > options_.global_max_in_flight) {
    ++quota_violations_;
  }

  in_flight_jobs_.emplace(
      job.platform_id,
      InFlightJob{static_cast<std::size_t>(&tenant - tenants_.data()),
                  job.submitted, job.size});
  // The platform sees the release instant as the arrival: its own queues
  // measure post-release latency, the tenant ledger measures from submit.
  out.push_back(workload::Job{job.platform_id, job.size, now});

  if (obs::MetricsEnabled()) {
    smetrics_.jobs_released->Increment();
    smetrics_.queued_jobs->Add(-1.0);
    smetrics_.in_flight_jobs->Add(1.0);
    tenant.depth_gauge->Set(static_cast<double>(tenant.queue.size()));
  }
  RecordAdmission(tenant, job.platform_id, obs::AdmissionOutcome::kReleased,
                  job.size, now);
}

void ServeFrontend::ReleaseRound(SimTime now,
                                 std::vector<workload::Job>& out) {
  ++round_;
  ++decision_rounds_;
  if (obs::MetricsEnabled()) smetrics_.decision_rounds->Increment();
  const auto wall_start = std::chrono::steady_clock::now();

  // Resumable deficit round-robin: the sweep position and the current
  // tenant's banked deficit persist across rounds. Capacity usually frees
  // one slot at a time (each job outcome triggers a round); restarting the
  // sweep every round would let cursor order — not weight — decide who
  // gets the slot, degrading to unweighted round-robin. Instead, a visit
  // credits the tenant's quantum exactly once, and when the global cap
  // cuts the sweep mid-visit the next round resumes at the same tenant
  // with its remaining deficit.
  const std::size_t n = tenants_.size();
  std::size_t stalled = 0;  // consecutive visits without a release
  const auto advance = [&] {
    drr_cursor_ = (drr_cursor_ + 1) % n;
    drr_credited_ = false;
  };
  while (global_in_flight_ < options_.global_max_in_flight) {
    if (stalled >= n) {
      // A full sweep credited every eligible tenant yet nobody could
      // afford its head. Repeated sweeps would each add one quantum per
      // tenant; fast-forward the same accumulation in one step (identical
      // deficits, O(1) instead of O(max job cost / quantum) sweeps), then
      // run one real sweep.
      double min_passes = std::numeric_limits<double>::infinity();
      for (TenantState& t : tenants_) {
        if (!Eligible(t) || PricedHold(t, now)) continue;
        const double need = t.queue.front().cost_tu - t.deficit;
        const double per_pass = quantum_tu_ * t.spec.weight;
        min_passes = std::min(min_passes, std::ceil(need / per_pass));
      }
      if (!std::isfinite(min_passes)) break;  // nobody eligible: done
      const double skip = std::max(0.0, min_passes - 1.0);
      for (TenantState& t : tenants_) {
        if (!Eligible(t) || PricedHold(t, now)) continue;
        t.deficit += skip * quantum_tu_ * t.spec.weight;
      }
      stalled = 0;
      continue;
    }
    TenantState& t = tenants_[drr_cursor_];
    if (t.queue.empty()) {
      t.deficit = 0.0;  // classic DRR: no banked credit while idle
      advance();
      ++stalled;
      continue;
    }
    if (!Eligible(t) || PricedHold(t, now)) {
      advance();  // blocked: keep the deficit, resume when unblocked
      ++stalled;
      continue;
    }
    if (!drr_credited_) {
      t.deficit += quantum_tu_ * t.spec.weight;
      drr_credited_ = true;
    }
    bool released = false;
    while (Eligible(t) && !PricedHold(t, now) &&
           t.deficit >= t.queue.front().cost_tu &&
           global_in_flight_ < options_.global_max_in_flight) {
      ReleaseHead(t, now, out);
      released = true;
    }
    stalled = released ? 0 : stalled + 1;
    if (t.queue.empty()) {
      t.deficit = 0.0;
      advance();
      continue;
    }
    if (Eligible(t) && !PricedHold(t, now) &&
        t.deficit >= t.queue.front().cost_tu) {
      // Only reachable when the global cap cut the drain: stay put, keep
      // the credit, and resume this visit on the next round.
      continue;
    }
    advance();
  }

  // Work conservation: with free global capacity, no eligible backlogged
  // tenant may remain un-served (priced holds are deliberate waits, and
  // PricedHold() caches per round so this re-check re-reads the cache).
  if (global_in_flight_ < options_.global_max_in_flight) {
    for (TenantState& t : tenants_) {
      if (Eligible(t) && !PricedHold(t, now)) {
        ++work_conservation_violations_;
      }
    }
  }

  const auto wall_end = std::chrono::steady_clock::now();
  const double micros =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          wall_end - wall_start)
          .count();
  decision_micros_.Observe(micros);
  if (obs::MetricsEnabled()) smetrics_.decision_slo->Observe(micros);
}

void ServeFrontend::RecordAdmission(const TenantState& tenant,
                                    std::uint64_t job_id,
                                    obs::AdmissionOutcome outcome,
                                    DataSize size, SimTime when) const {
  if (!obs::AuditEnabled()) return;
  obs::AdmissionRecord rec;
  rec.time_tu = when.value();
  rec.tenant_id = tenant.spec.id;
  rec.job_id = job_id;
  rec.outcome = outcome;
  rec.queue_depth = tenant.queue.size();
  rec.in_flight = tenant.in_flight;
  rec.size_du = size.value();
  rec.budget_remaining_tu =
      std::isfinite(tenant.spec.worker_tu_per_epoch)
          ? tenant.spec.worker_tu_per_epoch - tenant.budget_used_tu
          : std::numeric_limits<double>::infinity();
  obs::DecisionAudit::Global().RecordAdmission(rec);
}

}  // namespace scan::serve
