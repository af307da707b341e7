#include "scan/core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "scan/common/str.hpp"
#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"

namespace scan::core {

Engine::Engine(const SimulationConfig& config, gatk::PipelineModel model,
               std::uint64_t seed, SchedulerOptions options, EngineHost* host,
               IngestSource* ingest)
    : config_(config),
      options_(std::move(options)),
      host_(host),
      ingest_(ingest),
      policy_(config, model, options_.forced_plan,
              options_.allocation_price_hint, seed),
      cloud_(config.MakeCloudConfig()),
      arrivals_(config.MakeArrivalParams(), seed),
      queues_(policy_.model().stage_count()),
      injector_(seed, config.worker_failure_rate, config.fault),
      retry_(config.fault),
      health_(config.fault.breaker_threshold, config.fault.breaker_cooldown) {
  metrics_.stage_queue_wait.resize(policy_.model().stage_count());
  verify_candidates_ = std::getenv("SCAN_TESTKIT_VERIFY_CANDIDATES") != nullptr;
}

WorkerIndex::IdleEntry Engine::IdleEntryFor(const WorkerBook& worker) {
  return {static_cast<std::uint64_t>(worker.id), worker.threads, worker.cores,
          worker.tier == cloud::Tier::kPrivate};
}

void Engine::VerifyCandidateIndex() const {
  std::vector<WorkerIndex::IdleEntry> expected;
  std::optional<SimTime> scan_min;
  for (const auto& [key, worker] : workers_) {
    if (worker.busy) {
      if (!scan_min || worker.busy_until < *scan_min) {
        scan_min = worker.busy_until;
      }
    } else {
      expected.push_back(IdleEntryFor(worker));
      (void)key;
    }
  }
  std::vector<std::string> issues = index_.AuditIdle(expected);
  const std::optional<SimTime> index_min = NextWorkerFreeTime();
  if (scan_min.has_value() != index_min.has_value() ||
      (scan_min && scan_min->value() != index_min->value())) {
    issues.push_back("busy: incremental min busy_until != rescan min");
  }
  if (!issues.empty()) {
    std::string message = "candidate index diverged from rescan oracle:";
    for (const std::string& issue : issues) message += "\n  " + issue;
    throw std::logic_error(message);
  }
}

SchedulerView Engine::BuildView(SimTime when, std::uint64_t seq) const {
  SchedulerView view;
  view.now = when;
  view.event_seq = seq;
  view.linear_pipeline = policy_.model().is_linear();
  view.queues.reserve(queues_.size());
  for (std::size_t stage = 0; stage < queues_.size(); ++stage) {
    std::vector<QueuedTaskView> tasks;
    tasks.reserve(queues_[stage].size());
    for (const std::uint64_t job_id : queues_[stage]) {
      const JobState& job = jobs_.at(job_id);
      tasks.push_back({job_id, stage, job.tasks[stage].enqueued_at});
    }
    view.queues.push_back(std::move(tasks));
  }
  view.workers.reserve(workers_.size());
  for (const auto& [key, worker] : workers_) {
    WorkerView wv;
    wv.key = key;
    const auto info = cloud_.Info(worker.id);
    if (info.ok()) wv.tier = info->tier;
    wv.cores = worker.cores;
    wv.threads = worker.threads;
    wv.busy = worker.busy;
    wv.current_job = worker.current_job;
    wv.busy_until = worker.busy_until;
    wv.busy_accumulated = worker.busy_accumulated;
    wv.current_stage = worker.current_stage;
    if (info.ok()) wv.hired_at = info->hired_at;
    if (worker.busy) {
      const auto jit = jobs_.find(worker.current_job);
      wv.stale = jit == jobs_.end() ||
                 jit->second.tasks[worker.current_stage].epoch !=
                     worker.assignment_epoch;
    }
    view.workers.push_back(wv);
  }
  std::sort(view.workers.begin(), view.workers.end(),
            [](const WorkerView& a, const WorkerView& b) { return a.key < b.key; });
  view.private_cores = cloud_.CoresInUse(cloud::Tier::kPrivate);
  view.public_cores = cloud_.CoresInUse(cloud::Tier::kPublic);
  view.private_capacity = cloud_.config().private_tier.core_capacity;
  view.cost_rate = cloud_.CostRate().value();
  for (const auto& [id, job] : jobs_) {
    for (const StageTask& task : job.tasks) {
      if (task.in_backoff) {
        view.backoff_job_ids.push_back(id);
        break;
      }
    }
  }
  std::sort(view.backoff_job_ids.begin(), view.backoff_job_ids.end());
  view.backoff_jobs = view.backoff_job_ids.size();
  view.metrics = &metrics_;
  return view;
}

void Engine::Start() {
  if (options_.trace_hook || options_.inspection_hook) {
    sim_.SetTraceHook([this](SimTime when, std::uint64_t seq) {
      if (options_.trace_hook) options_.trace_hook(when, seq);
      if (options_.inspection_hook) {
        options_.inspection_hook(BuildView(when, seq));
      }
    });
  }

  // Admission: batches are pulled one at a time (ingest source, trace
  // cursor or synthetic generator) instead of materializing the whole
  // horizon up front. The arrival process stays independent of scheduling
  // decisions — the generator draws from its own RNG streams, so lazy
  // pulls reproduce exactly the schedule the old pre-generated path built.
  if (ingest_ == nullptr && options_.trace) {
    trace_batches_ = options_.trace->ToBatches();
  }
  PumpArrivals();

  if (config_.scaling == ScalingAlgorithm::kLearnedBandit) {
    sim_.SchedulePeriodic(config_.bandit_epoch,
                          [this](sim::Simulator&) { BanditEpoch(); });
  }
  if (options_.timeline_sample_period > SimTime{0.0}) {
    sim_.SchedulePeriodic(options_.timeline_sample_period,
                          [this](sim::Simulator&) { SampleTimeline(); });
  }
}

RunMetrics Engine::Finish() {
  metrics_.duration = config_.duration;
  metrics_.cost_report = cloud_.CostUpTo(config_.duration);
  metrics_.total_cost = metrics_.cost_report.total.value();
  return std::move(metrics_);
}

void Engine::SampleTimeline() {
  TimelinePoint point;
  point.time = sim_.Now();
  for (const auto& queue : queues_) point.queued_jobs += queue.size();
  // Non-busy <=> in the idle index at event boundaries, so the index size
  // replaces the per-worker sweep.
  point.idle_workers = index_.idle_count();
  point.busy_workers = workers_.size() - point.idle_workers;
  point.private_cores = cloud_.CoresInUse(cloud::Tier::kPrivate);
  point.public_cores = cloud_.CoresInUse(cloud::Tier::kPublic);
  point.cost_rate = cloud_.CostRate().value();
  metrics_.timeline.push_back(point);
}

void Engine::PumpArrivals() {
  if (ingest_ != nullptr) {
    const std::optional<SimTime> next = ingest_->NextEventTime();
    if (!next || *next > config_.duration) return;
    // Calendar order for ingest: admit, dispatch, then ask the source for
    // its next instant — which may depend on what was just consumed (its
    // lookahead batch, quota epochs).
    const auto fire = [this](sim::Simulator& s) {
      Admit(ingest_->PullDue(s.Now()));
      TryDispatchAll();
      PumpArrivals();
    };
    try {
      sim_.ScheduleAt(*next, fire);
    } catch (const std::invalid_argument&) {
      // The calendar rejects a NaN or an instant in the past.
      throw std::invalid_argument(StrFormat(
          "IngestSource contract violated: NextEventTime() returned %.17g "
          "at time %.17g; instants must be non-decreasing and not NaN",
          next->value(), sim_.Now().value()));
    }
    return;
  }
  std::optional<workload::ArrivalBatch> batch;
  if (options_.trace) {
    while (next_trace_batch_ < trace_batches_.size()) {
      workload::ArrivalBatch& candidate = trace_batches_[next_trace_batch_++];
      if (candidate.time > config_.duration) continue;  // the old skip
      batch = std::move(candidate);
      break;
    }
  } else {
    workload::ArrivalBatch drawn = arrivals_.NextBatch();
    // The batch straddling the horizon is dropped exactly as GenerateUntil
    // dropped it (same draws consumed, so the schedule is bit-identical to
    // the pre-generated path); a batch at exactly the horizon is kept and
    // fires (RunUntil fires events with when <= horizon).
    if (drawn.time <= config_.duration) batch = std::move(drawn);
  }
  if (!batch) return;
  // The next arrival is scheduled before the batch is processed, so its
  // sequence number predates any completion event the batch triggers —
  // the same relative order the pre-generated schedule had.
  sim_.ScheduleAt(batch->time, [this, b = std::move(*batch)](sim::Simulator&) {
    PumpArrivals();
    Admit(b.jobs);
    TryDispatchAll();
  });
}

void Engine::Admit(const std::vector<workload::Job>& jobs) {
  const gatk::PipelineModel& model = policy_.model();
  for (const workload::Job& job : jobs) {
    ++metrics_.jobs_arrived;
    if (obs::MetricsEnabled()) pmetrics_.jobs_arrived->Increment();
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::EventKind::kJobArrival, sim_.Now().value(), 0,
                     job.id, 0, job.size.value(), 0.0, obs::JobSpan(job.id));
    }
    JobState state;
    state.id = job.id;
    state.size = job.size;
    state.arrival = job.arrival;
    state.plan = PlanFor(job.size);
    state.stages_remaining = model.stage_count();
    state.tasks.resize(model.stage_count());
    for (std::size_t stage = 0; stage < model.stage_count(); ++stage) {
      state.tasks[stage].remaining_deps = model.deps(stage).size();
    }
    if (obs::AuditEnabled()) AuditPlan(job.id, job.size, state.plan);
    jobs_.emplace(job.id, std::move(state));
    // Every zero-in-degree stage is ready on arrival (stage 0 alone for
    // the linear chain; all of them for a bag of tasks).
    for (std::size_t stage = 0; stage < model.stage_count(); ++stage) {
      if (model.deps(stage).empty()) {
        EnqueueTask(job.id, stage, obs::JobSpan(job.id));
      }
    }
  }
}

void Engine::NotifyOutcome(std::uint64_t job_id, bool completed,
                           SimTime latency, DataSize size, double reward) {
  if (ingest_ == nullptr) return;
  JobOutcome outcome;
  outcome.job_id = job_id;
  outcome.completed = completed;
  outcome.finished_at = sim_.Now();
  outcome.latency = latency;
  outcome.size = size;
  outcome.reward = reward;
  // Released jobs are admitted mid-event; the event's dispatch round
  // places them alongside the capacity the outcome freed.
  Admit(ingest_->OnJobOutcome(outcome));
}

void Engine::AuditPlan(std::uint64_t job_id, DataSize size,
                       const ThreadPlan& plan) {
  obs::PlanDecisionRecord rec;
  rec.time_tu = sim_.Now().value();
  rec.job_id = job_id;
  rec.size_du = size.value();
  rec.allocation = AllocationAlgorithmName(config_.allocation);
  rec.plan = plan;
  rec.price_hint = policy_.price_hint();
  double exec = 0.0;
  for (std::size_t stage = 0; stage < plan.size(); ++stage) {
    exec += policy_.model().ThreadedTime(stage, plan[stage], size).value();
  }
  rec.predicted_exec_tu = exec;
  rec.predicted_reward = policy_.reward()(size, SimTime{exec}).value();
  obs::DecisionAudit::Global().RecordPlan(std::move(rec));
}

void Engine::AuditHire(obs::HireChoice choice, std::size_t stage,
                       const JobState& job, int threads,
                       std::size_t queue_length, const HireEvaluation* eval) {
  const bool audit = obs::AuditEnabled();
  const bool trace = obs::TraceEnabled();
  if (!audit && !trace) return;
  const double now = sim_.Now().value();
  if (trace) {
    const double margin = (eval != nullptr && !std::isnan(eval->delay_cost))
                              ? eval->delay_cost - eval->hire_cost
                              : 0.0;
    obs::TraceEmit(obs::EventKind::kDecision, now,
                   static_cast<std::uint64_t>(choice), job.id, stage, margin,
                   0.0, obs::StageSpan(job.id, stage, job.tasks[stage].epoch),
                   obs::JobSpan(job.id));
  }
  if (!audit) return;
  obs::HireDecisionRecord rec;
  rec.time_tu = now;
  rec.job_id = job.id;
  rec.stage = stage;
  rec.threads = threads;
  rec.choice = choice;
  rec.scaling = ScalingAlgorithmName(policy_.EffectiveScaling());
  rec.queue_length = queue_length;
  rec.head_size_du = job.size.value();
  if (eval != nullptr) {
    rec.delay_cost = eval->delay_cost;
    rec.hire_cost = eval->hire_cost;
    rec.next_free_delay_tu = eval->next_free_delay_tu;
    rec.rework_factor = eval->rework_factor;
  }
  rec.boot_penalty_tu = cloud_.config().boot_penalty.value();
  rec.public_core_price = config_.public_cost_per_core_tu;
  obs::DecisionAudit::Global().RecordHire(rec);
}

void Engine::EnqueueTask(std::uint64_t job_id, std::size_t stage,
                         std::uint64_t parent_span) {
  JobState& job = jobs_.at(job_id);
  StageTask& task = job.tasks[stage];
  task.enqueued_at = sim_.Now();
  task.enqueue_parent_span = parent_span;
  queues_[stage].push_back(job_id);
  if (obs::TraceEnabled()) {
    // A speculative copy (flagged by the caller before this enqueue) gets
    // the copy-bit attempt span so the duplicate is its own graph node.
    const bool copy = speculative_queued_.count(TaskKey(job_id, stage)) > 0;
    obs::TraceEmit(obs::EventKind::kQueueEnqueue, task.enqueued_at.value(), 0,
                   job_id, stage, 0.0, 0.0,
                   obs::StageSpan(job_id, stage, task.epoch, copy),
                   parent_span);
  }
  if (obs::MetricsEnabled()) pmetrics_.queued_jobs->Add(1.0);
}

void Engine::TryDispatchAll() {
  // Decision-latency input: wall-clock cost of the dispatch round. Reading
  // the clock never feeds back into scheduling; the simulator with
  // metrics off pays only the two checks.
  const bool timed = host_ != nullptr || obs::MetricsEnabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  // Later stages first: draining work in progress before admitting new
  // stage-0 tasks keeps the pipeline flowing under overload (stage-0-first
  // would starve downstream stages and complete nothing).
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t stage = queues_.size(); stage-- > 0;) {
      while (!queues_[stage].empty() && TryDispatchHead(stage)) {
        progress = true;
        if (verify_candidates_) VerifyCandidateIndex();
      }
    }
  }
  if (verify_candidates_) VerifyCandidateIndex();
  if (timed) {
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - t0;
    if (host_ != nullptr) host_->OnDispatchRound(elapsed.count());
    if (obs::MetricsEnabled()) {
      pmetrics_.decision_latency_slo->Observe(elapsed.count());
    }
  }
}

bool Engine::TryDispatchHead(std::size_t stage) {
  const std::uint64_t job_id = queues_[stage].front();
  JobState& job = jobs_.at(job_id);
  const int threads = job.plan[stage];
  const SimTime now = sim_.Now();
  const std::size_t queue_len = queues_[stage].size();

  // 1. An idle worker already configured with the required thread count,
  //    preferring the fewest cores (a big machine downsized to few threads
  //    wastes its extra cores for the task's duration). Workers with an
  //    open circuit breaker are skipped (health_ allows everyone when the
  //    breaker is disabled, preserving legacy choices); if every exact
  //    candidate is blocked, fall through to the other steps.
  {
    const std::uint64_t key = index_.BestExactIdle(
        threads,
        [&](std::uint64_t candidate) { return health_.Allows(candidate, now); });
    if (key != 0) {
      WorkerBook& worker = workers_.at(key);
      index_.RemoveIdle(IdleEntryFor(worker));
      AuditHire(obs::HireChoice::kReuseIdle, stage, job, threads, queue_len,
                nullptr);
      queues_[stage].pop_front();
      AssignTask(job_id, stage, worker, now);
      return true;
    }
  }

  // 2. Hire an exact-size worker on the private (cheap) tier, compacting
  //    idle private capacity if fragmentation blocks the fit.
  const std::size_t private_free =
      cloud_.AvailableCores(cloud::Tier::kPrivate);
  const bool private_fits =
      (private_free != cloud::TierConfig::kUnlimited &&
       private_free >= static_cast<std::size_t>(threads)) ||
      TryFreePrivateCapacity(threads);

  // 3. Otherwise reconfigure an idle worker with enough cores (30 s
  //    penalty) — reusing a machine we already pay for beats hiring public
  //    capacity, but loses to an exact-size private hire (which avoids
  //    running a narrow task on a wide, mostly-wasted machine).
  if (!private_fits) {
    const std::uint64_t best_key = index_.BestReconfigurable(
        threads,
        [&](std::uint64_t candidate) { return health_.Allows(candidate, now); });
    if (best_key != 0) {
      WorkerBook& worker = workers_.at(best_key);
      index_.RemoveIdle(IdleEntryFor(worker));
      const SimTime delay = cloud_.Configure(worker.id, threads, now).value();
      worker.threads = threads;
      if (host_ != nullptr) host_->OnReconfigure(best_key, threads);
      ++metrics_.reconfigurations;
      if (obs::MetricsEnabled()) pmetrics_.reconfigurations->Increment();
      AuditHire(obs::HireChoice::kReconfigure, stage, job, threads, queue_len,
                nullptr);
      queues_[stage].pop_front();
      AssignTask(job_id, stage, worker, now + delay);
      return true;
    }
  }

  // 4. Hire: private when it fits, public subject to the scaling policy.
  cloud::Tier tier;
  HireEvaluation eval;
  const HireEvaluation* eval_ptr = nullptr;
  if (private_fits) {
    tier = cloud::Tier::kPrivate;
    ++metrics_.private_hires;
    if (obs::MetricsEnabled()) pmetrics_.private_hires->Increment();
  } else {
    switch (policy_.EffectiveScaling()) {
      case ScalingAlgorithm::kNeverScale:
        AuditHire(obs::HireChoice::kWait, stage, job, threads, queue_len,
                  nullptr);
        return false;  // wait for a worker to free up
      case ScalingAlgorithm::kAlwaysScale:
        tier = cloud::Tier::kPublic;
        ++metrics_.public_hires;
        if (obs::MetricsEnabled()) pmetrics_.public_hires->Increment();
        break;
      case ScalingAlgorithm::kPredictive:
        if (!PredictiveShouldHire(stage, threads, job.size, &eval)) {
          AuditHire(obs::HireChoice::kWait, stage, job, threads, queue_len,
                    &eval);
          return false;
        }
        eval_ptr = &eval;
        tier = cloud::Tier::kPublic;
        ++metrics_.public_hires;
        if (obs::MetricsEnabled()) pmetrics_.public_hires->Increment();
        break;
      default:
        return false;  // kLearnedBandit never reaches here
    }
  }

  const auto hired = cloud_.Hire(tier, threads, now);
  if (!hired.ok()) {
    // Lost a race on capacity accounting; treat as un-dispatchable now.
    return false;
  }
  const SimTime delay = cloud_.Configure(*hired, threads, now).value();

  WorkerBook worker;
  worker.id = *hired;
  worker.tier = tier;
  worker.cores = threads;
  worker.threads = threads;
  const std::uint64_t key = static_cast<std::uint64_t>(*hired);
  workers_.emplace(key, worker);
  if (host_ != nullptr) host_->OnHire(key, threads);
  AuditHire(tier == cloud::Tier::kPrivate ? obs::HireChoice::kHirePrivate
                                          : obs::HireChoice::kHirePublic,
            stage, job, threads, queue_len, eval_ptr);
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::EventKind::kWorkerHire, now.value(), key, job_id,
                   static_cast<std::uint64_t>(tier),
                   static_cast<double>(threads), 0.0,
                   obs::StageSpan(job_id, stage, job.tasks[stage].epoch),
                   obs::JobSpan(job_id));
  }
  queues_[stage].pop_front();
  AssignTask(job_id, stage, workers_.at(key), now + delay);
  return true;
}

void Engine::AssignTask(std::uint64_t job_id, std::size_t stage,
                        WorkerBook& worker, SimTime start_time) {
  JobState& job = jobs_.at(job_id);
  StageTask& task = job.tasks[stage];
  // A queued speculative copy is consumed by whichever dispatch reaches
  // the task first; it must not spawn a second speculation check.
  const bool speculative = speculative_queued_.erase(TaskKey(job_id, stage)) > 0;
  const SimTime now = sim_.Now();
  const SimTime wait = now - task.enqueued_at;
  policy_.ObserveQueueWait(stage, wait);
  metrics_.queue_wait.Add(wait.value());
  metrics_.stage_queue_wait[stage].Add(wait.value());
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::EventKind::kQueueDequeue, now.value(), 0, job_id,
                   stage, wait.value(), 0.0,
                   obs::StageSpan(job_id, stage, task.epoch, speculative),
                   task.enqueue_parent_span);
  }
  if (obs::MetricsEnabled()) {
    pmetrics_.queued_jobs->Add(-1.0);
    pmetrics_.queue_wait_tu->Observe(wait.value());
    pmetrics_.queue_wait_sketch->Observe(wait.value());
    pmetrics_.busy_workers->Add(1.0);
  }

  const SimTime full_exec =
      policy_.model().ThreadedTime(stage, worker.threads, job.size);
  // Checkpoint resume: a retried stage only executes its unfinished
  // share. The branch keeps the arithmetic bit-identical to legacy when
  // nothing was checkpointed.
  SimTime exec = full_exec;
  if (task.stage_done > 0.0) {
    exec = SimTime{full_exec.value() * (1.0 - task.stage_done)};
  }
  const SimTime done_at = start_time + exec;
  worker.busy = true;
  worker.current_job = job_id;
  worker.current_stage = stage;
  worker.busy_until = done_at;
  worker.busy_accumulated += exec;
  worker.assignment_epoch = task.epoch;
  worker.assignment_seq = next_assignment_seq_++;
  ++task.active;
  const std::uint64_t worker_key = static_cast<std::uint64_t>(worker.id);
  const std::uint64_t ticket = worker.assignment_seq;
  index_.PushBusy(done_at.value(), worker_key, ticket);
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::EventKind::kStageExec, start_time.value(), worker_key,
                   job_id, stage, static_cast<double>(worker.threads),
                   exec.value(),
                   obs::StageSpan(job_id, stage, task.epoch, speculative),
                   task.enqueue_parent_span);
  }

  // Fault injection: the assignment may straggle (run slower than its
  // model), crash the worker, or flap it. Exactly one terminal event
  // fires per assignment. busy_until stays at done_at — the scheduler
  // must not foresee faults, so NextWorkerFreeTime (and hence the
  // predictive hire decision) keeps reasoning from the planned
  // completion time.
  const fault::FaultDecision fate = injector_.Draw(start_time, done_at);
  if (fate.straggles()) {
    ++metrics_.straggles_injected;
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::EventKind::kStraggle, start_time.value(),
                     worker_key, job_id, stage, fate.straggle_factor, 0.0,
                     obs::StageSpan(job_id, stage, task.epoch, speculative),
                     obs::JobSpan(job_id));
    }
    if (obs::MetricsEnabled()) pmetrics_.straggles->Increment();
  }
  if (options_.record_schedule) {
    metrics_.stage_schedule.push_back({job_id, stage, worker_key,
                                       worker.threads, now, start_time,
                                       done_at, fate.crash_at.has_value()});
  }

  const std::uint64_t epoch = task.epoch;
  const SimTime extra = fate.actual_end - done_at;
  if (host_ != nullptr) {
    host_->Execute({ticket, job_id, stage, worker_key, epoch, worker.threads,
                    start_time, fate.actual_end, extra,
                    obs::StageSpan(job_id, stage, epoch, speculative)});
  }

  // Straggler detection: if this (non-speculative) assignment is still
  // running once slowdown * its modeled time has passed, enqueue one
  // speculative copy. Gated so disabled configs schedule no extra event,
  // and scheduled before the terminal event (same-instant ties break by
  // sequence number).
  if (config_.fault.speculation_slowdown > 0.0 && !speculative &&
      !task.speculated) {
    task.speculated = true;
    const SimTime check_at =
        start_time +
        SimTime{exec.value() * config_.fault.speculation_slowdown};
    sim_.ScheduleAt(check_at, [this, job_id, stage, epoch, worker_key,
                               ticket](sim::Simulator&) {
      OnSpeculationCheck(job_id, stage, epoch, worker_key, ticket);
    });
  }

  // The terminal event. A host first claims the assignment: under the
  // virtual clock that waits for the worker's completion ticket; under
  // the wall clock a crash or flap is moot once the physical task has
  // finished, and the completion itself arrives as a host message.
  if (fate.crash_at) {
    sim_.ScheduleAt(*fate.crash_at, [this, ticket, job_id, stage, worker_key,
                                     epoch, start_time,
                                     exec](sim::Simulator&) {
      if (host_ != nullptr && !host_->Claim(ticket)) return;
      OnWorkerFailure(job_id, stage, worker_key, epoch, start_time, exec);
    });
    return;
  }
  if (fate.flap_at) {
    sim_.ScheduleAt(*fate.flap_at, [this, ticket, job_id, stage, worker_key,
                                    epoch, start_time, exec](sim::Simulator&) {
      if (host_ != nullptr && !host_->Claim(ticket)) return;
      OnWorkerFlap(job_id, stage, worker_key, epoch, start_time, exec);
    });
    return;
  }
  if (host_ != nullptr && host_->DeliversCompletions()) return;
  sim_.ScheduleAt(fate.actual_end, [this, ticket, job_id, stage, worker_key,
                                    epoch, extra](sim::Simulator&) {
    if (host_ != nullptr && !host_->Claim(ticket)) return;
    OnTaskComplete(job_id, stage, worker_key, epoch, extra);
  });
}

void Engine::RetireWorker(std::uint64_t worker_key, SimTime now) {
  const WorkerBook& worker = workers_.at(worker_key);
  RecordWorkerUtilization(worker, now);
  const Status released = cloud_.Release(worker.id, now);
  if (!released.ok()) {
    const std::string task =
        worker.busy
            ? StrFormat("job %llu, stage %zu",
                        static_cast<unsigned long long>(worker.current_job),
                        worker.current_stage)
            : std::string("idle");
    throw std::logic_error(
        StrFormat("cloud release of worker %llu (%s) failed: %s",
                  static_cast<unsigned long long>(worker_key), task.c_str(),
                  released.ToString().c_str()));
  }
  workers_.erase(worker_key);
  if (host_ != nullptr) host_->OnRelease(worker_key);
}

void Engine::ReleaseIdleWorker(std::uint64_t worker_key, SimTime now) {
  index_.RemoveIdle(IdleEntryFor(workers_.at(worker_key)));
  RetireWorker(worker_key, now);
  ++metrics_.releases;
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::EventKind::kWorkerRelease, now.value(), worker_key, 0);
  }
  if (obs::MetricsEnabled()) pmetrics_.releases->Increment();
}

void Engine::OnWorkerFailure(std::uint64_t job_id, std::size_t stage,
                             std::uint64_t worker_key, std::uint64_t epoch,
                             SimTime start_time, SimTime planned_exec) {
  const SimTime now = sim_.Now();
  // The crashed VM is gone; its bill stops at the crash instant.
  WorkerBook& worker = workers_.at(worker_key);
  // A crash interrupts the in-flight task: busy_accumulated was credited
  // with the full execution time at assignment, so remove the unserved
  // remainder (busy_until is the planned completion) before folding the
  // lifetime utilization into the feedback metric. For a straggler that
  // crashed past its planned end this *adds* now - busy_until, leaving
  // exactly the time actually served — both cases land on
  // busy_accumulated covering [hired, now] work only.
  worker.busy_accumulated -= (worker.busy_until - now);
  RetireWorker(worker_key, now);
  health_.Forget(worker_key);
  ++metrics_.worker_failures;
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::EventKind::kWorkerFailure, now.value(), worker_key,
                   job_id, stage, 0.0, 0.0,
                   obs::StageSpan(job_id, stage, epoch),
                   obs::JobSpan(job_id));
  }
  if (obs::MetricsEnabled()) {
    pmetrics_.worker_failures->Increment();
    pmetrics_.busy_workers->Add(-1.0);
  }

  // Recovery only applies if the task is still on the epoch this
  // assignment started under (a speculative sibling may have finished or
  // retried it already — then the crash cost is all there was to settle).
  const auto jit = jobs_.find(job_id);
  if (jit != jobs_.end() && jit->second.tasks[stage].epoch == epoch) {
    HandleTaskLoss(jit->second, stage, now - start_time, planned_exec);
  }
  TryDispatchAll();
}

void Engine::OnWorkerFlap(std::uint64_t job_id, std::size_t stage,
                          std::uint64_t worker_key, std::uint64_t epoch,
                          SimTime start_time, SimTime planned_exec) {
  const SimTime now = sim_.Now();
  // The worker survives but drops its in-flight task: roll back the
  // unserved credit (same accounting as a crash) and return it to the
  // idle pool. A live host keeps its LiveWorker: the machine only
  // dropped its task.
  WorkerBook& worker = workers_.at(worker_key);
  worker.busy_accumulated -= (worker.busy_until - now);
  if (obs::MetricsEnabled()) pmetrics_.busy_workers->Add(-1.0);
  worker.busy = false;
  worker.current_job = 0;
  worker.idle_since = now;
  ++worker.idle_epoch;
  index_.InsertIdle(IdleEntryFor(worker));
  ScheduleIdleRelease(worker_key);
  ++metrics_.worker_flaps;
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::EventKind::kWorkerFlap, now.value(), worker_key,
                   job_id, stage, 0.0, 0.0,
                   obs::StageSpan(job_id, stage, epoch),
                   obs::JobSpan(job_id));
  }
  if (obs::MetricsEnabled()) pmetrics_.worker_flaps->Increment();
  if (health_.enabled() && health_.RecordFlap(worker_key, now)) {
    ++metrics_.breaker_opens;
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::EventKind::kBreakerOpen, now.value(), worker_key, 0,
                     0, config_.fault.breaker_cooldown.value());
    }
    if (obs::MetricsEnabled()) pmetrics_.breaker_opens->Increment();
  }

  const auto jit = jobs_.find(job_id);
  if (jit != jobs_.end() && jit->second.tasks[stage].epoch == epoch) {
    HandleTaskLoss(jit->second, stage, now - start_time, planned_exec);
  }
  TryDispatchAll();
}

void Engine::HandleTaskLoss(JobState& job, std::size_t stage, SimTime served,
                            SimTime planned_exec) {
  const SimTime now = sim_.Now();
  StageTask& task = job.tasks[stage];
  // Checkpoint credit: work completes at whole checkpoint intervals of
  // *modeled* execution time (a straggler checkpoints on the same modeled
  // boundaries — progress is measured in work, priced in the model's
  // units), so the job resumes from the last one instead of restarting
  // the stage.
  if (config_.fault.checkpoint_interval > SimTime{0.0} &&
      planned_exec > SimTime{0.0}) {
    const double interval = config_.fault.checkpoint_interval.value();
    const double saved =
        std::floor(served.value() / interval) * interval;
    if (saved > 0.0) {
      // stage_done is a fraction of the *whole* stage; this assignment
      // only covered the remaining (1 - stage_done) share. Cap below 1 so
      // a resumed assignment always has a positive remainder to run.
      const double fraction =
          std::min(saved / planned_exec.value(), 0.95);
      task.stage_done += (1.0 - task.stage_done) * fraction;
      ++metrics_.checkpoints_saved;
      if (obs::TraceEnabled()) {
        obs::TraceEmit(obs::EventKind::kCheckpoint, now.value(), 0, job.id,
                       stage, task.stage_done, 0.0,
                       obs::StageSpan(job.id, stage, task.epoch),
                       obs::JobSpan(job.id));
      }
      if (obs::MetricsEnabled()) pmetrics_.checkpoints_saved->Increment();
    }
  }

  --task.active;
  if (task.active > 0 || speculative_queued_.count(TaskKey(job.id, stage)) > 0) {
    // A same-epoch sibling (running speculative copy, or one still in the
    // queue) carries the task; no retry needed for this loss.
    return;
  }

  // Full loss: invalidate any outstanding speculation events and spend
  // one retry from the budget.
  ++task.epoch;
  task.active = 0;
  task.speculated = false;
  ++job.retries;
  if (retry_.Exhausted(job.retries)) {
    ++metrics_.jobs_abandoned;
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::EventKind::kJobAbandoned, now.value(), 0, job.id,
                     stage, static_cast<double>(job.retries), 0.0,
                     obs::JobSpan(job.id),
                     obs::StageSpan(job.id, stage, task.epoch - 1));
    }
    if (obs::MetricsEnabled()) pmetrics_.jobs_abandoned->Increment();
    AbandonJob(job.id);
    return;
  }
  ++metrics_.task_retries;
  // The retry's causal parent is the attempt just lost (epoch was bumped
  // above, so the lost attempt is epoch - 1).
  const std::uint64_t lost_span = obs::StageSpan(job.id, stage, task.epoch - 1);
  const std::uint64_t retry_span = obs::StageSpan(job.id, stage, task.epoch);
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::EventKind::kTaskRetry, now.value(), 0, job.id,
                   stage, 0.0, 0.0, retry_span, lost_span);
  }
  if (obs::MetricsEnabled()) pmetrics_.task_retries->Increment();

  const SimTime backoff = retry_.BackoffFor(job.retries - 1);
  if (backoff <= SimTime{0.0}) {
    // Immediate requeue in the same event — the legacy path, with no
    // extra calendar entry (keeps disabled-fault runs bit-identical).
    EnqueueTask(job.id, stage, lost_span);
    return;
  }
  task.in_backoff = true;
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::EventKind::kRetryBackoff, now.value(), 0, job.id,
                   stage, backoff.value(), 0.0, retry_span, lost_span);
  }
  const std::uint64_t job_id = job.id;
  sim_.ScheduleAfter(backoff, [this, job_id, stage,
                               lost_span](sim::Simulator&) {
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return;
    it->second.tasks[stage].in_backoff = false;
    EnqueueTask(job_id, stage, lost_span);
    TryDispatchAll();
  });
}

void Engine::AbandonJob(std::uint64_t job_id) {
  // Purge every still-queued task of the job: a DAG job may hold ready
  // entries on parallel branches when its retry budget runs out. A linear
  // job never does (the lost task was executing, not queued), so this
  // sweep finds nothing on the legacy path.
  for (std::size_t stage = 0; stage < queues_.size(); ++stage) {
    auto& queue = queues_[stage];
    for (auto it = queue.begin(); it != queue.end();) {
      if (*it == job_id) {
        it = queue.erase(it);
        speculative_queued_.erase(TaskKey(job_id, stage));
        if (obs::MetricsEnabled()) pmetrics_.queued_jobs->Add(-1.0);
      } else {
        ++it;
      }
    }
  }
  const auto it = jobs_.find(job_id);
  const DataSize size = it->second.size;
  jobs_.erase(it);
  NotifyOutcome(job_id, /*completed=*/false, SimTime{0.0}, size, 0.0);
}

void Engine::OnSpeculationCheck(std::uint64_t job_id, std::size_t stage,
                                std::uint64_t epoch, std::uint64_t worker_key,
                                std::uint64_t assignment_seq) {
  const auto jit = jobs_.find(job_id);
  if (jit == jobs_.end() || jit->second.tasks[stage].epoch != epoch) return;
  const auto wit = workers_.find(worker_key);
  // Only a straggler trips the check: the original assignment must still
  // be running on the same worker past slowdown * its modeled time.
  if (wit == workers_.end() || !wit->second.busy ||
      wit->second.current_job != job_id ||
      wit->second.assignment_seq != assignment_seq) {
    return;
  }
  if (speculative_queued_.count(TaskKey(job_id, stage)) > 0) return;
  speculative_queued_.insert(TaskKey(job_id, stage));
  ++metrics_.speculative_launches;
  const SimTime now = sim_.Now();
  // The running original attempt is the copy's causal parent.
  const std::uint64_t attempt_span = obs::StageSpan(job_id, stage, epoch);
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::EventKind::kSpeculativeLaunch, now.value(),
                   worker_key, job_id, stage, 0.0, 0.0,
                   obs::StageSpan(job_id, stage, epoch, /*copy=*/true),
                   attempt_span);
  }
  if (obs::MetricsEnabled()) pmetrics_.speculative_launches->Increment();
  EnqueueTask(job_id, stage, attempt_span);
  TryDispatchAll();
}

void Engine::RecordWorkerUtilization(const WorkerBook& worker, SimTime now) {
  const auto info = cloud_.Info(worker.id);
  if (!info.ok()) return;
  const double lifetime = (now - info->hired_at).value();
  if (lifetime <= 0.0) return;
  const double utilization =
      std::min(1.0, worker.busy_accumulated.value() / lifetime);
  metrics_.worker_utilization.Add(utilization);
  if (obs::MetricsEnabled()) {
    pmetrics_.worker_utilization->Observe(utilization);
  }
}

void Engine::OnTaskComplete(std::uint64_t job_id, std::size_t stage,
                            std::uint64_t worker_key, std::uint64_t epoch,
                            SimTime extra) {
  const SimTime now = sim_.Now();
  WorkerBook& worker = workers_.at(worker_key);
  // A straggler served longer than the credit taken at assignment; top
  // the ledger up to the time actually worked.
  if (extra > SimTime{0.0}) worker.busy_accumulated += extra;
  if (obs::MetricsEnabled() && worker.busy) pmetrics_.busy_workers->Add(-1.0);
  worker.busy = false;
  worker.current_job = 0;
  worker.idle_since = now;
  ++worker.idle_epoch;
  index_.InsertIdle(IdleEntryFor(worker));
  ScheduleIdleRelease(worker_key);
  if (health_.enabled()) health_.RecordSuccess(worker_key);

  // A completion from a superseded epoch (the task finished via a
  // speculative sibling, was retried, or the job was abandoned) only
  // frees the worker; the result is discarded.
  const auto jit = jobs_.find(job_id);
  if (jit == jobs_.end() || jit->second.tasks[stage].epoch != epoch) {
    ++metrics_.speculative_wasted;
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::EventKind::kSpeculativeWasted, now.value(),
                     worker_key, job_id, stage, 0.0, 0.0,
                     obs::StageSpan(job_id, stage, epoch));
    }
    if (obs::MetricsEnabled()) pmetrics_.speculative_wasted->Increment();
    TryDispatchAll();
    return;
  }

  JobState& job = jit->second;
  StageTask& task = job.tasks[stage];
  // A speculative copy still sitting in the queue is moot now.
  if (speculative_queued_.erase(TaskKey(job_id, stage)) > 0) {
    auto& queue = queues_[stage];
    const auto entry = std::find(queue.begin(), queue.end(), job_id);
    if (entry == queue.end()) {
      throw std::logic_error(StrFormat(
          "speculative copy of job %llu stage %zu missing from its queue "
          "(completed on worker %llu)",
          static_cast<unsigned long long>(job_id), stage,
          static_cast<unsigned long long>(worker_key)));
    }
    queue.erase(entry);
    if (obs::MetricsEnabled()) pmetrics_.queued_jobs->Add(-1.0);
  }
  task.stage_done = 0.0;
  ++task.epoch;
  task.active = 0;
  task.speculated = false;
  task.completed = true;
  --job.stages_remaining;
  if (job.stages_remaining == 0) {
    // Pipeline run finished: settle the reward.
    const SimTime latency = now - job.arrival;
    const DataSize size = job.size;
    const double reward = policy_.reward()(size, latency).value();
    metrics_.total_reward += reward;
    metrics_.latency.Add(latency.value());
    metrics_.core_stages.Add(
        static_cast<double>(TotalCoreStages(job.plan)));
    ++metrics_.jobs_completed;
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::EventKind::kJobComplete, now.value(), 0, job_id, 0,
                     latency.value(), 0.0, obs::JobSpan(job_id),
                     obs::StageSpan(job_id, stage, epoch));
    }
    if (obs::MetricsEnabled()) {
      pmetrics_.jobs_completed->Increment();
      pmetrics_.job_latency_tu->Observe(latency.value());
      pmetrics_.job_latency_slo->Observe(latency.value());
    }
    if (options_.record_schedule) {
      metrics_.job_completions.push_back({job_id, now, latency, reward});
    }
    jobs_.erase(jit);

    // Adaptive replanning: refresh the long-term plan with the effective
    // core price observed so far (the bill divided by core-time used),
    // which folds the realized private/public mix back into the optimizer.
    if (policy_.NoteCompletion()) {
      policy_.ReplanFromBill(cloud_.CostUpTo(now));
    }
    NotifyOutcome(job_id, /*completed=*/true, latency, size, reward);
  } else {
    // Release every dependent whose predecessors are now all complete.
    // For a linear chain this is exactly "enqueue stage+1" — the legacy
    // behavior, with the same single EnqueueTask call. The completing
    // attempt is the causal parent of every release it triggers.
    for (const std::size_t next : policy_.model().dependents(stage)) {
      if (--job.tasks[next].remaining_deps == 0) {
        EnqueueTask(job_id, next, obs::StageSpan(job_id, stage, epoch));
      }
    }
  }
  TryDispatchAll();
}

void Engine::ScheduleIdleRelease(std::uint64_t worker_key) {
  const std::uint64_t epoch = workers_.at(worker_key).idle_epoch;
  sim_.ScheduleAfter(
      config_.idle_release_timeout,
      [this, worker_key, epoch](sim::Simulator& s) {
        const auto it = workers_.find(worker_key);
        if (it == workers_.end()) return;
        if (it->second.busy || it->second.idle_epoch != epoch) return;
        ReleaseIdleWorker(worker_key, s.Now());
        // Freed capacity may unblock a waiting queue (never-scale relies
        // on this to make progress when the private tier was full).
        TryDispatchAll();
      });
}

bool Engine::TryFreePrivateCapacity(int needed_cores) {
  std::size_t available = cloud_.AvailableCores(cloud::Tier::kPrivate);
  if (available == cloud::TierConfig::kUnlimited) return true;
  if (static_cast<std::size_t>(needed_cores) >
      cloud_.config().private_tier.core_capacity) {
    return false;  // could never fit, even empty
  }

  // The index keeps idle private workers in (cores, key) order — smallest
  // first, so as little capacity as possible is released, key order
  // breaking ties for determinism. The prefix to release is collected
  // before mutating (releasing removes entries from the set iterated).
  std::vector<std::uint64_t> victims;
  {
    std::size_t would_have = available;
    for (const auto& [cores, key] : index_.idle_private()) {
      if (would_have >= static_cast<std::size_t>(needed_cores)) break;
      victims.push_back(key);
      would_have += static_cast<std::size_t>(cores);
    }
  }

  const SimTime now = sim_.Now();
  for (const std::uint64_t key : victims) {
    if (available >= static_cast<std::size_t>(needed_cores)) break;
    const int cores = workers_.at(key).cores;
    ReleaseIdleWorker(key, now);
    available += static_cast<std::size_t>(cores);
  }
  return available >= static_cast<std::size_t>(needed_cores);
}

std::optional<SimTime> Engine::NextWorkerFreeTime() const {
  // Every busy worker has exactly one valid heap entry (pushed at
  // assignment); entries for finished or lost assignments fail the
  // predicate and are discarded lazily, so this returns the same minimum
  // as the legacy all-workers scan.
  const std::optional<double> earliest =
      index_.MinBusyUntil([this](std::uint64_t key, std::uint64_t seq) {
        const auto it = workers_.find(key);
        return it != workers_.end() && it->second.busy &&
               it->second.assignment_seq == seq;
      });
  if (!earliest) return std::nullopt;
  return SimTime{*earliest};
}

std::vector<QueuedJobSnapshot> Engine::SnapshotQueue(std::size_t stage) const {
  std::vector<QueuedJobSnapshot> snapshot;
  snapshot.reserve(queues_[stage].size());
  const SimTime now = sim_.Now();
  for (const std::uint64_t job_id : queues_[stage]) {
    const JobState& job = jobs_.at(job_id);
    snapshot.push_back({job.size, now - job.arrival, stage,
                        std::span<const int>(job.plan)});
  }
  return snapshot;
}

void Engine::BanditEpoch() {
  const cloud::CostReport bill = cloud_.CostUpTo(sim_.Now());
  policy_.BanditEpoch(metrics_.total_reward, bill.total.value());
}

bool Engine::PredictiveShouldHire(std::size_t stage, int threads,
                                  DataSize head_size, HireEvaluation* eval) {
  std::optional<SimTime> next_free_delay;
  if (const auto next_free = NextWorkerFreeTime()) {
    next_free_delay = *next_free - sim_.Now();
  }
  return policy_.PredictiveShouldHire(SnapshotQueue(stage), stage, threads,
                                      head_size, next_free_delay,
                                      cloud_.config().boot_penalty, eval);
}

}  // namespace scan::core
