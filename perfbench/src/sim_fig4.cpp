// sim_fig4: the paper's Figure 4 grid at best-constant allocation —
// predictive, always- and never-scale x mean arrival interval 2.0..3.0 —
// run cell after cell on the calling thread through core::Scheduler (the
// DES calendar and the scheduler copy of the mechanics; no threads, no
// front end, no KB). One sweep is 33 cells; sweeps repeat with the same
// seeds until the wall budget is spent.

#include <algorithm>
#include <string>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/testkit/digest.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace scan;

constexpr double kCellTu = 2000.0;
constexpr double kTinyCellTu = 100.0;

/// MetricsFingerprint digests of the 33 cells at kDefaultSeed, in
/// MakeCells order (interval-major, then predictive / always / never).
constexpr std::uint64_t kPinnedFingerprints[] = {
    0x17729315c31c614eULL, 0x4420711741c7d72eULL, 0x9cb8092b9d93b8e9ULL,
    0x2d9e166d4a310903ULL, 0xbe8e42abc1efd4faULL, 0x7f05736e0367b60eULL,
    0x242354bf9753a006ULL, 0x23f1cad04fdde8f7ULL, 0xfa4074c74f21802dULL,
    0x1bbe9dcbab32c3ecULL, 0xbbf8bcca84a41ac6ULL, 0xee6134561077ba02ULL,
    0xf438142806de5112ULL, 0x14f76aed6635ae92ULL, 0xa52ca6de42fb56ebULL,
    0x27184678b1fd264fULL, 0xed6c92526f91ea7aULL, 0x11dbfe2376f168a6ULL,
    0x179ef056b1b2106aULL, 0x33466481fe2864f0ULL, 0x735db8140aaa67b4ULL,
    0xcca0d5a7ef0eb337ULL, 0x4775a9fbdf946425ULL, 0x2ec9569594627a0dULL,
    0x5f26b84d3e3010efULL, 0xa1a8c6736a5ee607ULL, 0x3f1bfc0e7a990155ULL,
    0xea904263166bd7aeULL, 0x5c3653eca88f6297ULL, 0x0527525ee94eb824ULL,
    0xf69bb321d198388aULL, 0xf412aaea448bd53dULL, 0x30438114ed2bbf24ULL,
};

struct Cell {
  core::SimulationConfig config;
  std::uint64_t seed = 0;
};

std::vector<Cell> MakeCells(std::uint64_t seed, double duration_tu) {
  const core::ScalingAlgorithm scalings[] = {
      core::ScalingAlgorithm::kPredictive, core::ScalingAlgorithm::kAlwaysScale,
      core::ScalingAlgorithm::kNeverScale};
  std::vector<Cell> cells;
  for (int step = 0; step <= 10; ++step) {
    for (const core::ScalingAlgorithm scaling : scalings) {
      Cell cell;
      cell.config.duration = SimTime{duration_tu};
      cell.config.reward_scheme = workload::RewardScheme::kTimeBased;
      cell.config.public_cost_per_core_tu = 50.0;
      cell.config.allocation = core::AllocationAlgorithm::kBestConstant;
      cell.config.mean_interarrival_tu = 2.0 + 0.1 * step;
      cell.config.scaling = scaling;
      cell.seed = MixSeed(seed, cells.size());
      cells.push_back(cell);
    }
  }
  return cells;
}

struct Sweep {
  double setup_s = 0.0;  ///< Scheduler construction, summed over cells
  double run_s = 0.0;    ///< Scheduler::Run, summed over cells
  std::vector<double> cell_s;
  std::vector<std::uint64_t> fingerprints;
  std::uint64_t events = 0;  ///< counted only when count_events
  core::RunMetrics total;    ///< counters summed over cells
  double latency_sum = 0.0;
};

Sweep RunSweep(const std::vector<Cell>& cells,
               const gatk::PipelineModel& model, SpanLog* spans,
               std::uint64_t sweep_index) {
  Sweep sweep;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::uint64_t request = sweep_index * 1000 + i;
    core::SchedulerOptions options;
    if (spans != nullptr) {
      options.trace_hook = [&sweep](SimTime, std::uint64_t) { ++sweep.events; };
    }
    const Clock::time_point t0 = Clock::now();
    core::Scheduler scheduler(cells[i].config, model, cells[i].seed, options);
    const Clock::time_point t1 = Clock::now();
    const core::RunMetrics m = scheduler.Run();
    const Clock::time_point t2 = Clock::now();
    if (spans != nullptr) {
      spans->Record(spans->NextId(), "core.setup", t0, t1, 0, request);
      spans->Record(spans->NextId(), "sim.episode", t1, t2, 0, request);
    }
    const double cell_s = std::chrono::duration<double>(t2 - t1).count();
    sweep.setup_s += std::chrono::duration<double>(t1 - t0).count();
    sweep.run_s += cell_s;
    sweep.cell_s.push_back(cell_s);
    sweep.fingerprints.push_back(testkit::MetricsFingerprint::Of(m).digest);

    core::RunMetrics& t = sweep.total;
    t.jobs_arrived += m.jobs_arrived;
    t.jobs_completed += m.jobs_completed;
    t.total_reward += m.total_reward;
    t.total_cost += m.total_cost;
    t.queue_wait.Merge(m.queue_wait);
    t.worker_utilization.Merge(m.worker_utilization);
    t.private_hires += m.private_hires;
    t.public_hires += m.public_hires;
    t.reconfigurations += m.reconfigurations;
    t.releases += m.releases;
    sweep.latency_sum += m.latency.sum();
  }
  return sweep;
}

/// Every cell's fingerprint must replay the run's first sweep, match the
/// pin at the default seed, and the cell must have completed jobs.
void CheckSweep(const Sweep& sweep, const Sweep& first, const RunOptions& opts,
                Outcome& out) {
  const std::uint64_t ops = sweep.total.jobs_arrived;
  for (std::size_t i = 0; i < sweep.fingerprints.size(); ++i) {
    const std::uint64_t fp = sweep.fingerprints[i];
    if (fp != first.fingerprints[i]) {
      out.Fail("sim_fig4 cell " + std::to_string(i) + ": fingerprint " +
                   Hex(fp) + " != first sweep " + Hex(first.fingerprints[i]),
               ops / sweep.fingerprints.size());
    }
    if (opts.pinned() && fp != kPinnedFingerprints[i]) {
      out.Fail("sim_fig4 cell " + std::to_string(i) + ": fingerprint " +
                   Hex(fp) + " != pinned " + Hex(kPinnedFingerprints[i]),
               ops / sweep.fingerprints.size());
    }
  }
  if (sweep.total.jobs_completed == 0 ||
      sweep.total.jobs_completed > sweep.total.jobs_arrived) {
    out.Fail("sim_fig4: completed jobs outside (0, arrived]", ops);
  }
}

}  // namespace

Outcome RunSimFig4(const RunOptions& opts) {
  Outcome out;
  const std::vector<Cell> cells =
      MakeCells(MixSeed(opts.seed, Fnv1a64("sim_fig4")),
                opts.tiny ? kTinyCellTu : kCellTu);
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();

  SpanLog spans;
  SpanLog* span_log = opts.trace ? &spans : nullptr;
  std::vector<Sweep> sweeps;
  const Clock::time_point loop_start = Clock::now();
  do {
    sweeps.push_back(RunSweep(cells, model, span_log, sweeps.size() + 1));
    out.AddAttempted(sweeps.back().total.jobs_arrived);
    CheckSweep(sweeps.back(), sweeps.front(), opts, out);
  } while (SecondsSince(loop_start) < opts.seconds);

  // Per-cell wall time: the fastest of the run's sweeps. On a shared host
  // other tenants slow whole stretches of a run; the fastest repetition is
  // the one they disturbed least (the best-of-N rule of the repository's
  // other benches).
  std::vector<double> cell_s(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cell_s[i] = sweeps.front().cell_s[i];
    for (const Sweep& s : sweeps) cell_s[i] = std::min(cell_s[i], s.cell_s[i]);
  }
  double sweep_s = 0.0;
  for (const double s : cell_s) sweep_s += s;
  std::vector<double> setup;
  for (const Sweep& s : sweeps) setup.push_back(s.setup_s);

  const Sweep& first = sweeps.front();
  const core::RunMetrics& t = first.total;
  const auto completed = static_cast<double>(t.jobs_completed);
  out.Set("jobs_per_s", completed / sweep_s);
  out.Set("op_p50_us", Quantile(cell_s, 0.5) * 1e6);
  out.Set("op_p99_us", Quantile(cell_s, 0.99) * 1e6);
  out.Set("cost_per_job", t.total_cost / completed);
  out.Set("latency_mean_tu", first.latency_sum / completed);
  out.Set("setup_s", Median(setup));
  std::string fps;
  for (const std::uint64_t fp : first.fingerprints) {
    fps += ' ';
    fps += Hex(fp);
  }
  out.Note("sim_fig4: profit_per_job=" +
           std::to_string(t.profit() / completed) +
           " sweeps=" + std::to_string(sweeps.size()) +
           " cells=" + std::to_string(cells.size()) +
           " jobs_per_sweep=" + std::to_string(t.jobs_completed) +
           " fingerprints:" + fps);

  if (!opts.trace) return out;

  out.Set("core.dispatches", static_cast<double>(t.queue_wait.count()));
  out.Set("core.hires_private", static_cast<double>(t.private_hires));
  out.Set("core.hires_public", static_cast<double>(t.public_hires));
  out.Set("core.reconfigs", static_cast<double>(t.reconfigurations));
  out.Set("core.releases", static_cast<double>(t.releases));
  out.Set("core.worker_util_mean", t.worker_utilization.mean());
  out.Set("sim.events", static_cast<double>(first.events));
  out.Set("sim.events_per_s", static_cast<double>(first.events) / sweep_s);
  out.Set("sim.episode_s_p50", Quantile(cell_s, 0.5));

  // The obs cost, paired: one obs-off sweep and, right after it, one with
  // the program's trace recorder and decision audit on (same cells, same
  // event-counting hook).
  const Sweep untraced = RunSweep(cells, model, span_log, sweeps.size() + 1);
  ObsPass obs;
  const Sweep traced = RunSweep(cells, model, span_log, sweeps.size() + 2);
  obs.Harvest();
  CheckSweep(traced, first, opts, out);
  out.Set("core.hire_evals", static_cast<double>(obs.hire_evals()));
  out.Set("obs.trace_events", static_cast<double>(obs.events()));
  out.Set("obs.trace_slowdown", traced.run_s / untraced.run_s);
  out.Note("obs events by kind (retained window):" + obs.by_kind());
  WriteSpans(opts, spans, out);
  return out;
}

}  // namespace perfbench
