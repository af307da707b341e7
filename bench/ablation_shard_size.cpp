// Ablation: knowledge-based shard sizing (the Data Broker's core claim).
//
// The paper's Data Broker queries the knowledge base for "the most
// suitable file size" and splits big inputs accordingly (e.g. a 100 GB
// FASTQ into 25 x 4 GB subtasks). This ablation quantifies the value of
// that advice: for a large job of size D, compare profit across fixed
// shard sizes against the KB-advised size.
//
// Per shard size s: k = ceil(D/s) shards each run the 7-stage pipeline
// (single-threaded plan per stage — sharding IS the parallelism here);
// shards execute concurrently, so the job's latency is the largest shard's
// pipeline time plus a merge pass (modelled as stage 7 on the merged
// output), and the cost is the summed core-time at the private-tier price
// with boot penalty per shard worker.
//
// Expected shape: profit is unimodal in shard size — tiny shards drown in
// per-stage fixed overheads (the b_i intercepts paid k times), huge shards
// forgo parallel latency gains — and the KB advice lands near the optimum.
//
// Flags: --job-gb=D (default 40), --csv=PATH

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "scan/core/data_broker.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/workload/reward.hpp"

using namespace scan;
using namespace scan::core;

namespace {

struct ShardOutcome {
  double latency_tu = 0.0;
  double cost_cu = 0.0;
  double profit_cu = 0.0;
};

ShardOutcome EvaluateShardSize(const gatk::PipelineModel& model, double job_gb,
                               double shard_gb, double price,
                               const workload::RewardFunction& reward) {
  const auto shard_count =
      static_cast<std::size_t>(std::ceil(job_gb / shard_gb));
  const double last_shard =
      job_gb - shard_gb * static_cast<double>(shard_count - 1);
  // Concurrent shards: latency set by the largest shard; every stage runs
  // single-threaded within a shard.
  const double shard_latency =
      model.SequentialPipelineTime(DataSize{shard_gb}).value();
  // Merge pass over the combined output, modelled as the final (VCF) stage
  // applied to the whole job.
  const double merge =
      shard_count > 1
          ? model.SingleThreadedTime(model.stage_count() - 1, DataSize{job_gb})
                .value()
          : 0.0;
  ShardOutcome out;
  out.latency_tu = shard_latency + merge;
  double core_time = 0.0;
  for (std::size_t i = 0; i + 1 < shard_count; ++i) {
    core_time += model.SequentialPipelineTime(DataSize{shard_gb}).value();
  }
  core_time += model.SequentialPipelineTime(DataSize{last_shard}).value();
  core_time += merge;
  // One worker per shard, each paying the 30 s boot penalty.
  core_time += 0.5 * static_cast<double>(shard_count);
  out.cost_cu = price * core_time;
  out.profit_cu =
      reward(DataSize{job_gb}, SimTime{out.latency_tu}).value() - out.cost_cu;
  return out;
}

}  // namespace

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto obs_session = bench::MakeObsSession(flags);
  const double job_gb = flags.GetDouble("job-gb", 40.0);
  const bench::TableOutput output(flags);
  flags.RejectUnread();
  const double price = 5.0;  // private tier

  const auto model = gatk::PipelineModel::PaperGatk().Scaled(0.25);
  const workload::RewardFunction reward{workload::RewardParams{}};

  // Seed the KB with per-shard-size "profiles" the broker can rank: eTime
  // of the full pipeline at each candidate shard size (what the platform
  // would have logged from earlier runs).
  kb::KnowledgeBase knowledge;
  const std::vector<double> candidate_sizes = {0.5, 1.0, 2.0, 4.0,
                                               8.0, 16.0, job_gb};
  for (const double s : candidate_sizes) {
    kb::ApplicationProfile profile;
    profile.application = "GATK";
    profile.input_file_size_gb = s;
    profile.etime = model.SequentialPipelineTime(DataSize{s}).value();
    profile.threads = 1;
    knowledge.AddProfile(profile);
  }
  DataBroker broker(knowledge);
  // The paper's literal ranking (eTime per GB) and the job-level
  // profit-aware ranking, side by side.
  const auto paper_plan =
      broker.PlanJob("GATK", job_gb, ShardBounds{0.25, job_gb});
  const auto smart_plan = broker.PlanJobProfitAware(
      "GATK", job_gb, reward, price, ShardBounds{0.25, job_gb});

  std::cout << "Ablation: shard size vs. profit for a " << job_gb
            << " GB job (broker advice vs. fixed sizes)\n\n";
  CsvTable table(
      {"shard_gb", "shards", "latency_tu", "cost_cu", "profit_cu", "note"});
  double best_profit = -1e300;
  double best_size = 0.0;
  for (const double s : candidate_sizes) {
    const ShardOutcome outcome =
        EvaluateShardSize(model, job_gb, s, price, reward);
    if (outcome.profit_cu > best_profit) {
      best_profit = outcome.profit_cu;
      best_size = s;
    }
    std::string note;
    if (paper_plan.ok() && paper_plan->shard_size_gb == s) {
      note += "<- paper ranking (eTime/GB)";
    }
    if (smart_plan.ok() && smart_plan->shard_size_gb == s) {
      note += note.empty() ? "<- profit-aware ranking"
                           : " & profit-aware ranking";
    }
    table.AddRow({CsvTable::Num(s),
                  std::to_string(static_cast<std::size_t>(
                      std::ceil(job_gb / s))),
                  CsvTable::Num(outcome.latency_tu),
                  CsvTable::Num(outcome.cost_cu),
                  CsvTable::Num(outcome.profit_cu), note});
  }
  bench::Emit(table, output);

  std::cout << "\noptimal fixed shard size: " << best_size << " GB (profit "
            << CsvTable::Num(best_profit) << ")\n";
  if (paper_plan.ok()) {
    const ShardOutcome advised = EvaluateShardSize(
        model, job_gb, paper_plan->shard_size_gb, price, reward);
    std::cout << "paper ranking picks " << paper_plan->shard_size_gb
              << " GB (profit " << CsvTable::Num(advised.profit_cu)
              << "): per-GB efficiency ignores parallel completion, so it "
                 "refuses to split when big shards are per-GB cheapest\n";
  }
  if (smart_plan.ok()) {
    const ShardOutcome advised = EvaluateShardSize(
        model, job_gb, smart_plan->shard_size_gb, price, reward);
    std::cout << "profit-aware ranking picks " << smart_plan->shard_size_gb
              << " GB (profit " << CsvTable::Num(advised.profit_cu)
              << "), capturing "
              << CsvTable::Num(100.0 * advised.profit_cu / best_profit)
              << "% of the optimal-fixed profit\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
