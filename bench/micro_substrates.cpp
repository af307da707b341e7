// Microbenchmarks (google-benchmark) for SCAN's substrates: the
// discrete-event engine, the triple store and SPARQL engine, the genomic
// parsers/sharders, the regression fit, and an end-to-end scheduler run.
// These are throughput references, not paper exhibits.

#include <benchmark/benchmark.h>

#include "scan/core/scheduler.hpp"
#include "scan/gatk/profiler.hpp"
#include "scan/gatk/regression.hpp"
#include "scan/genomics/fastq.hpp"
#include "scan/genomics/sharder.hpp"
#include "scan/genomics/bam.hpp"
#include "scan/genomics/quality.hpp"
#include "scan/genomics/synthetic.hpp"
#include "scan/genomics/variant_caller.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/sim/simulator.hpp"

namespace {

using namespace scan;

void BM_SimulatorScheduleAndRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < events; ++i) {
      sim.ScheduleAt(SimTime{static_cast<double>((i * 7919) % events)},
                     [](sim::Simulator&) {});
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(sim.stats().events_executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_SimulatorScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_TripleStoreInsert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    kb::TripleStore store;
    for (std::size_t i = 0; i < n; ++i) {
      store.Add(kb::MakeIri("http://s/" + std::to_string(i % 100)),
                kb::MakeIri("http://p/" + std::to_string(i % 10)),
                kb::MakeIntLiteral(static_cast<long long>(i)));
    }
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_TripleStoreInsert)->Arg(1000)->Arg(10000);

void BM_AdviseShardSize(benchmark::State& state) {
  kb::KnowledgeBase knowledge;
  for (int i = 0; i < state.range(0); ++i) {
    kb::ApplicationProfile profile;
    profile.application = "GATK";
    profile.input_file_size_gb = 1.0 + (i % 9);
    profile.etime = 20.0 * profile.input_file_size_gb;
    knowledge.AddProfile(profile);
  }
  for (auto _ : state) {
    const auto advice = knowledge.AdviseShardSize("GATK", 0.5, 16.0);
    benchmark::DoNotOptimize(advice.ok());
  }
}
BENCHMARK(BM_AdviseShardSize)->Arg(10)->Arg(100)->Arg(1000);

void BM_FastqParse(benchmark::State& state) {
  genomics::SyntheticGenerator gen(1);
  const auto ref = gen.Reference("chr1", 1000);
  genomics::ReadSimSpec spec;
  spec.read_count = static_cast<std::size_t>(state.range(0));
  spec.read_length = 100;
  const std::string payload = genomics::WriteFastq(gen.Reads(ref, spec));
  for (auto _ : state) {
    auto parsed = genomics::ParseFastq(payload);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(payload.size()) *
                          state.iterations());
}
BENCHMARK(BM_FastqParse)->Arg(1000)->Arg(10000);

void BM_FastqShard(benchmark::State& state) {
  genomics::SyntheticGenerator gen(2);
  const auto ref = gen.Reference("chr1", 1000);
  genomics::ReadSimSpec spec;
  spec.read_count = static_cast<std::size_t>(state.range(0));
  spec.read_length = 100;
  const std::string payload = genomics::WriteFastq(gen.Reads(ref, spec));
  genomics::ShardSpec shard_spec;
  shard_spec.max_records = 256;
  for (auto _ : state) {
    auto shards = genomics::ShardFastq(payload, shard_spec);
    benchmark::DoNotOptimize(shards.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(payload.size()) *
                          state.iterations());
}
BENCHMARK(BM_FastqShard)->Arg(1000)->Arg(10000);

void BM_BamLiteRoundTrip(benchmark::State& state) {
  genomics::SyntheticGenerator gen(3);
  const auto genome = gen.Genome({{"chr1", 4000}});
  genomics::ReadSimSpec spec;
  spec.read_count = static_cast<std::size_t>(state.range(0));
  spec.read_length = 100;
  const genomics::SamFile file = gen.AlignedReads(genome, spec);
  for (auto _ : state) {
    auto bytes = genomics::WriteBamLite(file);
    auto parsed = genomics::ParseBamLite(*bytes);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_BamLiteRoundTrip)->Arg(1000)->Arg(10000);

void BM_ReadSetStats(benchmark::State& state) {
  genomics::SyntheticGenerator gen(4);
  const auto ref = gen.Reference("chr1", 2000);
  genomics::ReadSimSpec spec;
  spec.read_count = static_cast<std::size_t>(state.range(0));
  spec.read_length = 100;
  const auto reads = gen.Reads(ref, spec);
  for (auto _ : state) {
    auto stats = genomics::ComputeReadSetStats(reads);
    benchmark::DoNotOptimize(stats.total_bases);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.range(0)) * 100 *
                          state.iterations());
}
BENCHMARK(BM_ReadSetStats)->Arg(1000)->Arg(10000);

void BM_VariantCalling(benchmark::State& state) {
  genomics::SyntheticGenerator gen(5);
  const auto ref = gen.Reference("chr1", 5000);
  genomics::ReadSimSpec spec;
  spec.read_count = static_cast<std::size_t>(state.range(0));
  spec.read_length = 100;
  const genomics::SamFile aligned = gen.AlignedReads({ref}, spec);
  for (auto _ : state) {
    auto calls = genomics::CallVariants(ref, aligned);
    benchmark::DoNotOptimize(calls.ok());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_VariantCalling)->Arg(1000)->Arg(5000);

void BM_RegressionFit(benchmark::State& state) {
  const auto truth = gatk::PipelineModel::PaperGatk();
  const gatk::ProfileSpec spec;
  const auto observations = gatk::ProfilePipeline(truth, spec, 3);
  for (auto _ : state) {
    auto fits = gatk::FitAllStages(truth.stage_count(), observations);
    benchmark::DoNotOptimize(fits.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(observations.size()) * state.iterations());
}
BENCHMARK(BM_RegressionFit);

void BM_SchedulerRun(benchmark::State& state) {
  for (auto _ : state) {
    core::SimulationConfig config;
    config.duration = SimTime{static_cast<double>(state.range(0))};
    core::Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 7);
    auto metrics = scheduler.Run();
    benchmark::DoNotOptimize(metrics.jobs_completed);
  }
}
BENCHMARK(BM_SchedulerRun)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
