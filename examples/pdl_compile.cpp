// pdl_compile: the PDL profile compiler as a command-line tool.
//
//   pdl_compile --file=profiles/gatk.pdl          # compile + print model
//   pdl_compile --check --dir=profiles            # CI: diagnostics fail
//   pdl_compile --file=... --json=out.json        # lowered table as JSON
//
// Compiles `.pdl` pipeline definitions and prints the lowered stage model
// — coefficients, Amdahl fractions, resolved DAG edges, shard policy,
// reward/fault overrides, and the profile fingerprint. Any diagnostic is
// fatal (exit 1): profiles are either exact or rejected.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scan/common/str.hpp"
#include "scan/pdl/compiler.hpp"
#include "scan/pdl/sema.hpp"

namespace {

using scan::StrFormat;

/// Compiles one file; prints diagnostics on failure.
bool Check(const std::string& path, bool quiet) {
  const scan::pdl::CompileResult result = scan::pdl::CompileFile(path);
  if (!result.ok()) {
    std::cerr << scan::pdl::FormatDiagnostics(result.diagnostics);
    return false;
  }
  if (!quiet) {
    const scan::pdl::CompiledPipeline& p = *result.pipeline;
    std::printf("%-40s %zu stages  %s  fingerprint 0x%016llx\n", path.c_str(),
                p.model.stage_count(), p.model.is_linear() ? "chain" : "dag",
                static_cast<unsigned long long>(p.Fingerprint()));
  }
  return true;
}

void PrintPipeline(const scan::pdl::CompiledPipeline& pipeline,
                   const scan::bench::TableOutput& output) {
  const scan::gatk::PipelineModel& model = pipeline.model;
  std::printf("pipeline \"%s\": %zu stages (%s), shard %s%s\n",
              pipeline.name.c_str(), model.stage_count(),
              model.is_linear() ? "linear chain" : "dag",
              scan::pdl::ShardPolicyName(pipeline.shard.policy),
              pipeline.shard.fanout > 0
                  ? StrFormat("(%d)", pipeline.shard.fanout).c_str()
                  : "");
  if (model.time_scale().has_value()) {
    std::printf("time_scale %g (profile override)\n", *model.time_scale());
  }
  if (pipeline.reward.scheme.has_value() ||
      pipeline.reward.r_max.has_value() ||
      pipeline.reward.r_penalty.has_value() ||
      pipeline.reward.r_scale.has_value()) {
    std::printf("reward overrides:");
    if (pipeline.reward.scheme.has_value()) {
      std::printf(" scheme=%s",
                  scan::workload::RewardSchemeName(*pipeline.reward.scheme));
    }
    if (pipeline.reward.r_max.has_value()) {
      std::printf(" r_max=%g", *pipeline.reward.r_max);
    }
    if (pipeline.reward.r_penalty.has_value()) {
      std::printf(" r_penalty=%g", *pipeline.reward.r_penalty);
    }
    if (pipeline.reward.r_scale.has_value()) {
      std::printf(" r_scale=%g", *pipeline.reward.r_scale);
    }
    std::printf("\n");
  }
  if (pipeline.faults.crash_rate.has_value()) {
    std::printf("fault prior: crash_rate=%g\n", *pipeline.faults.crash_rate);
  }
  std::printf("fingerprint 0x%016llx (model 0x%016llx)\n\n",
              static_cast<unsigned long long>(pipeline.Fingerprint()),
              static_cast<unsigned long long>(model.Fingerprint()));

  scan::CsvTable table({"stage", "name", "a", "b", "parallel", "max_speedup",
                        "after"});
  for (std::size_t i = 0; i < model.stage_count(); ++i) {
    std::string after;
    for (const std::size_t dep : model.deps(i)) {
      if (!after.empty()) after += " ";
      after += model.name(dep);
    }
    const double max_speedup = model.MaxSpeedup(i);
    table.AddRow({StrFormat("%zu", i), model.name(i),
                  scan::CsvTable::Num(model.stage(i).a),
                  scan::CsvTable::Num(model.stage(i).b),
                  scan::CsvTable::Num(model.stage(i).c),
                  max_speedup > 1e6 ? "inf" : scan::CsvTable::Num(max_speedup),
                  after.empty() ? "-" : after});
  }
  scan::bench::Emit(table, output);
}

}  // namespace

static int Main(int argc, char** argv) {
  const scan::bench::Flags flags(argc, argv);
  const std::string file = flags.GetString("file", "");
  const std::string dir = flags.GetString("dir", "");
  const bool check_only = flags.Has("check");
  const scan::bench::TableOutput output(flags);
  flags.RejectUnread();

  if (file.empty() && dir.empty()) {
    std::fprintf(stderr,
                 "usage: pdl_compile --file=PIPELINE.pdl [--json=PATH] "
                 "[--csv=PATH]\n"
                 "       pdl_compile [--check] --dir=PROFILE_DIR\n");
    return 2;
  }

  if (!dir.empty()) {
    std::vector<std::string> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".pdl") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) {
      std::fprintf(stderr, "no .pdl profiles under %s\n", dir.c_str());
      return 2;
    }
    bool ok = true;
    for (const std::string& path : paths) ok = Check(path, false) && ok;
    if (ok) std::printf("%zu profiles compiled clean\n", paths.size());
    return ok ? 0 : 1;
  }

  const scan::pdl::CompileResult result = scan::pdl::CompileFile(file);
  if (!result.ok()) {
    std::cerr << scan::pdl::FormatDiagnostics(result.diagnostics);
    return 1;
  }
  if (!check_only) PrintPipeline(*result.pipeline, output);
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
