#include "scan/pdl/compiler.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <utility>

#include "scan/common/rng.hpp"
#include "scan/pdl/parser.hpp"

namespace scan::pdl {

namespace {

void MixOptional(std::uint64_t& h, const std::optional<double>& value) {
  h = Fnv1aMixU64(h, value.has_value() ? 1 : 0);
  if (value.has_value()) {
    h = Fnv1aMixU64(h, std::bit_cast<std::uint64_t>(*value));
  }
}

void MixOptional(std::uint64_t& h, const std::optional<int>& value) {
  h = Fnv1aMixU64(h, value.has_value() ? 1 : 0);
  if (value.has_value()) {
    h = Fnv1aMixU64(
        h, static_cast<std::uint64_t>(static_cast<std::int64_t>(*value)));
  }
}

}  // namespace

void CompiledPipeline::ApplyTo(core::SimulationConfig& config) const {
  if (reward.scheme.has_value()) config.reward_scheme = *reward.scheme;
  if (reward.r_max.has_value()) config.r_max = *reward.r_max;
  if (reward.r_penalty.has_value()) config.r_penalty = *reward.r_penalty;
  if (reward.r_scale.has_value()) config.r_scale = *reward.r_scale;

  if (faults.crash_rate.has_value()) {
    config.worker_failure_rate = *faults.crash_rate;
  }
  fault::FaultConfig& f = config.fault;
  if (faults.straggle_rate.has_value()) f.straggle_rate = *faults.straggle_rate;
  if (faults.straggle_factor.has_value()) {
    f.straggle_factor = *faults.straggle_factor;
  }
  if (faults.flap_rate.has_value()) f.flap_rate = *faults.flap_rate;
  if (faults.checkpoint_interval.has_value()) {
    f.checkpoint_interval = SimTime{*faults.checkpoint_interval};
  }
  if (faults.max_retries.has_value()) {
    f.max_retries_per_job = *faults.max_retries;
  }
  if (faults.backoff_base.has_value()) {
    f.backoff_base = SimTime{*faults.backoff_base};
  }
  if (faults.backoff_multiplier.has_value()) {
    f.backoff_multiplier = *faults.backoff_multiplier;
  }
  if (faults.backoff_cap.has_value()) {
    f.backoff_cap = SimTime{*faults.backoff_cap};
  }
  if (faults.breaker_threshold.has_value()) {
    f.breaker_threshold = *faults.breaker_threshold;
  }
  if (faults.breaker_cooldown.has_value()) {
    f.breaker_cooldown = SimTime{*faults.breaker_cooldown};
  }
  if (faults.speculation_slowdown.has_value()) {
    f.speculation_slowdown = *faults.speculation_slowdown;
  }
}

std::uint64_t CompiledPipeline::Fingerprint() const {
  std::uint64_t h = kFnv1aOffset;
  h = Fnv1aMixU64(h, model.Fingerprint());
  h = Fnv1aMixU64(h,
                  static_cast<std::uint64_t>(static_cast<int>(shard.policy)));
  h = Fnv1aMixU64(h, static_cast<std::uint64_t>(shard.fanout));
  h = Fnv1aMixU64(h, reward.scheme.has_value()
                         ? 1 + static_cast<std::uint64_t>(
                                   static_cast<int>(*reward.scheme))
                         : 0);
  MixOptional(h, reward.r_max);
  MixOptional(h, reward.r_penalty);
  MixOptional(h, reward.r_scale);
  MixOptional(h, faults.crash_rate);
  MixOptional(h, faults.straggle_rate);
  MixOptional(h, faults.straggle_factor);
  MixOptional(h, faults.flap_rate);
  MixOptional(h, faults.checkpoint_interval);
  MixOptional(h, faults.max_retries);
  MixOptional(h, faults.backoff_base);
  MixOptional(h, faults.backoff_multiplier);
  MixOptional(h, faults.backoff_cap);
  MixOptional(h, faults.breaker_threshold);
  MixOptional(h, faults.breaker_cooldown);
  MixOptional(h, faults.speculation_slowdown);
  return h;
}

CompileResult CompileString(std::string_view source, std::string file) {
  CompileResult result;
  ParseResult parsed = ParsePdl(source, file);
  if (!parsed.ok()) {
    result.diagnostics = std::move(parsed.diagnostics);
    return result;
  }
  const PipelineDecl& ast = *parsed.pipeline;
  Analysis analysis = Analyze(ast, file);
  if (!analysis.ok()) {
    result.diagnostics = std::move(analysis.diagnostics);
    return result;
  }

  // Lower: emit stages in topological order, remapping declaration-index
  // dependencies to emission positions so every dep p < i as the model
  // requires. `order` is the identity for an already topological
  // declaration order, so gatk.pdl lowers to Table II's exact layout.
  const std::size_t n = analysis.order.size();
  std::vector<std::size_t> position(n, 0);
  for (std::size_t i = 0; i < n; ++i) position[analysis.order[i]] = i;

  std::vector<gatk::StageCoefficients> stages;
  gatk::StageDeps deps;
  std::vector<std::string> names;
  stages.reserve(n);
  deps.reserve(n);
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t decl = analysis.order[i];
    stages.push_back(analysis.coeffs[decl]);
    std::vector<std::size_t> mapped;
    mapped.reserve(analysis.deps[decl].size());
    for (const std::size_t dep : analysis.deps[decl]) {
      mapped.push_back(position[dep]);
    }
    deps.push_back(std::move(mapped));
    names.push_back(ast.stages[decl].name);
  }

  result.pipeline.emplace(CompiledPipeline{
      ast.name,
      gatk::PipelineModel(std::move(stages), std::move(deps),
                          std::move(names), analysis.time_scale),
      analysis.shard, analysis.reward, analysis.faults});
  return result;
}

CompileResult CompileFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    CompileResult result;
    result.diagnostics.push_back(
        Diagnostic{path, SourcePos{}, "cannot open file"});
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return CompileString(buffer.str(), path);
}

}  // namespace scan::pdl
