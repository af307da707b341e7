#include "scan/gatk/pipeline_model.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "scan/common/rng.hpp"
#include "scan/common/str.hpp"

namespace scan::gatk {

PipelineModel::PipelineModel(std::vector<StageCoefficients> stages)
    : PipelineModel(std::move(stages), StageDeps{}) {}

PipelineModel::PipelineModel(std::vector<StageCoefficients> stages,
                             StageDeps deps, std::vector<std::string> names,
                             std::optional<double> time_scale)
    : stages_(std::move(stages)),
      deps_(std::move(deps)),
      names_(std::move(names)),
      time_scale_(time_scale) {
  if (stages_.empty()) {
    throw std::invalid_argument("PipelineModel: no stages");
  }
  if (deps_.empty()) {
    // The implicit legacy topology: stage i after stage i-1.
    deps_.resize(stages_.size());
    for (std::size_t i = 1; i < stages_.size(); ++i) deps_[i] = {i - 1};
  }
  if (stages_.size() > kMaxStages) {
    throw std::invalid_argument("PipelineModel: too many stages");
  }
  for (const StageCoefficients& s : stages_) {
    if (s.c < 0.0 || s.c > 1.0) {
      throw std::invalid_argument(
          "PipelineModel: Amdahl fraction c outside [0, 1]");
    }
  }
  if (deps_.size() != stages_.size()) {
    throw std::invalid_argument("PipelineModel: deps size mismatch");
  }
  if (names_.empty()) {
    names_.reserve(stages_.size());
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      names_.push_back(StrFormat("stage%zu", i + 1));
    }
  } else if (names_.size() != stages_.size()) {
    throw std::invalid_argument("PipelineModel: names size mismatch");
  }
  if (time_scale_ && *time_scale_ <= 0.0) {
    throw std::invalid_argument("PipelineModel: time_scale must be > 0");
  }
  dependents_.assign(stages_.size(), {});
  linear_ = deps_[0].empty();
  for (std::size_t i = 0; i < deps_.size(); ++i) {
    std::vector<std::size_t>& preds = deps_[i];
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    for (const std::size_t p : preds) {
      if (p >= i) {
        throw std::invalid_argument(
            "PipelineModel: dependency not in topological order");
      }
      dependents_[p].push_back(i);
    }
    if (i > 0 && (preds.size() != 1 || preds[0] != i - 1)) linear_ = false;
  }
}

const std::vector<std::size_t>& PipelineModel::deps(std::size_t index) const {
  if (index >= deps_.size()) {
    throw std::out_of_range("PipelineModel::deps: index out of range");
  }
  return deps_[index];
}

const std::vector<std::size_t>& PipelineModel::dependents(
    std::size_t index) const {
  if (index >= dependents_.size()) {
    throw std::out_of_range("PipelineModel::dependents: index out of range");
  }
  return dependents_[index];
}

const std::string& PipelineModel::name(std::size_t index) const {
  if (index >= names_.size()) {
    throw std::out_of_range("PipelineModel::name: index out of range");
  }
  return names_[index];
}

std::uint64_t PipelineModel::Fingerprint() const {
  std::uint64_t hash = kFnv1aOffset;
  const auto mix = [&hash](std::uint64_t value) {
    hash = Fnv1aMixU64(hash, value);
  };
  mix(stages_.size());
  for (const StageCoefficients& s : stages_) {
    mix(std::bit_cast<std::uint64_t>(s.a));
    mix(std::bit_cast<std::uint64_t>(s.b));
    mix(std::bit_cast<std::uint64_t>(s.c));
  }
  for (const std::vector<std::size_t>& preds : deps_) {
    mix(preds.size());
    for (const std::size_t p : preds) mix(p);
  }
  mix(time_scale_.has_value() ? 1 : 0);
  mix(std::bit_cast<std::uint64_t>(time_scale_.value_or(0.0)));
  return hash;
}

PipelineModel PipelineModel::PaperGatk() {
  // Table II: per-pipeline-stage scalability factors.
  return PipelineModel({
      {0.35, 5.38, 0.89},   // stage 1
      {2.70, -0.53, 0.02},  // stage 2
      {1.74, 3.93, 0.69},   // stage 3
      {3.35, 0.53, 0.79},   // stage 4
      {1.03, 17.86, 0.91},  // stage 5
      {0.02, 0.39, 0.25},   // stage 6
      {0.01, 5.10, 0.02},   // stage 7
  });
}

PipelineModel PipelineModel::Scaled(double factor) const {
  if (factor <= 0.0) {
    throw std::invalid_argument("PipelineModel::Scaled: factor must be > 0");
  }
  std::vector<StageCoefficients> scaled = stages_;
  for (StageCoefficients& s : scaled) {
    s.a *= factor;
    s.b *= factor;
  }
  return PipelineModel(std::move(scaled), deps_, names_, time_scale_);
}

const StageCoefficients& PipelineModel::stage(std::size_t index) const {
  if (index >= stages_.size()) {
    throw std::out_of_range("PipelineModel::stage: index out of range");
  }
  return stages_[index];
}

SimTime PipelineModel::SingleThreadedTime(std::size_t index,
                                          DataSize d) const {
  const StageCoefficients& s = stage(index);
  return SimTime{std::max(0.0, s.a * d.value() + s.b)};
}

SimTime PipelineModel::ThreadedTime(std::size_t index, int threads,
                                    DataSize d) const {
  if (threads < 1) {
    throw std::invalid_argument("PipelineModel::ThreadedTime: threads < 1");
  }
  const StageCoefficients& s = stage(index);
  const double e = SingleThreadedTime(index, d).value();
  return SimTime{s.c * e / static_cast<double>(threads) + (1.0 - s.c) * e};
}

SimTime PipelineModel::PipelineTime(DataSize d,
                                    std::span<const int> threads) const {
  if (threads.size() != stages_.size()) {
    throw std::invalid_argument(
        "PipelineModel::PipelineTime: thread plan size mismatch");
  }
  SimTime total{0.0};
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    total += ThreadedTime(i, threads[i], d);
  }
  return total;
}

SimTime PipelineModel::MakespanTime(DataSize d,
                                    std::span<const int> threads) const {
  if (threads.size() != stages_.size()) {
    throw std::invalid_argument(
        "PipelineModel::MakespanTime: thread plan size mismatch");
  }
  // done[i] = earliest finish of stage i; topological input order makes a
  // single forward pass sufficient. For a linear chain this reduces to the
  // same left-fold accumulation as PipelineTime (bit-identical).
  std::vector<double> done(stages_.size(), 0.0);
  double makespan = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    double start = 0.0;
    for (const std::size_t p : deps_[i]) start = std::max(start, done[p]);
    done[i] = start + ThreadedTime(i, threads[i], d).value();
    makespan = std::max(makespan, done[i]);
  }
  return SimTime{makespan};
}

SimTime PipelineModel::SequentialPipelineTime(DataSize d) const {
  SimTime total{0.0};
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    total += SingleThreadedTime(i, d);
  }
  return total;
}

double PipelineModel::MaxSpeedup(std::size_t index) const {
  const StageCoefficients& s = stage(index);
  if (s.c >= 1.0) return std::numeric_limits<double>::infinity();
  return 1.0 / (1.0 - s.c);
}

double PipelineModel::Speedup(std::size_t index, int threads) const {
  const StageCoefficients& s = stage(index);
  return 1.0 / (s.c / static_cast<double>(threads) + (1.0 - s.c));
}

double PipelineModel::CoreTime(std::size_t index, int threads,
                               DataSize d) const {
  return static_cast<double>(threads) *
         ThreadedTime(index, threads, d).value();
}

int PipelineModel::RecommendThreads(std::size_t index, DataSize d,
                                    std::span<const int> candidates,
                                    double min_marginal_gain) const {
  if (candidates.empty()) {
    throw std::invalid_argument("RecommendThreads: no candidates");
  }
  std::vector<int> sorted(candidates.begin(), candidates.end());
  std::sort(sorted.begin(), sorted.end());
  int best = sorted.front();
  double best_time = ThreadedTime(index, best, d).value();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const double t = ThreadedTime(index, sorted[i], d).value();
    // Accept the bigger size only if it shaves at least the required
    // fraction off the current best wall time.
    if (best_time - t >= min_marginal_gain * best_time && best_time > 0.0) {
      best = sorted[i];
      best_time = t;
    }
  }
  return best;
}

}  // namespace scan::gatk
