#pragma once

// Shared plumbing of the layer-attributed benchmark: run options, the
// metric tables that define the result line, wall timers, quantiles, and
// the in-memory span log a traced run writes out when it ends.
//
// Every layer is measured from outside the program: the benchmark times
// the calls it makes into a layer (or into a pass-through wrapper around a
// public seam) and reads the layer's public reports. Nothing here reaches
// into private state.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed the pinned digests were recorded at. Any other seed still runs
/// every invariant and conservation check; only the pins are skipped.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// Wall seconds the timed loop runs for (at least one episode runs).
  double seconds = 10.0;
  /// false: end-to-end metrics, benchmark spans off. true: per-layer
  /// metrics from spans and public reports, plus one obs-on pass.
  bool trace = false;
  /// Self-test size: every episode shrinks so each workload takes well
  /// under a second. Pins are skipped.
  bool tiny = false;
  /// Directory the traced run writes its span log into ("" = none).
  std::string out_dir;

  /// Pinned digests apply only to the default seed at full size.
  [[nodiscard]] bool pinned() const { return seed == kDefaultSeed && !tiny; }
};

/// One metric of the result line: name and unit are fixed by the tables
/// below (which must match BENCHMARK.json; the self-test checks it).
struct MetricDef {
  const char* name;
  const char* unit;
};

[[nodiscard]] const std::vector<MetricDef>& EndToEndMetrics();
[[nodiscard]] const std::vector<MetricDef>& PerLayerMetrics();

/// What one workload run produced. A workload sets every end-to-end metric
/// and whichever per-layer metrics its layers have; per-layer metrics of
/// layers a workload never calls read 0.
class Outcome {
 public:
  /// Sets a metric by table name; throws std::logic_error for a name in
  /// neither table (a benchmark bug, never an input condition).
  void Set(std::string_view name, double value);

  /// Records a failed correctness check covering `ops` operations.
  void Fail(const std::string& why, std::uint64_t ops);

  /// A human-readable line printed before the result line.
  void Note(std::string line) { notes_.push_back(std::move(line)); }

  void AddAttempted(std::uint64_t ops) { attempted_ += ops; }

  [[nodiscard]] bool correct() const { return failures_.empty(); }

  /// Prints the notes, the failures (stderr) and, last, the one-line JSON
  /// result: end-to-end metrics when `trace` is false, per-layer when true.
  /// Returns false when an end-to-end metric is missing or not finite.
  bool Print(bool trace) const;

 private:
  std::map<std::string, double, std::less<>> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Exact quantile (linear interpolation) of a sample; 0 when empty.
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// "0x%016x" rendering of a digest (notes and check messages).
[[nodiscard]] std::string Hex(std::uint64_t v);

/// Peak resident set size of this process, MB.
[[nodiscard]] double PeakRssMb();

/// In-memory span log of the traced run: one span per timed call at a
/// layer boundary. `request` groups the spans of one job / episode / cell;
/// `parent` is the span that caused it (0 = root). Spans past the cap are
/// counted but not stored, so a long run stays bounded.
class SpanLog {
 public:
  static constexpr std::size_t kMaxStored = std::size_t{1} << 17;

  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    double start_us = 0.0;  ///< since the log was created
    double dur_us = 0.0;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Reserves an id for a span recorded once it ends (a parent whose
  /// children finish first).
  std::uint64_t NextId() { return next_id_++; }

  /// Records a finished span under a reserved id.
  void Record(std::uint64_t id, const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t parent,
              std::uint64_t request);

  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Writes the stored spans as JSON lines; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t total_ = 0;
};

/// Times one call and records it as a span when `spans` is non-null.
/// Returns the call's wall seconds either way.
template <typename Fn>
double TimedCall(SpanLog* spans, const char* name, std::uint64_t parent,
                 std::uint64_t request, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  if (spans != nullptr) {
    spans->Record(spans->NextId(), name, start, end, parent, request);
  }
  return std::chrono::duration<double>(end - start).count();
}

/// The obs-on pass: enables the program's own trace recorder and decision
/// audit for one episode, then reads back event counts by kind and the
/// number of priced hire-vs-wait evaluations.
class ObsPass {
 public:
  ObsPass();   ///< clears and enables trace + audit
  ~ObsPass();  ///< disables and clears both

  ObsPass(const ObsPass&) = delete;
  ObsPass& operator=(const ObsPass&) = delete;

  /// Call once the episode's threads have quiesced.
  void Harvest();

  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t hire_evals() const { return hire_evals_; }
  /// "kind=count ..." over the recorder's retained window.
  [[nodiscard]] const std::string& by_kind() const { return by_kind_; }

 private:
  std::uint64_t events_ = 0;
  std::uint64_t hire_evals_ = 0;
  std::string by_kind_;
};

/// Host calibration every run records: nproc and the runtime's calibrated
/// spin rate (iterations per second). Set as per-layer metrics and noted.
void RecordHost(Outcome& out);

/// Writes the traced run's span log under opts.out_dir (no-op when empty).
void WriteSpans(const RunOptions& opts, const SpanLog& spans, Outcome& out);

}  // namespace perfbench
