#pragma once

// Time backends for the live runtime.
//
// Under the virtual clock the runtime needs none: the engine's calendar
// (sim::Simulator) is the clock, warped from event to event, and a stage
// task "runs" for its modeled T_i(t, d) without sleeping (workers execute
// a token spin so the concurrent machinery is genuinely exercised). This
// is the parity mode: with pinned seeds the runtime must reproduce the
// simulator's schedule bit for bit.
//
// Under the wall clock, WallClock maps simulation TU onto real seconds
// and stage tasks burn actual CPU for their modeled duration via a
// calibrated SpinKernel. Completion times are physical, so runs are NOT
// deterministic — this backend exists to measure the live system
// (throughput, dispatch latency) and to give ThreadSanitizer real
// interleavings to bite on.

#include <chrono>
#include <cstdint>

#include "scan/common/units.hpp"

namespace scan::runtime {

/// Calibrated CPU-burner: converts "seconds of work" into a spin count so
/// workers consume real CPU time without syscalls or sleeps in the hot
/// loop. Calibration is per-process; the kernel itself is a trivially
/// copyable value type so tasks can capture it by value.
class SpinKernel {
 public:
  /// Uncalibrated kernel with a conservative default rate; sufficient for
  /// BurnIterations-only (virtual clock) use.
  SpinKernel() = default;

  /// Measures the host's spin throughput (a few ms, once per process).
  [[nodiscard]] static SpinKernel Calibrate();

  /// Burns approximately `seconds` of CPU on the calling thread. The loop
  /// is capped by a wall deadline at 2x the target so a mis-calibration
  /// (frequency scaling, preemption) cannot hang a worker.
  void Burn(double seconds) const;

  /// Burns an explicit iteration count (token work, virtual clock).
  void BurnIterations(std::uint64_t iterations) const;

  [[nodiscard]] double iterations_per_second() const { return rate_; }

 private:
  explicit SpinKernel(double rate) : rate_(rate) {}
  double rate_ = 1e8;
};

enum class ClockMode { kVirtual, kWall };

[[nodiscard]] constexpr const char* ClockModeName(ClockMode mode) {
  return mode == ClockMode::kVirtual ? "virtual" : "wall";
}

/// Maps TU onto std::chrono::steady_clock seconds from construction.
class WallClock {
 public:
  explicit WallClock(double seconds_per_tu)
      : seconds_per_tu_(seconds_per_tu), start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] SimTime Now() const {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    return SimTime{elapsed.count() / seconds_per_tu_};
  }
  /// Real seconds one TU of modeled stage execution costs a worker.
  [[nodiscard]] double seconds_per_tu() const { return seconds_per_tu_; }

  /// The wall instant at which runtime time reaches `t`.
  [[nodiscard]] std::chrono::steady_clock::time_point DeadlineFor(
      SimTime t) const {
    return start_ + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(t.value() *
                                                      seconds_per_tu_));
  }

 private:
  double seconds_per_tu_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace scan::runtime
