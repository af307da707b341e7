#pragma once

// Deterministic fault injector. Owns the "worker-failures" RNG stream and
// draws, per assignment, a crash instant (legacy worker_failure_rate), a
// straggle decision, and a flap instant — in that fixed order, with each
// draw gated on its rate, so a config with only crashes enabled consumes
// the byte-identical RNG sequence the pre-fault scheduler consumed.

#include <cstdint>
#include <optional>

#include "scan/common/rng.hpp"
#include "scan/common/units.hpp"
#include "scan/fault/fault_config.hpp"

namespace scan::fault {

/// The injected fate of one assignment. At most one of crash_at / flap_at
/// is set (whichever hazard fires first); both lie strictly inside
/// [start, actual_end). `actual_end` is the straggle-extended completion
/// instant (== planned end when the assignment does not straggle).
struct FaultDecision {
  std::optional<SimTime> crash_at;
  std::optional<SimTime> flap_at;
  double straggle_factor = 1.0;
  SimTime actual_end{0.0};

  [[nodiscard]] bool straggles() const { return straggle_factor > 1.0; }
};

class FaultInjector {
 public:
  /// `seed` is the scheduler's root seed; the injector derives the same
  /// "worker-failures" substream the legacy scheduler used. `crash_rate`
  /// is SimulationConfig::worker_failure_rate. Both hosts build one before
  /// a run starts, so a bad rate fails there: throws std::invalid_argument,
  /// naming the field, unless the crash and flap rates are finite and
  /// >= 0, the straggle rate lies in [0, 1] and the straggle factor is
  /// finite.
  FaultInjector(std::uint64_t seed, double crash_rate,
                const FaultConfig& config);

  /// Draws the fate of an assignment spanning [start, planned_end).
  [[nodiscard]] FaultDecision Draw(SimTime start, SimTime planned_end);

 private:
  RandomStream rng_;
  double crash_rate_;
  FaultConfig config_;
};

}  // namespace scan::fault
