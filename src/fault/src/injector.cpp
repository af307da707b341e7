#include "scan/fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "scan/common/str.hpp"

namespace scan::fault {

namespace {

void Reject(const char* field, double value, const char* rule) {
  throw std::invalid_argument(StrFormat(
      "FaultInjector: %s is %g; it must be %s", field, value, rule));
}

}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed, double crash_rate,
                             const FaultConfig& config)
    : rng_(seed, "worker-failures"), crash_rate_(crash_rate), config_(config) {
  // Checked here, not per draw: a NaN or negative rate would silently run
  // as a reliable cloud, and an infinite one would fail mid-run inside
  // RandomStream::Exponential.
  if (!(std::isfinite(crash_rate) && crash_rate >= 0.0)) {
    Reject("worker_failure_rate", crash_rate, "finite and >= 0");
  }
  if (!(std::isfinite(config.flap_rate) && config.flap_rate >= 0.0)) {
    Reject("fault.flap_rate", config.flap_rate, "finite and >= 0");
  }
  if (!(config.straggle_rate >= 0.0 && config.straggle_rate <= 1.0)) {
    Reject("fault.straggle_rate", config.straggle_rate, "in [0, 1]");
  }
  if (!std::isfinite(config.straggle_factor)) {
    Reject("fault.straggle_factor", config.straggle_factor, "finite");
  }
}

FaultDecision FaultInjector::Draw(SimTime start, SimTime planned_end) {
  FaultDecision decision;
  decision.actual_end = planned_end;

  // Crash draw first: with straggle/flap disabled this is the single
  // exponential the legacy scheduler drew, keeping old seeds bit-exact.
  std::optional<SimTime> crash;
  if (crash_rate_ > 0.0) {
    crash = start + SimTime{rng_.Exponential(1.0 / crash_rate_)};
  }

  if (config_.straggle_rate > 0.0 && rng_.Uniform() < config_.straggle_rate) {
    decision.straggle_factor = std::max(config_.straggle_factor, 1.0);
    decision.actual_end =
        start + SimTime{(planned_end - start).value() * decision.straggle_factor};
  }

  // A crash only lands if it precedes the (possibly straggle-extended)
  // completion — a straggler stays exposed to the hazard for longer.
  if (crash.has_value() && *crash < decision.actual_end) {
    decision.crash_at = crash;
  }

  if (config_.flap_rate > 0.0) {
    const SimTime flap =
        start + SimTime{rng_.Exponential(1.0 / config_.flap_rate)};
    if (flap < decision.actual_end &&
        (!decision.crash_at.has_value() || flap < *decision.crash_at)) {
      // The flap interrupts the assignment before the crash would have
      // landed, so the crash never happens for this assignment.
      decision.flap_at = flap;
      decision.crash_at.reset();
    }
  }
  return decision;
}

}  // namespace scan::fault
