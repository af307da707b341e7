#pragma once

// Bit-level run digests for the deterministic-simulation harness.
//
// The repo's correctness contract is FoundationDB-style: a seeded run must
// be bit-for-bit reproducible, so "two runs agree" can be checked by
// hashing everything observable — the event trace the simulator executes
// and every field of the resulting RunMetrics — and comparing one 64-bit
// value. FNV-1a is used (as elsewhere in scan::common) because its output
// sequence is documented and stable across platforms.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/common/units.hpp"
#include "scan/core/scheduler.hpp"

namespace scan::testkit {

/// Streaming FNV-1a accumulator over typed values. Doubles are mixed by
/// bit pattern, so any behavioural drift — even in the last ulp — changes
/// the digest.
class Fnv1aDigest {
 public:
  void MixU64(std::uint64_t v);
  void MixDouble(double v);
  void MixSize(std::size_t v) { MixU64(static_cast<std::uint64_t>(v)); }
  void MixString(std::string_view s);

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnv1aOffset;
};

/// Streaming digest of a simulation's executed event trace: the (time,
/// sequence) pair of every event, in execution order. Bind it to
/// core::SchedulerOptions::trace_hook (or sim::Simulator::SetTraceHook)
/// before the run; the digest must outlive the run.
class TraceDigest {
 public:
  void Observe(SimTime when, std::uint64_t seq) {
    digest_.MixDouble(when.value());
    digest_.MixU64(seq);
    ++events_;
  }

  /// Installs this digest as the options' trace hook (replacing any
  /// previous hook).
  void Attach(core::SchedulerOptions& options) {
    options.trace_hook = [this](SimTime when, std::uint64_t seq) {
      Observe(when, seq);
    };
  }

  [[nodiscard]] std::uint64_t value() const { return digest_.value(); }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  Fnv1aDigest digest_;
  std::uint64_t events_ = 0;
};

/// A named scalar slice of a RunMetrics, kept human-readable so two
/// fingerprints can be diffed field by field when a golden check fails.
struct FingerprintField {
  std::string name;
  double value = 0.0;
};

/// Complete, order-stable summary of a RunMetrics: every counter, every
/// statistic moment, the per-stage queue waits, the cost report, and the
/// sampled timeline, folded into named fields plus one combined digest.
struct MetricsFingerprint {
  std::vector<FingerprintField> fields;
  std::uint64_t digest = 0;

  [[nodiscard]] static MetricsFingerprint Of(const core::RunMetrics& metrics);

  /// One line per field plus the digest — the readable golden payload.
  [[nodiscard]] std::string ToString() const;

  /// Field-by-field differences ("name: a != b"); empty when identical.
  [[nodiscard]] std::vector<std::string> DiffAgainst(
      const MetricsFingerprint& other) const;

  friend bool operator==(const MetricsFingerprint& a,
                         const MetricsFingerprint& b) {
    return a.digest == b.digest;
  }
};

}  // namespace scan::testkit
