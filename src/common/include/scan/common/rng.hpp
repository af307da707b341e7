#pragma once

// Deterministic random-number streams for SCAN's simulation experiments.
//
// Reproducibility contract: every stochastic component (arrival process, job
// sizes, profiling noise, ...) draws from its own named stream derived from a
// root seed. Repetition k of an experiment configuration derives its root
// seed from hash(config-label, k), so all 10 paper-style repetitions are
// independent yet bit-for-bit reproducible, regardless of evaluation order or
// thread placement.
//
// The generator is PCG32 (O'Neill) — small, fast, statistically strong, and
// with a documented stable output sequence, unlike std::mt19937's
// distribution results which may vary across standard libraries. All
// distribution transforms below are implemented in-house for the same
// stability reason.

#include <cstdint>
#include <string_view>
#include <vector>

namespace scan {

/// PCG32 (XSH-RR variant) pseudo-random generator.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  constexpr Pcg32() : Pcg32(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL) {}
  constexpr Pcg32(std::uint64_t seed, std::uint64_t stream)
      : state_(0), inc_((stream << 1u) | 1u) {
    Next();
    state_ += seed;
    Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  constexpr result_type operator()() { return Next(); }

  /// Uniform integer in [0, bound), bias-free (Lemire-style rejection).
  constexpr std::uint32_t UniformBelow(std::uint32_t bound) {
    if (bound <= 1) return 0;
    const std::uint32_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint32_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  constexpr double UniformDouble() {
    // 53 random bits -> [0,1) with full double precision.
    const std::uint64_t hi = Next();
    const std::uint64_t lo = Next();
    const std::uint64_t bits = (hi << 21) ^ (lo >> 11);
    return static_cast<double>(bits & ((1ULL << 53) - 1)) * 0x1.0p-53;
  }

 private:
  constexpr std::uint32_t Next() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  std::uint64_t state_;
  std::uint64_t inc_;
};

/// FNV-1a offset basis (the hash of no bytes) and prime.
inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// Stable 64-bit FNV-1a hash of a byte string (used for stream derivation
/// and config -> seed mapping).
[[nodiscard]] constexpr std::uint64_t Fnv1a64(std::string_view s) {
  std::uint64_t h = kFnv1aOffset;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Continues the FNV-1a hash `h` over `v`'s 8 bytes, little-endian (the
/// digests and fingerprints mix integers and double bit patterns this way).
[[nodiscard]] constexpr std::uint64_t Fnv1aMixU64(std::uint64_t h,
                                                  std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnv1aPrime;
  }
  return h;
}

/// Mix two 64-bit values (splitmix64 finalizer over the combination).
[[nodiscard]] constexpr std::uint64_t MixSeed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A named random stream with in-house, libc-independent distributions.
class RandomStream {
 public:
  /// Derives the stream from a root seed and a stable stream name.
  RandomStream(std::uint64_t root_seed, std::string_view name)
      : gen_(MixSeed(root_seed, Fnv1a64(name)), Fnv1a64(name) | 1u) {}

  explicit RandomStream(std::uint64_t seed) : gen_(seed, seed ^ 0x5bf0'3635ULL) {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double Uniform() { return gen_.UniformDouble(); }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double Uniform(double lo, double hi) {
    return lo + (hi - lo) * gen_.UniformDouble();
  }

  /// Uniform integer in [0, bound).
  [[nodiscard]] std::uint32_t UniformBelow(std::uint32_t bound) {
    return gen_.UniformBelow(bound);
  }

  /// Exponential with the given mean (inter-arrival intervals). Throws
  /// std::invalid_argument unless mean > 0.
  [[nodiscard]] double Exponential(double mean);

  /// Standard normal via Box-Muller (cached second deviate).
  [[nodiscard]] double Normal();

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double Normal(double mean, double stddev) {
    return mean + stddev * Normal();
  }

  /// Normal truncated below at `lo` (re-draws; used for strictly positive
  /// job sizes and batch counts with the paper's mean/variance settings).
  /// Throws std::invalid_argument unless stddev >= 0.
  [[nodiscard]] double TruncatedNormal(double mean, double stddev, double lo);

  /// Pick an index in [0, weights.size()) proportional to weights.
  [[nodiscard]] std::size_t WeightedIndex(const std::vector<double>& weights);

  /// Access to the raw generator (for std::shuffle and similar).
  [[nodiscard]] Pcg32& generator() { return gen_; }

 private:
  Pcg32 gen_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace scan
