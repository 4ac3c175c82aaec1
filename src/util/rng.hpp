// Deterministic pseudo-random number generation.
//
// Monte-Carlo experiments must be reproducible bit-for-bit across runs and
// platforms, so the library carries its own xoshiro256** implementation and
// its own (Box–Muller) normal sampler instead of relying on
// implementation-defined std::normal_distribution behaviour.
#pragma once

#include <cstdint>
#include <vector>

namespace ecms {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm),
/// re-implemented here. Passes BigCrush; 2^256-1 period.
class Rng {
 public:
  /// Seeds the state from a single 64-bit value via splitmix64, so any seed
  /// (including 0) yields a well-mixed state.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Inline: per-cell sampling loops keep the generator state in registers.

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): a 53-bit mantissa from the top bits.
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate (Box–Muller, cached pair).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double sigma);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Creates an independent child generator (jump-free stream split via
  /// reseeding from this stream; adequate for our MC workloads). Advances
  /// this generator.
  Rng split();

  /// Derives an independent child stream from the current state and a
  /// stream index (splitmix-style remix), WITHOUT advancing this generator.
  /// fork(i) is a pure function of (state, i): the same parent state always
  /// yields the same child, and distinct indices yield decorrelated
  /// streams. This is what makes parallel per-tile / per-trial sampling
  /// bit-identical to the serial order regardless of thread count.
  Rng fork(std::uint64_t stream) const;

  /// Fisher–Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace ecms
