// Deterministic, fast PRNG (xoshiro256**) plus the distributions the project
// needs. We avoid <random> engines for reproducibility across libstdc++
// versions: all published numbers must be re-derivable bit-for-bit.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace spikestream::common {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t z = seed;
    for (auto& s : state_) {
      z += 0x9E3779B97F4A7C15ull;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      s = x ^ (x >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_u64(std::uint64_t n) { return next_u64() % n; }

  /// Standard normal via Box-Muller (no cached second value: determinism
  /// beats the factor-2 saving here).
  double normal() {
    double u1 = uniform();
    double u2 = uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Bernoulli trial.
  bool bernoulli(double p) { return uniform() < p; }

  /// The state transition of `n` draws. xoshiro256** is linear over GF(2)
  /// in its 256 state bits (Blackman & Vigna, ACM TOMS 2021), so n draws are
  /// one 256x256 bit matrix, the n-th power of the one-draw transition,
  /// built by square-and-multiply. Build it once per distance; applying it
  /// costs about as much as 256 draws.
  class Jump {
   public:
    explicit Jump(std::uint64_t n);
    /// Leaves `rng` exactly where `n` next_u64() calls would.
    void apply(Rng& rng) const;

   private:
    std::array<std::array<std::uint64_t, 4>, 256> col_;  ///< image of bit j
  };

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_;
};

}  // namespace spikestream::common
