#pragma once

/// \file rng.hpp
/// Deterministic pseudo-random number generation for experiments.
///
/// All randomness in the repository flows through this type so that every
/// test, example and benchmark is reproducible from a single seed.  The
/// generator is xoshiro256** seeded via SplitMix64; `split()` derives
/// statistically independent child streams, which is how parallel sweeps stay
/// deterministic regardless of thread scheduling.

#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace arl::support {

/// Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  /// Seeds the stream; two Rng with the same seed produce identical output.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.  Defined here, like real() and bernoulli(), so
  /// the tight draw loops of graph generation and the fault dice inline it.
  std::uint64_t next() {
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

  /// Uniform value in [0, bound). Requires bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform value in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return real() < p;
  }

  /// Derives an independent child stream; children with distinct ids are
  /// independent of each other and of the parent's future output.
  Rng split(std::uint64_t stream_id) const;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Uniformly random element. Requires non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    ARL_EXPECTS(!items.empty(), "pick from empty vector");
    return items[static_cast<std::size_t>(below(items.size()))];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace arl::support
