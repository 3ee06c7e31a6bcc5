#include "support/rng.hpp"

namespace arl::support {

namespace {

/// SplitMix64 step, used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
  // xoshiro must not start in the all-zero state; splitmix64 of any seed
  // cannot produce four zero words, but keep the guard explicit.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::below(std::uint64_t bound) {
  ARL_EXPECTS(bound > 0, "below(0) is undefined");
  // Debiased modulo (rejection sampling on the tail).
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t value = next();
    if (value >= threshold) {
      return value % bound;
    }
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  ARL_EXPECTS(lo <= hi, "range(lo, hi) requires lo <= hi");
  const std::uint64_t width = static_cast<std::uint64_t>(hi - lo) + 1;
  if (width == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  return lo + static_cast<std::int64_t>(below(width));
}

Rng Rng::split(std::uint64_t stream_id) const {
  // Mix the current state with the stream id through SplitMix64 to derive a
  // decorrelated child seed.  The parent is not advanced.
  std::uint64_t sm = state_[0] ^ rotl(state_[2], 13) ^ (stream_id * 0x9e3779b97f4a7c15ULL);
  const std::uint64_t child_seed = splitmix64(sm) ^ splitmix64(sm);
  return Rng(child_seed);
}

}  // namespace arl::support
