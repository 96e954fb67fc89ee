// Deterministic pseudo-random number generation for adversaries, workload
// generators and property tests.
//
// All randomness in libamo flows through these generators so that every
// simulated execution is reproducible from a single 64-bit seed. We use
// splitmix64 for seeding and xoshiro256** as the workhorse generator
// (Blackman & Vigna); both are tiny, fast and well studied.
//
// The generator bodies are header-inline: adversary decide() loops draw once
// per scheduled action, and a cross-TU call per draw was measurable on the
// engine hot path; sim::scheduler keeps a concrete adversary's generator in
// registers only because these bodies inline into its loop.
#pragma once

#include <array>
#include <cstdint>

#include "util/types.hpp"

namespace amo {

/// splitmix64: used to expand a user seed into generator state. Also handy
/// as a cheap stateless hash.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies the essentials of
/// std::uniform_random_bit_generator so it can drive <random> if needed.
class xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bull) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
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

  /// Uniform integer in [0, bound) by rejection sampling: discard the biased
  /// low tail so the modulo is exactly uniform. The rejection region is
  /// < bound/2^64 of the space, so the expected number of draws is ~1.
  std::uint64_t below(std::uint64_t bound) {
    if (bound <= 1) return 0;
    const std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
      const std::uint64_t x = (*this)();
      if (x >= threshold) return x % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Bernoulli trial with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) {
    return below(den) < num;
  }

  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

/// Fisher-Yates shuffle driven by xoshiro256.
template <class Vec>
void shuffle(Vec& v, xoshiro256& rng) {
  for (usize i = v.size(); i > 1; --i) {
    const usize j = static_cast<usize>(rng.below(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace amo
