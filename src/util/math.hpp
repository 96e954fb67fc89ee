// Small integer-math helpers used throughout libamo: ceiling division,
// integer logarithms, and the power-of-two rounding the iterated algorithm
// uses for super-job sizes (a substitution for the paper's level sizes;
// core/super_job.hpp says why).
#pragma once

#include <bit>
#include <cstdint>

#include "util/types.hpp"

namespace amo {

/// ceil(a / b) for non-negative integers; b must be positive.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// floor(log2(x)) for x >= 1. ilog2(1) == 0.
constexpr unsigned ilog2(std::uint64_t x) {
  return 63u - static_cast<unsigned>(std::countl_zero(x | 1));
}

/// ceil(log2(x)) for x >= 1. ceil_log2(1) == 0.
constexpr unsigned ceil_log2(std::uint64_t x) {
  return x <= 1 ? 0u : ilog2(x - 1) + 1u;
}

/// The paper's "log" factors are base-2 logarithms clamped to >= 1 so that
/// formulas like m * log n * log m stay positive at tiny parameters
/// (log m would vanish at m = 1; the asymptotic statements assume m >= 2).
constexpr std::uint64_t clamped_log2(std::uint64_t x) {
  const unsigned lg = ceil_log2(x);
  return lg == 0 ? 1u : lg;
}

/// Largest power of two <= x (x >= 1). floor_pow2(1) == 1.
constexpr std::uint64_t floor_pow2(std::uint64_t x) {
  return std::uint64_t{1} << ilog2(x);
}

/// Smallest power of two >= x (x >= 1).
constexpr std::uint64_t ceil_pow2(std::uint64_t x) {
  return std::uint64_t{1} << ceil_log2(x);
}

/// x^e with integer exponent (no overflow checking; callers keep results
/// well inside 64 bits).
constexpr std::uint64_t ipow(std::uint64_t x, unsigned e) {
  std::uint64_t r = 1;
  while (e-- > 0) r *= x;
  return r;
}

}  // namespace amo
