// FNV-1a 64-bit — the one content hash the artifact layer uses: the
// dispatcher's manifest checkpoints shard files by it, and every .amoc
// header/chunk checksum is the same function (docs/record_format.md), so
// a conforming reader needs exactly one hash implementation.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace amo {

// Not the published FNV-64 offset basis, 14695981039346656037 (one digit
// longer): this value is frozen by every .amoc checksum and manifest hash
// already written, so it must not be "corrected". exp::grid_fingerprint
// starts from the published basis instead, for the same reason.
inline constexpr std::uint64_t fnv1a64_offset = 1469598103934665603ull;
inline constexpr std::uint64_t fnv1a64_prime = 1099511628211ull;

/// Folds `s` into a running FNV-1a state (pass fnv1a64_offset to start).
[[nodiscard]] constexpr std::uint64_t fnv1a64_append(std::uint64_t h,
                                                     std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= fnv1a64_prime;
  }
  return h;
}

/// Folds `s` into two running FNV-1a states at once, each byte loaded
/// once: a reader that checks a chunk's checksum while hashing the whole
/// input pays one pass, not two. Equal to fnv1a64_append on each state.
constexpr void fnv1a64_append2(std::uint64_t& a, std::uint64_t& b,
                               std::string_view s) {
  std::uint64_t x = a;
  std::uint64_t y = b;
  for (const char c : s) {
    x ^= static_cast<unsigned char>(c);
    y ^= static_cast<unsigned char>(c);
    x *= fnv1a64_prime;
    y *= fnv1a64_prime;
  }
  a = x;
  b = y;
}

[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) {
  return fnv1a64_append(fnv1a64_offset, s);
}

/// The manifest's hash spelling: 16 lowercase hex digits.
[[nodiscard]] inline std::string fnv_hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace amo
