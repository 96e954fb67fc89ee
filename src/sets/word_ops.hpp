// Word-parallel bit kernels for the FREE set (bitset_rank_set): in-word
// select via PDEP (BMI2) with a portable broadword fallback, and the
// Fenwick-hops table its updates are charged from.
//
// select_in_word(x, k) returns the 0-based position of the k-th (1-based,
// counting from the LSB) set bit of x. On BMI2 hardware the whole query is
// two instructions: PDEP deposits a single bit at the k-th set position of
// the mask, and TZCNT reads its index — branch-free and data-independent.
// The fallback is the classic broadword select (Vigna, "Broadword
// implementation of rank/select queries", WEA 2008): SWAR byte popcounts,
// a parallel >= comparison to find the byte, then a 2 KiB constexpr table
// for the in-byte select.
//
// Neither path charges the op_counter: callers account the paper's semantic
// cost (the clear-lowest-bit walk this replaces) arithmetically, so charged
// work is identical to the reference implementation while wall-clock is not.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

#if defined(__BMI2__)
#include <immintrin.h>
#define AMO_HAS_PDEP 1
#endif

namespace amo::bits {

namespace detail {

constexpr std::array<std::uint8_t, 2048> make_select_in_byte() {
  std::array<std::uint8_t, 2048> table{};
  for (unsigned byte = 0; byte < 256; ++byte) {
    for (unsigned r = 0; r < 8; ++r) {
      unsigned seen = 0;
      unsigned pos = 0;
      for (unsigned i = 0; i < 8; ++i) {
        if (((byte >> i) & 1u) != 0 && seen++ == r) {
          pos = i;
          break;
        }
      }
      table[byte | (r << 8)] = static_cast<std::uint8_t>(pos);
    }
  }
  return table;
}

/// select_in_byte[b | (r << 8)] = position of the r-th (0-based) set bit of b.
inline constexpr std::array<std::uint8_t, 2048> select_in_byte =
    make_select_in_byte();

}  // namespace detail

/// Portable broadword select: position of the k-th (1-based) set bit of x.
/// Requires 1 <= k <= popcount(x).
inline unsigned select_in_word_portable(std::uint64_t x, unsigned k) {
  assert(k >= 1 && k <= static_cast<unsigned>(std::popcount(x)));
  constexpr std::uint64_t ones_step4 = 0x1111111111111111ull;
  constexpr std::uint64_t ones_step8 = 0x0101010101010101ull;
  constexpr std::uint64_t msbs_step8 = 0x80ull * ones_step8;

  const unsigned r = k - 1;  // 0-based rank
  // SWAR popcount per byte.
  std::uint64_t byte_sums = x - ((x & (0xaull * ones_step4)) >> 1);
  byte_sums = (byte_sums & (3ull * ones_step4)) +
              ((byte_sums >> 2) & (3ull * ones_step4));
  byte_sums = (byte_sums + (byte_sums >> 4)) & (0x0full * ones_step8);
  byte_sums *= ones_step8;  // byte i now holds popcount of bytes 0..i
  // Parallel compare: an MSB flag per byte whose inclusive prefix is <= r;
  // the number of flags is the index of the byte holding the r-th bit.
  const std::uint64_t r_step8 = static_cast<std::uint64_t>(r) * ones_step8;
  const std::uint64_t geq = ((r_step8 | msbs_step8) - byte_sums) & msbs_step8;
  const unsigned place = static_cast<unsigned>(std::popcount(geq)) * 8;
  const unsigned byte_rank =
      r - static_cast<unsigned>(((byte_sums << 8) >> place) & 0xff);
  return place + detail::select_in_byte[((x >> place) & 0xff) | (byte_rank << 8)];
}

#ifdef AMO_HAS_PDEP
/// PDEP select: position of the k-th (1-based) set bit of x. Branch-free.
inline unsigned select_in_word_pdep(std::uint64_t x, unsigned k) {
  assert(k >= 1 && k <= static_cast<unsigned>(std::popcount(x)));
  return static_cast<unsigned>(
      std::countr_zero(_pdep_u64(std::uint64_t{1} << (k - 1), x)));
}
#endif

/// Test-only runtime switch: force the portable path even on BMI2 builds so
/// differential tests can exercise both implementations end to end.
inline bool g_force_portable_select = false;

inline void force_portable_select(bool on) { g_force_portable_select = on; }

/// Dispatching select: PDEP when compiled in (and not overridden), portable
/// broadword otherwise.
inline unsigned select_in_word(std::uint64_t x, unsigned k) {
#ifdef AMO_HAS_PDEP
  if (!g_force_portable_select) return select_in_word_pdep(x, k);
#endif
  return select_in_word_portable(x, k);
}

// ----- charge-model table ---------------------------------------------------

/// hops[w] = length of the Fenwick update chain from word w:
/// i = w+1, then i += lowbit(i) while i <= num_words. This is the cost
/// model, not a data structure: no Fenwick tree exists anywhere in libamo.
/// The table is the per-update charge of the paper's O(log n) FREE set,
/// tabled because the chain walk is a serial dependency too slow for the
/// update hot path. Built back-to-front so each entry is one step plus its
/// successor's count.
inline std::vector<std::uint8_t> build_fenwick_hops(usize num_words) {
  std::vector<std::uint8_t> hops(num_words, 0);
  for (usize w = num_words; w-- > 0;) {
    const usize next = (w + 1) + ((w + 1) & (~(w + 1) + 1));  // 1-based
    hops[w] =
        static_cast<std::uint8_t>(1 + (next <= num_words ? hops[next - 1] : 0));
  }
  return hops;
}

}  // namespace amo::bits
