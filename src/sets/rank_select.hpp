// The paper's rank(SET1, SET2, i) operator (Section 3): "returns the element
// of set SET1 \ SET2 that has rank i". With SET1 the FREE set (bitset_rank_set) and
// SET2 the (< m)-element TRY set, the cost is O(|SET2| log n), exactly as
// charged in the work analysis.
//
// Algorithm: monotone fixed-point iteration. Let c(x) = |{y in SET2 ∩ SET1 :
// y <= x}|. We look for the smallest index idx with idx = i + c(select(idx));
// at that point x = select(idx) satisfies |{y in SET1\SET2 : y <= x}| = i and
// x itself is not excluded (a first fixed point on an excluded element is
// impossible: it would imply an earlier fixed point, contradiction — see the
// convergence argument in tests/test_rank_select.cpp, which cross-checks
// against a brute-force oracle). Each step can only grow idx by newly
// discovered exclusions, so there are at most |SET2|+1 iterations.
//
// Word-parallel engine: bitset_rank_set exposes its bitmap words, so once
// TRY is above word_parallel_threshold and the try_set carries its shadow
// bitmap, the c(x) and |SET1 \ SET2| queries run directly over the
// materialized SET1 ∩ SET2 word view — AND + popcount over the <= |SET2|
// occupied shadow words — instead of per-entry contains() probes. The
// charged operation counts are kept bit-identical to the probe path (the
// cost model is semantic); only the instruction count changes.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "sets/bitset_rank_set.hpp"
#include "sets/try_set.hpp"
#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo {

namespace detail {

/// |included ∩ excluded| restricted to jobs <= x, word-parallel, by one of
/// two strategies chosen from the observed density:
///
/// - Dense (average >= 2 entries per occupied bitmap word, the clustered
///   announcement pattern interval-splitting produces): iterate the
///   occupied shadow words — one AND + popcount per word replaces every
///   contains() probe that word would have cost.
/// - Sparse: a single pass over the sorted entries that merges same-word
///   bits into one mask as it goes — at most one included-word load per
///   distinct word and no lookahead, so it never does more work than the
///   per-entry probe path.
inline usize overlap_le_words(const bitset_rank_set& included,
                              const try_set& excluded, job_id x) {
  if (x == 0) return 0;
  const auto entries = excluded.entries();
  const auto shadow = excluded.shadow_words();
  const auto occupied = excluded.occupied_words();
  const usize num_words = included.num_words();
  const usize xw = (static_cast<usize>(x) - 1) / 64;
  const unsigned xbit = static_cast<unsigned>((x - 1) % 64);
  const std::uint64_t xmask =
      xbit == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (xbit + 1)) - 1);
  usize c = 0;

  if (occupied.size() * 2 <= entries.size()) {
    for (const std::uint32_t w : occupied) {
      if (w > xw || w >= num_words) continue;
      std::uint64_t mask = shadow[w];
      if (w == xw) mask &= xmask;  // trim shadow entries beyond x
      c += static_cast<usize>(std::popcount(included.word(w) & mask));
    }
    return c;
  }

  usize cur_w = ~usize{0};
  std::uint64_t cur_mask = 0;
  for (const auto& e : entries) {
    if (e.job > x) break;
    const usize w = (static_cast<usize>(e.job) - 1) / 64;
    const std::uint64_t bit = std::uint64_t{1} << ((e.job - 1) % 64);
    if (w == cur_w) {
      cur_mask |= bit;
      continue;
    }
    if (cur_w < num_words) {
      c += static_cast<usize>(std::popcount(included.word(cur_w) & cur_mask));
    }
    cur_w = w;
    cur_mask = bit;
  }
  if (cur_w < num_words) {
    c += static_cast<usize>(std::popcount(included.word(cur_w) & cur_mask));
  }
  return c;
}

/// |set1 \ set2| read off set1's bitmap words, charging nothing: for
/// assertions, which must not move the cost model's counts between Debug
/// and Release builds.
inline usize size_excluding_uncharged(const bitset_rank_set& set1,
                                      const try_set& set2) {
  usize overlap = 0;
  for (const auto& e : set2.entries()) {
    const usize bit = static_cast<usize>(e.job) - 1;
    if (e.job >= 1 && e.job <= set1.universe() &&
        ((set1.word(bit / 64) >> (bit % 64)) & 1u) != 0) {
      ++overlap;
    }
  }
  return set1.size() - overlap;
}

}  // namespace detail

/// Below this TRY size the per-entry probe loop beats the word-parallel
/// kernel (fewer cache lines touched, no run bookkeeping); above it, word
/// batching wins. Both paths charge identical op_counter units, so the
/// switch is purely a wall-clock decision.
inline constexpr usize word_parallel_threshold = 8;

/// |{y in excluded ∩ included : y <= x}|. O(|excluded|).
inline usize excluded_at_or_below(const bitset_rank_set& included,
                                  const try_set& excluded, job_id x,
                                  op_counter* oc) {
  if (excluded.size() > word_parallel_threshold && excluded.has_shadow()) {
    if (x == 0) return 0;
    // Charge exactly what the probe path would: one unit here plus one
    // contains() unit on `included` per excluded entry <= x.
    const usize probes = excluded.count_le(x);
    if (oc != nullptr) oc->local_ops += probes;
    included.charge_units(probes);
    return detail::overlap_le_words(included, excluded, x);
  }
  usize c = 0;
  for (const auto& e : excluded.entries()) {
    if (e.job > x) break;
    if (oc != nullptr) ++oc->local_ops;
    if (included.contains(e.job)) ++c;
  }
  return c;
}

/// Number of elements in set1 \ set2.
inline usize size_excluding(const bitset_rank_set& set1, const try_set& set2,
                            op_counter* oc = nullptr) {
  if (set2.size() > word_parallel_threshold && set2.has_shadow()) {
    const usize probes = set2.size();
    if (oc != nullptr) oc->local_ops += probes;
    set1.charge_units(probes);
    return set1.size() - detail::overlap_le_words(set1, set2, set1.universe());
  }
  usize overlap = 0;
  for (const auto& e : set2.entries()) {
    if (oc != nullptr) ++oc->local_ops;
    if (set1.contains(e.job)) ++overlap;
  }
  return set1.size() - overlap;
}

/// The element of set1 \ set2 with 1-based rank i.
/// Precondition: 1 <= i <= |set1 \ set2|.
inline job_id rank_excluding(const bitset_rank_set& set1, const try_set& set2,
                             usize i, op_counter* oc = nullptr) {
  assert(i >= 1);
  assert(i <= detail::size_excluding_uncharged(set1, set2));
  usize idx = i;
  while (true) {
    const job_id x = set1.select(idx);
    const usize next = i + excluded_at_or_below(set1, set2, x, oc);
    if (next == idx) {
      assert(!set2.peek(x));
      return x;
    }
    idx = next;
  }
}

}  // namespace amo
