// Oracle suite for the FREE set (bitset_rank_set): every observable is
// checked against std::set under randomized operation streams, and every
// charge against the cost-model formula. test_bitset_rank_set and
// test_word_parallel run these streams.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "sets/bitset_rank_set.hpp"
#include "sets/word_ops.hpp"
#include "util/math.hpp"
#include "util/op_counter.hpp"
#include "util/prng.hpp"
#include "util/types.hpp"

namespace amo::testing {

/// Compares every observable of `s` against the reference set.
inline void expect_matches_reference(const bitset_rank_set& s,
                                     const std::set<job_id>& ref,
                                     job_id universe) {
  ASSERT_EQ(s.size(), ref.size());
  EXPECT_EQ(s.empty(), ref.empty());
  // Membership and rank_le over the whole universe, in one ascending walk
  // of the reference.
  usize below = 0;
  auto it = ref.begin();
  for (job_id x = 1; x <= universe; ++x) {
    const bool member = it != ref.end() && *it == x;
    if (member) {
      ++below;
      ++it;
    }
    EXPECT_EQ(s.contains(x), member) << "element " << x;
    EXPECT_EQ(s.rank_le(x), below) << "rank_le(" << x << ")";
  }
  // select is the inverse of ascending enumeration.
  usize k = 1;
  for (const job_id x : ref) {
    EXPECT_EQ(s.select(k), x) << "rank " << k;
    ++k;
  }
  // to_vector is the sorted member list.
  const std::vector<job_id> vec = s.to_vector();
  ASSERT_EQ(vec.size(), ref.size());
  k = 0;
  for (const job_id x : ref) {
    EXPECT_EQ(vec[k], x);
    ++k;
  }
}

/// Randomized insert/erase stream with periodic full-state comparison.
inline void run_randomized_stream(job_id universe, usize operations,
                                  std::uint64_t seed) {
  bitset_rank_set s(universe);
  std::set<job_id> ref;
  xoshiro256 rng(seed);
  for (usize op = 0; op < operations; ++op) {
    const job_id x = static_cast<job_id>(rng.between(1, universe));
    if (rng.chance(1, 2)) {
      EXPECT_EQ(s.insert(x), ref.insert(x).second);
    } else {
      EXPECT_EQ(s.erase(x), ref.erase(x) == 1);
    }
    if (op % (operations / 8 + 1) == 0) {
      expect_matches_reference(s, ref, universe);
    }
  }
  expect_matches_reference(s, ref, universe);
}

/// The shrink-only pattern KK_beta actually uses: start full, erase down,
/// with a full-state comparison every `check_every` erases.
inline void run_shrink_stream(job_id universe, std::uint64_t seed,
                              usize check_every = 37) {
  bitset_rank_set s = bitset_rank_set::full(universe);
  std::set<job_id> ref;
  for (job_id x = 1; x <= universe; ++x) ref.insert(x);
  expect_matches_reference(s, ref, universe);

  std::vector<job_id> order(universe);
  for (job_id x = 1; x <= universe; ++x) order[x - 1] = x;
  xoshiro256 rng(seed);
  shuffle(order, rng);
  usize steps = 0;
  for (const job_id x : order) {
    EXPECT_TRUE(s.erase(x));
    EXPECT_FALSE(s.erase(x));  // idempotent
    ref.erase(x);
    if (++steps % check_every == 0) expect_matches_reference(s, ref, universe);
  }
  EXPECT_TRUE(s.empty());
}

/// Construction from a sorted member list.
inline void run_subset_construction(job_id universe, std::uint64_t seed) {
  xoshiro256 rng(seed);
  std::vector<job_id> members;
  std::set<job_id> ref;
  for (job_id x = 1; x <= universe; ++x) {
    if (rng.chance(1, 3)) {
      members.push_back(x);
      ref.insert(x);
    }
  }
  const bitset_rank_set s(universe, members);
  expect_matches_reference(s, ref, universe);
}

/// Random operation mix on a set that starts full, checking the charge of
/// every single operation against the cost model (a Fenwick tree over the
/// num_words word popcounts):
///   contains        1
///   insert/erase    build_fenwick_hops(num_words)[word] when the set
///                   changes, 0 when it does not
///   select(k)       floor(log2 num_words) + 1 + (in-word rank - 1)
///   rank_le(x)      popcount(word index) + 1, 0 for x = 0
inline void run_charge_stream(job_id universe, usize operations,
                              std::uint64_t seed) {
  bitset_rank_set s = bitset_rank_set::full(universe);
  op_counter oc;
  s.set_counter(&oc);
  const usize words = ceil_div(universe, 64);
  const std::vector<std::uint8_t> hops = bits::build_fenwick_hops(words);
  const auto word_of = [](job_id x) { return (static_cast<usize>(x) - 1) / 64; };
  xoshiro256 rng(seed);
  for (usize op = 0; op < operations; ++op) {
    const job_id x = static_cast<job_id>(rng.below(universe + 2));  // 0..u+1
    const bool in_range = x >= 1 && x <= universe;
    const std::uint64_t before = oc.local_ops;
    usize want = 0;
    switch (rng.below(5)) {
      case 0:
        (void)s.contains(x);
        want = 1;
        break;
      case 1:
        if (in_range && s.insert(x)) want = hops[word_of(x)];
        break;
      case 2:
        if (s.erase(x)) want = hops[word_of(x)];
        break;
      case 3:
        if (!s.empty()) {
          const usize k = static_cast<usize>(rng.below(s.size())) + 1;
          const job_id y = s.select(k);
          const unsigned bit = (y - 1) % 64;
          const std::uint64_t upto =
              bit == 63 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << (bit + 1)) - 1;
          const usize in_word_rank =
              static_cast<usize>(std::popcount(s.word(word_of(y)) & upto));
          want = ilog2(words) + 1 + (in_word_rank - 1);
        }
        break;
      default: {
        (void)s.rank_le(x);
        const job_id clamped = std::min(x, universe);
        if (clamped >= 1) {
          want = static_cast<usize>(std::popcount(word_of(clamped))) + 1;
        }
        break;
      }
    }
    ASSERT_EQ(oc.local_ops - before, want)
        << "universe " << universe << " operation " << op << " x " << x;
  }
}

}  // namespace amo::testing
