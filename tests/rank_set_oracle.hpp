// Oracle suite for the order-statistic FREE set: every observable is checked
// against std::set under randomized operation streams. test_bitset_rank_set
// and test_word_parallel instantiate these templates.
#pragma once

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/prng.hpp"
#include "util/types.hpp"

namespace amo::testing {

/// Compares every observable of `s` against the reference set.
template <class S>
void expect_matches_reference(const S& s, const std::set<job_id>& ref,
                              job_id universe) {
  ASSERT_EQ(s.size(), ref.size());
  EXPECT_EQ(s.empty(), ref.empty());
  // Membership over the whole universe.
  for (job_id x = 1; x <= universe; ++x) {
    EXPECT_EQ(s.contains(x), ref.count(x) == 1) << "element " << x;
  }
  // select is the inverse of ascending enumeration.
  usize k = 1;
  for (const job_id x : ref) {
    EXPECT_EQ(s.select(k), x) << "rank " << k;
    ++k;
  }
  // rank_le agrees with counting.
  usize below = 0;
  auto it = ref.begin();
  for (job_id x = 1; x <= universe; ++x) {
    while (it != ref.end() && *it <= x) {
      ++below;
      ++it;
    }
    EXPECT_EQ(s.rank_le(x), below) << "rank_le(" << x << ")";
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
template <class S>
void run_randomized_stream(job_id universe, usize operations, std::uint64_t seed) {
  S s(universe);
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

/// The shrink-only pattern KK_beta actually uses: start full, erase down.
template <class S>
void run_shrink_stream(job_id universe, std::uint64_t seed) {
  S s = S::full(universe);
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
    if (++steps % 37 == 0) expect_matches_reference(s, ref, universe);
  }
  EXPECT_TRUE(s.empty());
}

/// Construction from a sorted member list.
template <class S>
void run_subset_construction(job_id universe, std::uint64_t seed) {
  xoshiro256 rng(seed);
  std::vector<job_id> members;
  std::set<job_id> ref;
  for (job_id x = 1; x <= universe; ++x) {
    if (rng.chance(1, 3)) {
      members.push_back(x);
      ref.insert(x);
    }
  }
  const S s(universe, members);
  expect_matches_reference(s, ref, universe);
}

}  // namespace amo::testing
