// Property tests for the paper's rank(SET1, SET2, i) operator
// (rank_excluding): cross-checked against a brute-force oracle over
// bitset_rank_set and randomized TRY overlays.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sets/bitset_rank_set.hpp"
#include "sets/rank_select.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

/// Brute-force: k-th smallest of set1 \ set2.
std::vector<job_id> difference(const std::vector<job_id>& members,
                               const try_set& excl) {
  std::vector<job_id> out;
  for (const job_id x : members) {
    if (!excl.contains(x)) out.push_back(x);
  }
  return out;
}

TEST(RankSelect, EmptyExclusionIsPlainSelect) {
  const bitset_rank_set s = bitset_rank_set::full(100);
  try_set t;
  for (usize k = 1; k <= 100; k += 7) {
    EXPECT_EQ(rank_excluding(s, t, k), k);
  }
}

TEST(RankSelect, ExclusionShiftsRanks) {
  const bitset_rank_set s = bitset_rank_set::full(10);
  try_set t;
  t.insert(1, 2);
  t.insert(2, 2);
  // set \ {1,2} = {3..10}
  EXPECT_EQ(rank_excluding(s, t, 1), 3u);
  EXPECT_EQ(rank_excluding(s, t, 8), 10u);
}

TEST(RankSelect, ExclusionInMiddle) {
  const bitset_rank_set s = bitset_rank_set::full(10);
  try_set t;
  t.insert(5, 2);
  EXPECT_EQ(rank_excluding(s, t, 4), 4u);
  EXPECT_EQ(rank_excluding(s, t, 5), 6u);
  EXPECT_EQ(rank_excluding(s, t, 9), 10u);
}

TEST(RankSelect, ExcludedElementsNotInSetAreIgnored) {
  bitset_rank_set s = bitset_rank_set::full(10);
  s.erase(4);
  s.erase(5);
  try_set t;
  t.insert(4, 2);  // not in s: must not shift anything
  t.insert(6, 3);
  // s \ t = {1,2,3,7,8,9,10}
  EXPECT_EQ(size_excluding(s, t), 7u);
  EXPECT_EQ(rank_excluding(s, t, 4), 7u);
  EXPECT_EQ(rank_excluding(s, t, 7), 10u);
}

TEST(RankSelect, ConsecutiveExclusionsAtFront) {
  const bitset_rank_set s = bitset_rank_set::full(20);
  try_set t;
  for (job_id x = 1; x <= 7; ++x) t.insert(x, 2);
  EXPECT_EQ(rank_excluding(s, t, 1), 8u);
  EXPECT_EQ(size_excluding(s, t), 13u);
}

TEST(RankSelect, RandomizedAgainstBruteForce) {
  xoshiro256 rng(987);
  for (int round = 0; round < 60; ++round) {
    const job_id universe = static_cast<job_id>(rng.between(8, 160));
    bitset_rank_set s(universe);
    std::vector<job_id> members;
    for (job_id x = 1; x <= universe; ++x) {
      if (rng.chance(2, 3)) {
        s.insert(x);
        members.push_back(x);
      }
    }
    try_set t;
    const usize excl = rng.between(0, 10);
    for (usize i = 0; i < excl; ++i) {
      t.insert(static_cast<job_id>(rng.between(1, universe)),
               static_cast<process_id>(rng.between(1, 8)));
    }
    const std::vector<job_id> diff = difference(members, t);
    ASSERT_EQ(size_excluding(s, t), diff.size());
    for (usize k = 1; k <= diff.size(); ++k) {
      ASSERT_EQ(rank_excluding(s, t, k), diff[k - 1])
          << "universe=" << universe << " k=" << k << " round=" << round;
    }
  }
}

TEST(RankSelect, WorkChargedIsBounded) {
  op_counter oc;
  bitset_rank_set s = bitset_rank_set::full(1 << 12);
  s.set_counter(&oc);
  try_set t;
  t.set_counter(&oc);
  for (job_id x = 100; x < 100 + 16; ++x) t.insert(x, 2);
  oc = {};
  rank_excluding(s, t, 2000, &oc);
  // O(|TRY| * log U): 17 iterations max, each O(log 4096 + |TRY|).
  EXPECT_LE(oc.local_ops, 17u * (12u + 17u) * 4u);
}

TEST(RankSelect, ChargesOnlyItsFixedPointLoopInEveryBuildType) {
  // The charged counts are the paper's cost model and land in records, so
  // they must not depend on NDEBUG: rank_excluding's precondition check
  // may not charge FREE. A twin FREE set replays the operator's loop
  // (select + excluded_at_or_below) and must end with the same counts.
  // Small TRY takes the probe path, large TRY with a shadow the word path.
  for (const usize try_size : {usize{5}, usize{24}}) {
    op_counter free_oc;
    bitset_rank_set free_set = bitset_rank_set::full(1 << 10);
    free_set.set_counter(&free_oc);
    op_counter twin_oc;
    bitset_rank_set twin = bitset_rank_set::full(1 << 10);
    twin.set_counter(&twin_oc);
    try_set t;
    t.bind_universe(1 << 10);
    for (usize k = 0; k < try_size; ++k) {
      t.insert(static_cast<job_id>(3 + 7 * k), 2);
    }
    for (const usize i : {usize{1}, usize{40}, usize{900}}) {
      op_counter oc;
      const job_id got = rank_excluding(free_set, t, i, &oc);

      op_counter twin_call_oc;
      usize idx = i;
      job_id x = 0;
      while (true) {
        x = twin.select(idx);
        const usize next = i + excluded_at_or_below(twin, t, x, &twin_call_oc);
        if (next == idx) break;
        idx = next;
      }
      EXPECT_EQ(got, x) << try_size << " " << i;
      EXPECT_EQ(oc.local_ops, twin_call_oc.local_ops) << try_size << " " << i;
      EXPECT_EQ(free_oc.local_ops, twin_oc.local_ops) << try_size << " " << i;
    }
  }
}

}  // namespace
}  // namespace amo
