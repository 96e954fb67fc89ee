// Unit and property tests for bitset_rank_set (libamo's FREE set), with
// emphasis on 64-bit word, 16-word superblock and 256-word group
// boundaries, and on the charge of every operation.
#include <gtest/gtest.h>

#include "rank_set_oracle.hpp"
#include "sets/bitset_rank_set.hpp"
#include "util/op_counter.hpp"

namespace amo {
namespace {

TEST(BitsetRankSet, EmptyBasics) {
  bitset_rank_set s(100);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.rank_le(100), 0u);
}

TEST(BitsetRankSet, EmptyUniverseRanksEverythingZero) {
  // rank_le clamps x to the universe; on the empty universe that leaves 0,
  // which must not be read as a word index.
  const bitset_rank_set s(0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.num_words(), 0u);
  EXPECT_FALSE(s.contains(1));
  for (const job_id x : {job_id{0}, job_id{1}, job_id{64}, job_id{1u << 20}}) {
    EXPECT_EQ(s.rank_le(x), 0u) << x;
  }
  EXPECT_EQ(s.popcount_range(1, 100), 0u);
  EXPECT_TRUE(s.to_vector().empty());
  EXPECT_TRUE(bitset_rank_set::full(0).empty());
}

TEST(BitsetRankSet, WordBoundaryElements) {
  bitset_rank_set s(200);
  for (job_id x : {job_id{1}, job_id{63}, job_id{64}, job_id{65}, job_id{127},
                   job_id{128}, job_id{129}, job_id{200}}) {
    EXPECT_TRUE(s.insert(x));
  }
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.select(1), 1u);
  EXPECT_EQ(s.select(2), 63u);
  EXPECT_EQ(s.select(3), 64u);
  EXPECT_EQ(s.select(4), 65u);
  EXPECT_EQ(s.select(8), 200u);
  EXPECT_EQ(s.rank_le(64), 3u);
  EXPECT_EQ(s.rank_le(128), 6u);
  EXPECT_TRUE(s.erase(64));
  EXPECT_EQ(s.select(3), 65u);
}

TEST(BitsetRankSet, UniverseExactly64) {
  auto s = bitset_rank_set::full(64);
  EXPECT_EQ(s.size(), 64u);
  EXPECT_EQ(s.select(64), 64u);
  EXPECT_EQ(s.rank_le(64), 64u);
  EXPECT_TRUE(s.erase(64));
  EXPECT_EQ(s.size(), 63u);
  EXPECT_EQ(s.rank_le(64), 63u);
}

TEST(BitsetRankSet, UniverseExactly65) {
  auto s = bitset_rank_set::full(65);
  EXPECT_EQ(s.size(), 65u);
  EXPECT_EQ(s.select(65), 65u);
}

TEST(BitsetRankSet, FullMasksTailWord) {
  // A full set over a non-multiple-of-64 universe must not count ghost bits.
  auto s = bitset_rank_set::full(70);
  EXPECT_EQ(s.size(), 70u);
  EXPECT_EQ(s.rank_le(70), 70u);
  EXPECT_FALSE(s.contains(71));
  EXPECT_EQ(s.select(70), 70u);
}

TEST(BitsetRankSet, UniverseOfOne) {
  auto s = bitset_rank_set::full(1);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.select(1), 1u);
  EXPECT_TRUE(s.erase(1));
  EXPECT_TRUE(s.empty());
}

TEST(BitsetRankSet, NonPowerOfTwoUniverse) {
  const auto s = bitset_rank_set::full(1000);
  for (usize k = 1; k <= 1000; k += 97) EXPECT_EQ(s.select(k), k);
}

TEST(BitsetRankSet, EraseOutOfRangeIsNoop) {
  bitset_rank_set s(10);
  s.insert(5);
  EXPECT_FALSE(s.erase(0));
  EXPECT_FALSE(s.erase(11));
  EXPECT_EQ(s.size(), 1u);
}

TEST(BitsetRankSet, RankLeBeyondUniverseClamps) {
  const auto s = bitset_rank_set::full(50);
  EXPECT_EQ(s.rank_le(50), 50u);
  EXPECT_EQ(s.rank_le(60), 50u);
}

TEST(BitsetRankSet, AlternatingEraseSelectsOddMembers) {
  auto s = bitset_rank_set::full(1024);
  for (job_id x = 2; x <= 1024; x += 2) EXPECT_TRUE(s.erase(x));
  EXPECT_EQ(s.size(), 512u);
  for (usize k = 1; k <= 512; ++k) EXPECT_EQ(s.select(k), 2 * k - 1);
}

TEST(BitsetRankSet, SparseSelectInsideWord) {
  bitset_rank_set s(64);
  s.insert(3);
  s.insert(5);
  s.insert(62);
  EXPECT_EQ(s.select(1), 3u);
  EXPECT_EQ(s.select(2), 5u);
  EXPECT_EQ(s.select(3), 62u);
}

TEST(BitsetRankSet, CounterCharges) {
  op_counter oc;
  auto s = bitset_rank_set::full(1 << 16);
  s.set_counter(&oc);
  s.erase(30000);
  (void)s.select(10000);
  (void)s.rank_le(50000);
  EXPECT_GT(oc.local_ops, 0u);
  EXPECT_LE(oc.local_ops, 96u);
}

TEST(BitsetRankSet, EveryChargeMatchesTheCostModel) {
  for (const job_id universe :
       {job_id{1}, job_id{63}, job_id{64}, job_id{65}, job_id{129},
        job_id{1000}, job_id{4096}, job_id{16385}, job_id{40000}}) {
    testing::run_charge_stream(universe, 4000, universe * 7 + 1);
  }
}

TEST(BitsetOracle, RandomizedSmall) {
  testing::run_randomized_stream(40, 2000, 121);
}

TEST(BitsetOracle, RandomizedMedium) {
  testing::run_randomized_stream(500, 6000, 242);
}

TEST(BitsetOracle, RandomizedWordStraddling) {
  testing::run_randomized_stream(129, 4000, 363);
}

TEST(BitsetOracle, ShrinkOnly) {
  testing::run_shrink_stream(300, 383);
}

TEST(BitsetOracle, SubsetConstruction) {
  testing::run_subset_construction(400, 484);
}

// Universes that end just past a superblock (1025), exactly on a group
// (16384), just past one (16385), mid-group after two full ones (40000),
// and past 64 groups (2^20 + 37).
const job_id kCounterBoundaryUniverses[] = {1025, 16384, 16385, 40000,
                                            (job_id{1} << 20) + 37};

TEST(BitsetOracle, RandomizedAcrossCounterBoundaries) {
  for (const job_id universe : kCounterBoundaryUniverses) {
    SCOPED_TRACE(universe);
    testing::run_randomized_stream(universe, 20000, universe + 1);
  }
}

TEST(BitsetOracle, ShrinkOnlyAcrossCounterBoundaries) {
  for (const job_id universe : kCounterBoundaryUniverses) {
    SCOPED_TRACE(universe);
    testing::run_shrink_stream(universe, universe + 2, universe / 8);
  }
}

TEST(BitsetOracle, SubsetConstructionAcrossCounterBoundaries) {
  for (const job_id universe : kCounterBoundaryUniverses) {
    SCOPED_TRACE(universe);
    testing::run_subset_construction(universe, universe + 3);
  }
}

class BitsetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitsetSweep, RandomizedStreamsAcrossSeeds) {
  testing::run_randomized_stream(128, 3000, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace amo
