// Differential coverage for the word-parallel free-set engine: the PDEP and
// portable broadword in-word selects against a brute-force bit walk, the
// bitset_rank_set select/rank paths (both select implementations, forced via
// the runtime switch) against the std::set oracle and a sorted member list,
// and —
// critically — charge parity: the shadow-bitmap FREE \ TRY fast paths must
// charge exactly the same op_counter units as the per-entry probe paths they
// replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "rank_set_oracle.hpp"
#include "sets/bitset_rank_set.hpp"
#include "sets/rank_select.hpp"
#include "sets/word_ops.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

/// Restores the select-implementation switch on scope exit.
struct portable_guard {
  explicit portable_guard(bool on) { bits::force_portable_select(on); }
  ~portable_guard() { bits::force_portable_select(false); }
};

unsigned brute_select_in_word(std::uint64_t x, unsigned k) {
  for (unsigned i = 0; i < 64; ++i) {
    if (((x >> i) & 1u) != 0 && --k == 0) return i;
  }
  ADD_FAILURE() << "rank out of range";
  return 64;
}

TEST(WordOps, PortableMatchesBruteForce) {
  xoshiro256 rng(7);
  for (int round = 0; round < 20000; ++round) {
    std::uint64_t x = rng();
    if (round % 3 == 0) x &= rng();  // sparser words
    if (round % 5 == 0) x |= rng();  // denser words
    if (x == 0) continue;
    const auto pc = static_cast<unsigned>(std::popcount(x));
    for (unsigned k = 1; k <= pc; ++k) {
      ASSERT_EQ(bits::select_in_word_portable(x, k), brute_select_in_word(x, k))
          << "x=" << x << " k=" << k;
    }
  }
}

#ifdef AMO_HAS_PDEP
TEST(WordOps, PdepMatchesPortable) {
  xoshiro256 rng(8);
  for (int round = 0; round < 20000; ++round) {
    std::uint64_t x = rng();
    if (round % 3 == 0) x &= rng();
    if (x == 0) continue;
    const auto pc = static_cast<unsigned>(std::popcount(x));
    for (unsigned k = 1; k <= pc; ++k) {
      ASSERT_EQ(bits::select_in_word_pdep(x, k),
                bits::select_in_word_portable(x, k))
          << "x=" << x << " k=" << k;
    }
  }
}
#endif

TEST(WordOps, EdgeWords) {
  for (unsigned i = 0; i < 64; ++i) {
    const std::uint64_t one = std::uint64_t{1} << i;
    EXPECT_EQ(bits::select_in_word_portable(one, 1), i);
    EXPECT_EQ(bits::select_in_word(one, 1), i);
  }
  const std::uint64_t all = ~std::uint64_t{0};
  for (unsigned k = 1; k <= 64; ++k) {
    EXPECT_EQ(bits::select_in_word_portable(all, k), k - 1);
  }
}

/// The full oracle suite with the portable in-word select forced, so the
/// non-PDEP path gets end-to-end coverage even on BMI2 builds.
TEST(PortableSelectOracle, RandomizedStreams) {
  portable_guard guard(true);
  testing::run_randomized_stream(300, 6000, 11);
  testing::run_randomized_stream(129, 4000, 22);
  testing::run_shrink_stream(400, 33);
}

/// Multi-level coverage: a universe large enough to exercise all four
/// counter-directory levels (> 16*16*16 words), cross-checked against the
/// sorted final members on sampled select/rank queries rather than the full
/// oracle: select(k) = v[k-1], rank_le(x) = |{y in v : y <= x}|.
TEST(WordParallel, LargeUniverseAgainstSortedMembers) {
  const job_id universe = 1u << 21;
  xoshiro256 rng(44);
  bitset_rank_set b(universe);
  std::set<job_id> ref;
  for (int i = 0; i < 20000; ++i) {
    const auto x = static_cast<job_id>(rng.between(1, universe));
    ASSERT_EQ(b.insert(x), ref.insert(x).second);
  }
  for (int i = 0; i < 5000; ++i) {
    const auto x = static_cast<job_id>(rng.between(1, universe));
    ASSERT_EQ(b.erase(x), ref.erase(x) == 1);
  }
  const std::vector<job_id> v(ref.begin(), ref.end());
  ASSERT_EQ(b.size(), v.size());
  for (bool portable : {false, true}) {
    portable_guard guard(portable);
    xoshiro256 qrng(55);
    for (int q = 0; q < 20000; ++q) {
      const usize k = qrng.below(b.size()) + 1;
      ASSERT_EQ(b.select(k), v[k - 1]) << "k=" << k;
      const auto x = static_cast<job_id>(qrng.between(1, universe));
      const auto le = std::upper_bound(v.begin(), v.end(), x) - v.begin();
      ASSERT_EQ(b.rank_le(x), static_cast<usize>(le)) << "x=" << x;
    }
  }
}

TEST(WordParallel, PopcountRangeMatchesRankDifference) {
  xoshiro256 rng(66);
  bitset_rank_set b(5000);
  for (int i = 0; i < 2500; ++i) {
    b.insert(static_cast<job_id>(rng.between(1, 5000)));
  }
  for (int q = 0; q < 2000; ++q) {
    auto lo = static_cast<job_id>(rng.between(1, 5000));
    auto hi = static_cast<job_id>(rng.between(1, 5000));
    if (lo > hi) std::swap(lo, hi);
    ASSERT_EQ(b.popcount_range(lo, hi), b.rank_le(hi) - b.rank_le(lo - 1));
  }
}

/// Builds matching (set, try) pairs where one try_set carries the shadow
/// bitmap and one does not, and asserts both observable results and charged
/// op_counter units are identical across the probe and word-parallel paths.
class ShadowParity : public ::testing::TestWithParam<int> {};

TEST_P(ShadowParity, RankExcludingChargesAndResults) {
  const bool clustered = GetParam() != 0;
  xoshiro256 rng(clustered ? 101 : 202);
  for (int round = 0; round < 40; ++round) {
    const auto universe = static_cast<job_id>(rng.between(2000, 1u << 17));
    bitset_rank_set s1(universe);
    bitset_rank_set s2(universe);
    for (int i = 0; i < 3000; ++i) {
      const auto x = static_cast<job_id>(rng.between(1, universe));
      s1.insert(x);
      s2.insert(x);
    }
    try_set probe;                        // no shadow: reference probe path
    try_set shadow;                       // shadow bound: word-parallel path
    shadow.bind_universe(universe);
    // Sizes straddle word_parallel_threshold so both branches of the gate
    // run; clustered entries exercise the occupied-word strategy, spread
    // entries the mask-merging strategy.
    const usize count = rng.between(1, 31);
    if (clustered) {
      const auto base =
          static_cast<job_id>(rng.between(1, universe - static_cast<job_id>(count)));
      for (usize i = 0; i < count; ++i) {
        probe.insert(base + static_cast<job_id>(i), 1);
        shadow.insert(base + static_cast<job_id>(i), 1);
      }
    } else {
      for (usize i = 0; i < count; ++i) {
        const auto j = static_cast<job_id>(rng.between(1, universe));
        probe.insert(j, 1);
        shadow.insert(j, 1);
      }
    }
    op_counter oc_probe;
    op_counter oc_shadow;
    s1.set_counter(&oc_probe);
    s2.set_counter(&oc_shadow);
    probe.set_counter(&oc_probe);
    shadow.set_counter(&oc_shadow);
    oc_probe = {};
    oc_shadow = {};

    const usize avail_probe = size_excluding(s1, probe, &oc_probe);
    const usize avail_shadow = size_excluding(s2, shadow, &oc_shadow);
    ASSERT_EQ(avail_probe, avail_shadow);
    ASSERT_EQ(oc_probe.local_ops, oc_shadow.local_ops)
        << "size_excluding charge parity, |TRY|=" << probe.size();

    for (int q = 0; q < 50 && avail_probe > 0; ++q) {
      const usize i = rng.below(avail_probe) + 1;
      oc_probe = {};
      oc_shadow = {};
      const job_id a = rank_excluding(s1, probe, i, &oc_probe);
      const job_id b = rank_excluding(s2, shadow, i, &oc_shadow);
      ASSERT_EQ(a, b) << "rank_excluding result, i=" << i;
      ASSERT_EQ(oc_probe.local_ops, oc_shadow.local_ops)
          << "rank_excluding charge parity, i=" << i
          << " |TRY|=" << probe.size();
      ASSERT_FALSE(probe.peek(a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SpreadAndClustered, ShadowParity,
                         ::testing::Values(0, 1));

/// The select/rank charge formulas must match the reference implementation:
/// log-floor descent units plus the in-word walk for select, Fenwick prefix
/// hops plus the final popcount for rank.
TEST(ChargeModel, SelectAndRankFormulas) {
  auto s = bitset_rank_set::full(1 << 12);  // 64 words, log_floor = 6
  op_counter oc;
  s.set_counter(&oc);
  // select(k): charge = (log_floor + 1) + (in-word rank - 1).
  oc = {};
  (void)s.select(1);  // word 0, in-word rank 1
  EXPECT_EQ(oc.local_ops, 7u);
  oc = {};
  (void)s.select(64);  // word 0, in-word rank 64
  EXPECT_EQ(oc.local_ops, 7u + 63u);
  oc = {};
  (void)s.select(65);  // word 1, in-word rank 1
  EXPECT_EQ(oc.local_ops, 7u);
  // rank_le(x): charge = popcount(word index) + 1.
  oc = {};
  (void)s.rank_le(64);  // word 0: popcount(0) + 1
  EXPECT_EQ(oc.local_ops, 1u);
  oc = {};
  (void)s.rank_le(449);  // word 7: popcount(7) + 1
  EXPECT_EQ(oc.local_ops, 4u);
}

TEST(ChargeModel, UpdateMatchesFenwickHops) {
  // The charged update cost must equal the reference Fenwick chain length:
  // for word w (0-based) in a 64-word array, the chain i = w+1, i += lowbit.
  auto s = bitset_rank_set::full(1 << 12);
  op_counter oc;
  s.set_counter(&oc);
  const auto chain = [](usize w, usize num_words) {
    usize hops = 0;
    for (usize i = w + 1; i <= num_words; i += i & (~i + 1)) ++hops;
    return hops;
  };
  for (const job_id x : {job_id{1}, job_id{64}, job_id{65}, job_id{2048},
                         job_id{4095}, job_id{4096}}) {
    oc = {};
    ASSERT_TRUE(s.erase(x));
    EXPECT_EQ(oc.local_ops, chain((x - 1) / 64, 64)) << "erase " << x;
    oc = {};
    ASSERT_TRUE(s.insert(x));
    EXPECT_EQ(oc.local_ops, chain((x - 1) / 64, 64)) << "insert " << x;
  }
}

}  // namespace
}  // namespace amo
