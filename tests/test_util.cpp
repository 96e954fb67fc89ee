// Unit tests for the utility kernel: integer math, PRNG, work counters,
// table rendering.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/fnv.hpp"
#include "util/math.hpp"
#include "util/op_counter.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace amo {
namespace {

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 1), 0u);
  EXPECT_EQ(ceil_div(1, 1), 1u);
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 64), 1u);
  EXPECT_EQ(ceil_div(64, 64), 1u);
  EXPECT_EQ(ceil_div(65, 64), 2u);
}

TEST(Math, Ilog2) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(4), 2u);
  EXPECT_EQ(ilog2(1023), 9u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2(~std::uint64_t{0}), 63u);
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Math, ClampedLog2) {
  EXPECT_EQ(clamped_log2(1), 1u);  // clamped: log 1 = 0 -> 1
  EXPECT_EQ(clamped_log2(2), 1u);
  EXPECT_EQ(clamped_log2(8), 3u);
}

TEST(Math, FloorCeilPow2) {
  EXPECT_EQ(floor_pow2(1), 1u);
  EXPECT_EQ(floor_pow2(2), 2u);
  EXPECT_EQ(floor_pow2(3), 2u);
  EXPECT_EQ(floor_pow2(1000), 512u);
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(1000), 1024u);
}

TEST(Math, Ipow) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(3, 0), 1u);
  EXPECT_EQ(ipow(10, 6), 1000000u);
}

TEST(Prng, Deterministic) {
  xoshiro256 a(42);
  xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, SeedsDiffer) {
  xoshiro256 a(1);
  xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Prng, BelowRespectsBound) {
  xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Prng, BelowCoversRange) {
  xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, BetweenInclusive) {
  xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Prng, UnitInHalfOpenInterval) {
  xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, ShuffleIsPermutation) {
  xoshiro256 rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(OpCounter, TotalsAndAddition) {
  op_counter a;
  a.shared_reads = 3;
  a.shared_writes = 2;
  a.local_ops = 5;
  a.actions = 1;
  EXPECT_EQ(a.total(), 11u);
  op_counter b = a + a;
  EXPECT_EQ(b.total(), 22u);
  b += a;
  EXPECT_EQ(b.shared_reads, 9u);
}

TEST(Table, RendersAligned) {
  text_table t({"a", "bbbb"});
  t.add_row({"123", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("  a  bbbb"), std::string::npos);
  EXPECT_NE(out.find("123     4"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
}

TEST(Fnv, TwoChainsInOnePassEqualTwoAppends) {
  // The reader's one pass over a chunk feeds its checksum and the content
  // hash: each chain must equal fnv1a64_append over the same bytes, from
  // any two starting states.
  xoshiro256 rng(42);
  std::string big(1 << 20, '\0');
  for (char& c : big) c = static_cast<char>(rng.below(256));
  for (const std::string& s :
       {std::string(), std::string(1, '\xff'), std::string("odd-length!"),
        big}) {
    std::uint64_t a = fnv1a64_offset;
    std::uint64_t b = fnv1a64("an earlier frame");
    const std::uint64_t b0 = b;
    fnv1a64_append2(a, b, s);
    EXPECT_EQ(a, fnv1a64_append(fnv1a64_offset, s)) << s.size();
    EXPECT_EQ(b, fnv1a64_append(b0, s)) << s.size();
  }
  EXPECT_EQ(fnv1a64(""), fnv1a64_offset);
}

}  // namespace
}  // namespace amo
