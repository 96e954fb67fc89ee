// Theorem 4.4: effectiveness of KK_beta is exactly n - (beta + m - 2).
//  * Tightness: the announce-crash adversary (the proof's strategy) must
//    land exactly on the bound.
//  * Lower bound: every quiescent execution performs at least that many
//    jobs (Lemma 4.2 + wait-freedom), under every adversary family.
//  * Ceiling: no execution of any algorithm exceeds n - f when the
//    adversary pins f distinct announced jobs (Theorem 2.1's scenario).
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/bounds.hpp"
#include "exp/engine.hpp"

namespace amo {
namespace {

exp::run_spec kk_spec(usize n, usize m, usize beta, usize crash_budget,
                      const char* adversary, std::uint64_t seed = 1) {
  exp::run_spec spec;
  spec.n = n;
  spec.m = m;
  spec.beta = beta;
  spec.crash_budget = crash_budget;
  spec.adversary = {adversary, seed};
  return spec;
}

class EffectivenessExact
    : public ::testing::TestWithParam<std::tuple<usize, usize, usize>> {};

TEST_P(EffectivenessExact, AnnounceCrashAdversaryIsTight) {
  const auto [n, m, beta] = GetParam();
  const exp::run_report report =
      exp::run(kk_spec(n, m, beta, m - 1, "announce_crash"));
  ASSERT_TRUE(report.at_most_once);
  ASSERT_TRUE(report.quiescent);
  EXPECT_EQ(report.crashes, m - 1);
  const usize expected = bounds::kk_effectiveness(n, m, beta == 0 ? m : beta);
  EXPECT_EQ(report.effectiveness, expected)
      << "n=" << n << " m=" << m << " beta=" << beta;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EffectivenessExact,
    ::testing::Values(std::make_tuple(100, 2, 0), std::make_tuple(100, 4, 0),
                      std::make_tuple(100, 8, 0), std::make_tuple(1000, 16, 0),
                      std::make_tuple(1000, 4, 12), std::make_tuple(1000, 8, 64),
                      std::make_tuple(500, 3, 27),  // beta = 3m^2
                      std::make_tuple(2000, 2, 2)));

class EffectivenessLowerBound
    : public ::testing::TestWithParam<std::tuple<usize, usize, usize, std::uint64_t>> {
};

TEST_P(EffectivenessLowerBound, QuiescentRunsMeetTheBound) {
  const auto [n, m, adversary_index, seed] = GetParam();
  const exp::run_report report = exp::run(kk_spec(
      n, m, 0, m - 1, sim::standard_adversaries()[adversary_index], seed));
  ASSERT_TRUE(report.quiescent);
  EXPECT_GE(report.effectiveness, bounds::kk_effectiveness(n, m, m))
      << "under " << report.adversary;
  EXPECT_LE(report.effectiveness, n);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EffectivenessLowerBound,
    ::testing::Combine(::testing::Values<usize>(256, 1000),
                       ::testing::Values<usize>(2, 5, 8),
                       ::testing::Values<usize>(0, 1, 2, 3, 4, 5),
                       ::testing::Values<std::uint64_t>(13, 37)));

TEST(EffectivenessCeiling, StuckJobsEnforceNMinusF) {
  // Under the announce-crash strategy each of the f crashed processes pins a
  // distinct job forever, so Do(alpha) <= n - f — the Theorem 2.1 scenario.
  for (const usize m : {usize{2}, usize{4}, usize{8}, usize{16}}) {
    const exp::run_report report =
        exp::run(kk_spec(500, m, 0, m - 1, "announce_crash"));
    EXPECT_LE(report.effectiveness, bounds::effectiveness_upper(500, m - 1));
  }
}

TEST(EffectivenessNoCrash, FullSpeedRunsLoseAtMostTheBound) {
  // Even without crashes the algorithm may terminate up to beta + m - 2
  // short (termination is triggered by |FREE \ TRY| < beta).
  for (const usize m : {usize{2}, usize{4}, usize{8}}) {
    const exp::run_report report =
        exp::run(kk_spec(512, m, 0, 0, "round_robin"));
    ASSERT_TRUE(report.quiescent);
    EXPECT_EQ(report.terminated, m);
    EXPECT_GE(report.effectiveness, 512u - (2 * m - 2));
  }
}

TEST(EffectivenessMonotonicity, LargerBetaLosesMoreJobs) {
  // Theorem 4.4: loss grows linearly in beta under the tight adversary.
  usize prev = ~usize{0};
  for (const usize beta : {usize{4}, usize{8}, usize{16}, usize{32}}) {
    const exp::run_report report =
        exp::run(kk_spec(600, 4, beta, 3, "announce_crash"));
    EXPECT_LT(report.effectiveness, prev);
    prev = report.effectiveness;
  }
}

TEST(EffectivenessDominance, BeatsTrivialSplitUnderWorstCase) {
  // The headline comparison the paper motivates: with f = m-1 crashes the
  // trivial split keeps only n/m jobs; KK_m keeps n - 2m + 2.
  const usize n = 4096;
  const usize m = 16;
  const exp::run_report report =
      exp::run(kk_spec(n, m, 0, m - 1, "announce_crash"));
  EXPECT_GT(report.effectiveness, bounds::trivial_effectiveness(n, m, m - 1) * 10);
}

}  // namespace
}  // namespace amo
