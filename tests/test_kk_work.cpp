// Work complexity (Section 5): with beta >= 3m^2,
//  * pairwise collisions respect Lemma 5.5's 2*ceil(n/(m|q-p|)) bound,
//  * total collisions stay below Theorem 5.6's 4(n+1) lg m,
//  * total work stays within a constant of the n*m*lg n*lg m envelope.
// Also internal consistency of the work accounting itself.
// Runs on the experiment engine (exp::run over run_spec cells).
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/bounds.hpp"
#include "exp/engine.hpp"
#include "sim/adversary.hpp"

namespace amo {
namespace {

exp::run_spec kk_spec(usize n, usize m, usize beta,
                      const std::string& adversary, std::uint64_t seed = 1) {
  exp::run_spec s;
  s.algo = exp::algo_family::kk;
  s.n = n;
  s.m = m;
  s.beta = beta;
  s.adversary = {adversary, seed};
  return s;
}

class WorkSweep
    : public ::testing::TestWithParam<std::tuple<usize, usize, usize, std::uint64_t>> {
};

TEST_P(WorkSweep, CollisionBoundsHoldForBigBeta) {
  const auto [n, m, adversary_index, seed] = GetParam();
  const usize beta = 3 * m * m;  // the Section 5 regime
  if (beta + m >= n) GTEST_SKIP() << "degenerate: beta too close to n";
  const exp::run_report report = exp::run(
      kk_spec(n, m, beta, sim::standard_adversaries()[adversary_index], seed));
  ASSERT_TRUE(report.quiescent);
  ASSERT_TRUE(report.at_most_once);
  // Lemma 5.5 per-pair bound (worst ratio over all pairs <= 1).
  EXPECT_LE(report.worst_pair_ratio, 1.0);
  // Theorem 5.6 aggregate bound.
  EXPECT_LE(static_cast<double>(report.total_collisions),
            bounds::total_collision_bound(n, m));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkSweep,
    ::testing::Combine(::testing::Values<usize>(1024, 4096),
                       ::testing::Values<usize>(2, 4, 6),
                       ::testing::Values<usize>(0, 1, 3, 4, 5),
                       ::testing::Values<std::uint64_t>(23)));

TEST(Work, EnvelopeRatioBoundedAcrossN) {
  // work / (n m lg n lg m) should not grow with n (Theorem 5.6 shape).
  const usize m = 4;
  double worst = 0;
  for (const usize n : {usize{1 << 10}, usize{1 << 12}, usize{1 << 14}}) {
    const exp::run_report report =
        exp::run(kk_spec(n, m, 3 * m * m, "round_robin"));
    const double ratio = static_cast<double>(report.total_work.total()) /
                         bounds::kk_work_envelope(n, m);
    EXPECT_LT(ratio, 4.0) << "n=" << n;
    if (ratio > worst) worst = ratio;
  }
  EXPECT_GT(worst, 0.0);
}

TEST(Work, SharedOpsDominatedByGatherPasses) {
  // Every performed job costs its performer one full gather pass (~2m
  // reads); total shared reads should be within a small factor of
  // perform-count * 2m under a fair schedule.
  const usize n = 2048;
  const usize m = 8;
  const exp::run_report report = exp::run(kk_spec(n, m, 0, "round_robin"));
  ASSERT_TRUE(report.quiescent);
  const double reads = static_cast<double>(report.total_work.shared_reads);
  const double passes = static_cast<double>(report.perform_events +
                                            report.total_collisions + m);
  EXPECT_LT(reads, passes * (2.0 * m + 2.0) * 2.0);
  EXPECT_GT(reads, static_cast<double>(report.perform_events));
}

TEST(Work, WritesAreAnnouncesPlusRecords) {
  const exp::run_report report = exp::run(kk_spec(500, 4, 0, "round_robin"));
  usize announces = 0;
  usize records = 0;
  for (const auto& s : report.per_process) {
    announces += s.announces;
    records += s.records;
  }
  // Plain mode writes shared memory only in setNext and done actions.
  EXPECT_EQ(report.total_work.shared_writes, announces + records);
}

TEST(Work, SmallBetaCausesMoreCollisionsThanBigBeta) {
  // The point of beta >= 3m^2: interval separation keeps processes from
  // trampling each other. Compare collision totals at beta = m vs 3m^2
  // under the collision-friendly stale_view schedule.
  const usize n = 4096;
  const usize m = 6;
  const exp::run_report r_small =
      exp::run(kk_spec(n, m, m, "stale_view:50000"));
  const exp::run_report r_big =
      exp::run(kk_spec(n, m, 3 * m * m, "stale_view:50000"));

  ASSERT_TRUE(r_small.quiescent);
  ASSERT_TRUE(r_big.quiescent);
  // Not a theorem for single runs, but robust in practice for this schedule;
  // guards the qualitative claim.
  EXPECT_LE(r_big.total_collisions, r_small.total_collisions + 4 * m);
}

TEST(Work, PerProcessWorkIsBalancedUnderFairSchedule) {
  const exp::run_report report = exp::run(kk_spec(2000, 4, 0, "round_robin"));
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (const auto& s : report.per_process) {
    lo = std::min(lo, s.work.total());
    hi = std::max(hi, s.work.total());
  }
  EXPECT_LT(static_cast<double>(hi),
            4.0 * static_cast<double>(lo) + 1000.0);
}

}  // namespace
}  // namespace amo
