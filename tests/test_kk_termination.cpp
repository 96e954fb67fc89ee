// Wait-freedom (Lemma 4.3): no fair execution of KK_beta (beta >= m) runs
// forever. Operationally: every run reaches quiescence well within the
// defensive step limit, under every adversary family, with and without
// crashes, and the survivors all reach `end` (not merely the scheduler
// stalling).  Also Lemma 4.2's flip side: termination implies the job count
// is already >= n - (beta + m - 2).
// Runs on the experiment engine (exp::run over run_spec cells).
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/bounds.hpp"
#include "exp/engine.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"

namespace amo {
namespace {

class Termination
    : public ::testing::TestWithParam<std::tuple<usize, usize, usize, std::uint64_t>> {
};

TEST_P(Termination, QuiescesWithinBudget) {
  const auto [n, m, adversary_index, seed] = GetParam();
  exp::run_spec spec;
  spec.algo = exp::algo_family::kk;
  spec.n = n;
  spec.m = m;
  spec.adversary = {sim::standard_adversaries()[adversary_index], seed};
  const exp::run_report report = exp::run(spec);
  ASSERT_TRUE(report.quiescent) << report.adversary << " livelocked";
  EXPECT_EQ(report.terminated + report.crashes, m);
  EXPECT_LT(report.total_steps, sim::default_step_limit(n, m));
  // Lemma 4.2: quiescence requires the bound to have been met.
  EXPECT_GE(report.effectiveness, bounds::kk_effectiveness(n, m, m));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Termination,
    ::testing::Combine(::testing::Values<usize>(128, 700),
                       ::testing::Values<usize>(2, 4, 9, 16),
                       ::testing::Values<usize>(0, 1, 2, 3, 4, 5),
                       ::testing::Values<std::uint64_t>(101)));

TEST(Termination, SurvivorFinishesAloneAfterMassCrash) {
  // All but one process crash mid-run; the survivor must still terminate
  // (wait-freedom means no process ever waits on another).
  exp::run_spec spec;
  spec.algo = exp::algo_family::kk;
  spec.n = 300;
  spec.m = 6;
  spec.crash_budget = 5;
  spec.adversary = {"random+crash:1/50", 77};  // aggressive crashes
  const exp::run_report report = exp::run(spec);
  ASSERT_TRUE(report.quiescent);
  EXPECT_EQ(report.terminated, 6u - report.crashes);
  EXPECT_TRUE(report.at_most_once);
}

TEST(Termination, ActionCountScalesReasonably) {
  // The action count for a fair schedule should be O(n*m) up to collision
  // overhead — far below the defensive limit; this catches accidental
  // busy-loop regressions in the automaton.
  exp::run_spec spec;
  spec.algo = exp::algo_family::kk;
  spec.n = 2000;
  spec.m = 4;
  spec.adversary.name = "round_robin";
  const exp::run_report report = exp::run(spec);
  ASSERT_TRUE(report.quiescent);
  // Each performed job costs its performer ~2m+5 actions (one gather pass)
  // plus collision reruns; x8 headroom.
  EXPECT_LT(report.total_steps, 8 * (2 * spec.m + 5) * spec.n);
}

TEST(Termination, BetaEqualToNEndsImmediately) {
  // beta > n - ... : |FREE \ TRY| < beta at the very first compNext; every
  // process must end without performing anything.
  exp::run_spec spec;
  spec.algo = exp::algo_family::kk;
  spec.n = 50;
  spec.m = 2;
  spec.beta = 51;
  spec.adversary.name = "round_robin";
  const exp::run_report report = exp::run(spec);
  ASSERT_TRUE(report.quiescent);
  EXPECT_EQ(report.effectiveness, 0u);
  EXPECT_EQ(report.terminated, 2u);
}

TEST(Termination, TwoEndsRuleAlsoTerminates) {
  // The AO2-style rule with beta = 1 terminates on exhaustion; regression
  // guard against the both-pick-the-same-job livelock.
  for (const std::uint64_t seed : {5ull, 6ull, 7ull, 8ull}) {
    exp::run_spec spec;
    spec.algo = exp::algo_family::kk;
    spec.n = 257;
    spec.m = 2;
    spec.beta = 1;
    spec.rule = selection_rule::two_ends;
    spec.adversary = {"random", seed};
    const exp::run_report report = exp::run(spec);
    EXPECT_TRUE(report.quiescent) << "seed " << seed;
    EXPECT_TRUE(report.at_most_once);
  }
}

}  // namespace
}  // namespace amo
