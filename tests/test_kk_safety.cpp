// The at-most-once property (Lemma 4.1) under adversarial sweeps: every
// combination of size, process count, beta, adversary family, seed and crash
// budget must produce zero duplicate do actions. Safety must hold even for
// beta < m (where termination is forfeit) and for the two-ends selection
// rule — Lemma 4.1's proof uses neither the rank formula nor beta.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "exp/engine.hpp"

namespace amo {
namespace {

struct sweep_param {
  usize n;
  usize m;
  usize beta;  // 0 = m
  usize adversary_index;
  std::uint64_t seed;
  usize crash_budget;
};

class KkSafetySweep : public ::testing::TestWithParam<sweep_param> {};

TEST_P(KkSafetySweep, NoJobPerformedTwice) {
  const sweep_param p = GetParam();
  exp::run_spec spec;
  spec.n = p.n;
  spec.m = p.m;
  spec.beta = p.beta;
  spec.crash_budget = p.crash_budget;
  spec.adversary = {sim::standard_adversaries()[p.adversary_index], p.seed};
  const exp::run_report report = exp::run(spec);
  EXPECT_TRUE(report.at_most_once)
      << "duplicate job " << report.duplicate << " under "
      << report.adversary << " seed " << p.seed;
  EXPECT_EQ(report.perform_events, report.effectiveness);
  // With beta >= m the run must reach quiescence (wait-freedom).
  if (p.beta == 0 || p.beta >= p.m) {
    EXPECT_TRUE(report.quiescent) << "possible livelock";
  }
}

std::vector<sweep_param> make_sweep() {
  std::vector<sweep_param> out;
  const usize adversaries = sim::standard_adversaries().size();
  for (const usize n : {usize{64}, usize{300}, usize{1024}}) {
    for (const usize m : {usize{2}, usize{3}, usize{8}}) {
      for (const usize beta : {usize{0}, usize{2 * m}}) {
        for (usize a = 0; a < adversaries; ++a) {
          for (const std::uint64_t seed : {11ull, 29ull}) {
            for (const usize f : {usize{0}, m - 1}) {
              out.push_back({n, m, beta, a, seed, f});
            }
          }
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, KkSafetySweep, ::testing::ValuesIn(make_sweep()));

// --- beta < m: correctness must survive even without termination ---

class KkSmallBetaSweep
    : public ::testing::TestWithParam<std::tuple<usize, std::uint64_t>> {};

TEST_P(KkSmallBetaSweep, SafeEvenWithoutTerminationGuarantee) {
  const auto [m, seed] = GetParam();
  exp::run_spec spec;
  spec.n = 400;
  spec.m = m;
  spec.beta = 1;                  // << m
  spec.max_steps = 400 * m * 64;  // bounded run; termination not required
  spec.adversary = {"random", seed};
  const exp::run_report report = exp::run(spec);
  EXPECT_TRUE(report.at_most_once) << "duplicate job " << report.duplicate;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KkSmallBetaSweep,
    ::testing::Combine(::testing::Values<usize>(2, 4, 8),
                       ::testing::Values<std::uint64_t>(3, 7, 31)));

// --- the two-ends selection rule must stay safe under crashes ---

TEST(KkSafetyRules, TwoEndsRuleSafeUnderCrashes) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    exp::run_spec spec;
    spec.n = 300;
    spec.m = 4;
    spec.beta = 1;
    spec.rule = selection_rule::two_ends;
    spec.crash_budget = 3;
    spec.max_steps = 300 * 4 * 64;
    spec.adversary = {"random+crash:1/300", seed};
    const exp::run_report report = exp::run(spec);
    EXPECT_TRUE(report.at_most_once) << "duplicate " << report.duplicate;
  }
}

}  // namespace
}  // namespace amo
