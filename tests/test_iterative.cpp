// IterativeKK(eps) — Sections 6: cross-level at-most-once (Theorem 6.3),
// per-level output purity (Lemma 6.2), effectiveness within the Theorem 6.4
// envelope, termination, and crash tolerance.
// Driver-level sweeps run on the experiment engine (exp::run); the
// level-hook tests drive iterative_shared through the raw scheduler because
// they need per-level observation hooks.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "analysis/amo_checker.hpp"
#include "analysis/bounds.hpp"
#include "core/iterative_kk.hpp"
#include "exp/engine.hpp"
#include "mem/sim_memory.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"

namespace amo {
namespace {

exp::run_spec iter_spec(usize n, usize m, unsigned eps_inv,
                        const std::string& adversary, std::uint64_t seed = 1) {
  exp::run_spec s;
  s.algo = exp::algo_family::iterative;
  s.n = n;
  s.m = m;
  s.eps_inv = eps_inv;
  s.adversary = {adversary, seed};
  return s;
}

class IterativeSweep
    : public ::testing::TestWithParam<
          std::tuple<usize, usize, unsigned, usize, std::uint64_t>> {};

TEST_P(IterativeSweep, AtMostOnceAndEffectiveness) {
  const auto [n, m, eps_inv, adversary_index, seed] = GetParam();
  const exp::run_report report = exp::run(iter_spec(
      n, m, eps_inv, sim::standard_adversaries()[adversary_index], seed));
  ASSERT_TRUE(report.quiescent) << report.adversary;
  EXPECT_TRUE(report.at_most_once)
      << "duplicate real job " << report.duplicate << " under "
      << report.adversary;
  EXPECT_EQ(report.num_levels, eps_inv + 2u);
  EXPECT_EQ(report.terminated, m);
  // Theorem 6.4 envelope on jobs lost.
  const double loss = static_cast<double>(n) -
                      static_cast<double>(report.effectiveness);
  EXPECT_LE(loss, bounds::iterative_loss_envelope(n, m, eps_inv))
      << "n=" << n << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IterativeSweep,
    ::testing::Combine(::testing::Values<usize>(2048, 8192),
                       ::testing::Values<usize>(2, 3, 4),
                       ::testing::Values<unsigned>(1, 2),
                       ::testing::Values<usize>(0, 1, 4),
                       ::testing::Values<std::uint64_t>(19)));

TEST(Iterative, CrashSweepStaysSafe) {
  for (const usize f : {usize{1}, usize{3}}) {
    for (const std::uint64_t seed : {7ull, 21ull}) {
      exp::run_spec spec = iter_spec(4096, 4, 2, "random+crash:1/400", seed);
      spec.crash_budget = f;
      const exp::run_report report = exp::run(spec);
      ASSERT_TRUE(report.quiescent);
      EXPECT_TRUE(report.at_most_once) << "duplicate " << report.duplicate;
      EXPECT_EQ(report.terminated + report.crashes, 4u);
    }
  }
}

TEST(Iterative, Lemma62OutputsExcludePerformedSuperJobs) {
  // For every level: no super-job in any process's returned set may have
  // been performed by ANY process at that level. We track per-level perform
  // events through the hook factory and intersect with outputs post-run.
  const usize n = 4096;
  const usize m = 3;
  const unsigned eps_inv = 2;
  iterative_shared<sim_memory> shared(make_iterative_plan(n, m, eps_inv));
  const usize num_levels = shared.plan.levels.size();
  std::vector<std::set<job_id>> performed_at_level(num_levels);

  std::vector<std::unique_ptr<iterative_process<sim_memory>>> procs;
  std::vector<automaton*> handles;
  for (process_id pid = 1; pid <= m; ++pid) {
    auto hook_factory = [&performed_at_level](usize level, const super_job_space&) {
      kk_hooks hooks;
      hooks.on_perform = [&performed_at_level, level](process_id, job_id s) {
        performed_at_level[level].insert(s);
      };
      return hooks;
    };
    procs.push_back(std::make_unique<iterative_process<sim_memory>>(
        shared, pid, false, nullptr, hook_factory));
    handles.push_back(procs.back().get());
  }
  sim::scheduler sched(handles);
  sim::random_adversary adv(5);
  const auto result = sched.run(adv, 0, sim::default_step_limit(n, m) * 8);
  ASSERT_TRUE(result.quiescent);

  for (const auto& proc : procs) {
    const auto& outputs = proc->level_outputs();
    ASSERT_EQ(outputs.size(), num_levels);
    for (usize level = 0; level < num_levels; ++level) {
      for (const job_id s : outputs[level]) {
        EXPECT_EQ(performed_at_level[level].count(s), 0u)
            << "level " << level << " returned performed super-job " << s
            << " (Lemma 6.2 violation)";
      }
    }
  }
}

TEST(Iterative, SuperJobsPerformedAtMostOncePerLevel) {
  // Lemma 6.1: within one level, no super-job is performed twice.
  const usize n = 4096;
  const usize m = 4;
  iterative_shared<sim_memory> shared(make_iterative_plan(n, m, 1));
  const usize num_levels = shared.plan.levels.size();
  std::vector<std::unique_ptr<amo_checker>> level_checkers;
  for (usize l = 0; l < num_levels; ++l) {
    level_checkers.push_back(
        std::make_unique<amo_checker>(shared.plan.levels[l].count()));
  }
  std::vector<std::unique_ptr<iterative_process<sim_memory>>> procs;
  std::vector<automaton*> handles;
  for (process_id pid = 1; pid <= m; ++pid) {
    auto hook_factory = [&level_checkers](usize level, const super_job_space&) {
      kk_hooks hooks;
      hooks.on_perform = [&level_checkers, level](process_id p, job_id s) {
        level_checkers[level]->record(p, s);
      };
      return hooks;
    };
    procs.push_back(std::make_unique<iterative_process<sim_memory>>(
        shared, pid, false, nullptr, hook_factory));
    handles.push_back(procs.back().get());
  }
  sim::scheduler sched(handles);
  sim::block_adversary adv(31, 16);
  const auto result = sched.run(adv, 0, sim::default_step_limit(n, m) * 8);
  ASSERT_TRUE(result.quiescent);
  for (usize l = 0; l < num_levels; ++l) {
    EXPECT_TRUE(level_checkers[l]->ok())
        << "super-job " << level_checkers[l]->first_duplicate()
        << " performed twice at level " << l;
  }
}

TEST(Iterative, ProcessesMayRunLevelsOutOfLockstep) {
  // One process races ahead through all levels while others lag: safety
  // must not depend on any level barrier.
  const exp::run_report report =
      exp::run(iter_spec(2048, 4, 1, "stale_view:4194304"));
  ASSERT_TRUE(report.quiescent);
  EXPECT_TRUE(report.at_most_once);
  EXPECT_GE(report.effectiveness, 1u);
}

TEST(Iterative, EffectivenessBelowPlainKkButWorkFlatterAtScale) {
  // The design trade: IterativeKK sacrifices O(m^2 log n log m) jobs to cut
  // work. Verify the effectiveness ordering (plain >= iterative) on the
  // same schedule family.
  const usize n = 8192;
  const usize m = 4;
  exp::run_spec kopt;
  kopt.algo = exp::algo_family::kk;
  kopt.n = n;
  kopt.m = m;
  kopt.adversary.name = "round_robin";
  const exp::run_report plain = exp::run(kopt);

  const exp::run_report iter = exp::run(iter_spec(n, m, 2, "round_robin"));

  ASSERT_TRUE(plain.quiescent);
  ASSERT_TRUE(iter.quiescent);
  EXPECT_GE(plain.effectiveness, iter.effectiveness);
  EXPECT_GT(iter.effectiveness, n / 2);  // still performs the bulk
}

TEST(Iterative, TinyInstanceDegradesGracefully) {
  // n barely above 3m^2: most levels terminate immediately; the final
  // size-1 level still performs within its Theorem 4.4 envelope.
  const exp::run_report report = exp::run(iter_spec(100, 2, 3, "round_robin"));
  ASSERT_TRUE(report.quiescent);
  EXPECT_TRUE(report.at_most_once);
  const double loss = 100.0 - static_cast<double>(report.effectiveness);
  EXPECT_LE(loss, bounds::iterative_loss_envelope(100, 2, 3));
}

}  // namespace
}  // namespace amo
