// Real-concurrency tests: the same automaton code on std::atomic registers
// with genuine OS-thread interleavings. Safety (no duplicate do) must hold
// on every run; Lemma 4.2 gives a hard effectiveness floor whenever all
// surviving threads terminate.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "analysis/bounds.hpp"
#include "exp/engine.hpp"

namespace amo {
namespace {

usize hw_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 4 : hc;
}

exp::run_spec threads_spec(exp::algo_family algo, usize n, usize m) {
  exp::run_spec spec;
  spec.algo = algo;
  spec.driver = exp::driver_kind::os_threads;
  spec.n = n;
  spec.m = m;
  return spec;
}

TEST(Threads, AtMostOnceAcrossRepeatedRuns) {
  const usize m = std::min<usize>(hw_threads(), 8);
  for (int round = 0; round < 8; ++round) {
    exp::run_spec opt = threads_spec(exp::algo_family::kk, 20000, m);
    const auto report = exp::run(opt);
    ASSERT_TRUE(report.at_most_once)
        << "duplicate job " << report.duplicate << " in round " << round;
    EXPECT_EQ(report.terminated, m);
    EXPECT_GE(report.effectiveness, bounds::kk_effectiveness(20000, m, m));
    EXPECT_LE(report.effectiveness, 20000u);
  }
}

TEST(Threads, JobFunctionSeesEachJobOnce) {
  const usize n = 8000;
  const usize m = std::min<usize>(hw_threads(), 6);
  std::vector<std::atomic<std::uint32_t>> hits(n + 1);
  exp::run_spec opt = threads_spec(exp::algo_family::kk, n, m);
  exp::run_hooks hooks;
  hooks.on_perform = [&hits](process_id, job_id j) {
    hits[j].fetch_add(1, std::memory_order_relaxed);
  };
  const auto report = exp::run(opt, hooks);
  ASSERT_TRUE(report.at_most_once);
  usize performed = 0;
  for (job_id j = 1; j <= n; ++j) {
    const auto h = hits[j].load(std::memory_order_relaxed);
    ASSERT_LE(h, 1u) << "job " << j << " executed " << h << " times";
    performed += h;
  }
  EXPECT_EQ(performed, report.effectiveness);
}

TEST(Threads, CrashInjectionAfterAnnounce) {
  // Threads 1..m-1 crash right after their first announce — the thread-
  // runtime version of the Theorem 4.4 adversary. The survivor must finish,
  // and effectiveness must be >= the bound (scheduling noise usually makes
  // it land above the simulated tight value, never below).
  const usize n = 5000;
  const usize m = 4;
  exp::run_spec opt = threads_spec(exp::algo_family::kk, n, m);
  opt.crashes.what = exp::crash_spec::kind::after_first_announce;
  opt.crashes.count = m - 1;
  const auto report = exp::run(opt);
  ASSERT_TRUE(report.at_most_once);
  EXPECT_EQ(report.crashes, m - 1);
  EXPECT_EQ(report.terminated, 1u);
  EXPECT_GE(report.effectiveness, bounds::kk_effectiveness(n, m, m));
  EXPECT_LE(report.effectiveness, bounds::effectiveness_upper(n, 0));
}

TEST(Threads, CrashInjectionMidRun) {
  const usize n = 10000;
  const usize m = std::min<usize>(hw_threads(), 6);
  std::vector<usize> at(m, 0);
  for (usize i = 0; i + 1 < m; ++i) at[i] = 500 * (i + 1);  // survivor: last
  exp::run_spec opt = threads_spec(exp::algo_family::kk, n, m);
  opt.crashes.what = exp::crash_spec::kind::after_actions;
  opt.crashes.per_thread = at;
  const auto report = exp::run(opt);
  ASSERT_TRUE(report.at_most_once) << "duplicate " << report.duplicate;
  EXPECT_GE(report.terminated, 1u);
  EXPECT_GE(report.effectiveness, bounds::kk_effectiveness(n, m, m));
}

TEST(Threads, SingleThreadDegeneratesToSequential) {
  exp::run_spec opt = threads_spec(exp::algo_family::kk, 3000, 1);
  opt.beta = 1;
  const auto report = exp::run(opt);
  EXPECT_TRUE(report.at_most_once);
  EXPECT_EQ(report.effectiveness, 3000u);
}

TEST(Threads, IterativeAtMostOnce) {
  const usize m = std::min<usize>(hw_threads(), 6);
  for (int round = 0; round < 4; ++round) {
    exp::run_spec opt =
        threads_spec(exp::algo_family::iterative, 30000, m);
    opt.eps_inv = 2;
    const auto report = exp::run(opt);
    ASSERT_TRUE(report.at_most_once)
        << "duplicate real job " << report.duplicate << " round " << round;
    EXPECT_EQ(report.terminated, m);
    const double loss =
        30000.0 - static_cast<double>(report.effectiveness);
    EXPECT_LE(loss, bounds::iterative_loss_envelope(30000, m, 2));
  }
}

TEST(Threads, WriteAllCompletesUnderConcurrency) {
  const usize m = std::min<usize>(hw_threads(), 6);
  for (int round = 0; round < 4; ++round) {
    exp::run_spec opt =
        threads_spec(exp::algo_family::iterative, 20000, m);
    opt.eps_inv = 1;
    opt.algo = exp::algo_family::wa_iterative;
    const auto report = exp::run(opt);
    EXPECT_TRUE(report.wa_complete)
        << report.wa_written << "/20000 in round " << round;
  }
}

TEST(Threads, WriteAllWithCrashes) {
  const usize m = 5;
  exp::run_spec opt =
      threads_spec(exp::algo_family::iterative, 10000, m);
  opt.eps_inv = 1;
  opt.algo = exp::algo_family::wa_iterative;
  opt.crashes.what = exp::crash_spec::kind::after_actions;
  opt.crashes.per_thread = {2000, 4000, 0, 6000, 0};
  const auto report = exp::run(opt);
  EXPECT_TRUE(report.wa_complete);
  EXPECT_EQ(report.wa_written, 10000u);
}

/// Reports fixed progress probes; only what crash_spec reads matters.
struct probe final : automaton {
  usize steps = 0;
  usize announces = 0;
  void step() override {}
  [[nodiscard]] bool runnable() const override { return true; }
  void crash() override {}
  [[nodiscard]] process_id id() const override { return 1; }
  [[nodiscard]] action_kind next_action() const override {
    return action_kind::local_compute;
  }
  [[nodiscard]] usize announce_count() const override { return announces; }
  [[nodiscard]] usize perform_count() const override { return 0; }
  [[nodiscard]] usize step_count() const override { return steps; }
};

TEST(CrashSpec, PredicatesBehave) {
  probe p;
  exp::crash_spec by_actions;
  by_actions.what = exp::crash_spec::kind::after_actions;
  by_actions.per_thread = {5, 0, 7};
  p.steps = 4;
  EXPECT_FALSE(by_actions.should_crash(1, p));
  p.steps = 5;
  EXPECT_TRUE(by_actions.should_crash(1, p));
  EXPECT_FALSE(by_actions.should_crash(2, p));  // 0 = never
  EXPECT_FALSE(by_actions.should_crash(4, p));  // beyond the schedule

  exp::crash_spec by_announce;
  by_announce.what = exp::crash_spec::kind::after_first_announce;
  by_announce.count = 3;
  EXPECT_FALSE(by_announce.should_crash(3, p));
  p.announces = 1;
  EXPECT_TRUE(by_announce.should_crash(3, p));
  EXPECT_FALSE(by_announce.should_crash(4, p));

  EXPECT_FALSE(exp::crash_spec{}.should_crash(1, p));
}

}  // namespace
}  // namespace amo
