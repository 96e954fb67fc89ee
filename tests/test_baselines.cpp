// The TAS executor baseline: optimal effectiveness with RMW primitives,
// outside the paper's model.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/amo_checker.hpp"
#include "baselines/tas_executor.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"

namespace amo {
namespace {

TEST(TasExecutor, AtMostOnceAndComplete) {
  const usize n = 500;
  const usize m = 4;
  baseline::tas_board board(n);
  amo_checker checker(n);
  std::vector<std::unique_ptr<baseline::tas_process>> procs;
  std::vector<automaton*> handles;
  for (process_id pid = 1; pid <= m; ++pid) {
    procs.push_back(std::make_unique<baseline::tas_process>(
        board, m, pid,
        [&checker](process_id p, job_id j) { checker.record(p, j); }));
    handles.push_back(procs.back().get());
  }
  sim::scheduler sched(handles);
  sim::random_adversary adv(31);
  const auto result = sched.run(adv, 0, 10000000);
  ASSERT_TRUE(result.quiescent);
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.distinct(), n);  // optimal: no crash, every job done
}

TEST(TasExecutor, LosesExactlyClaimedJobsUnderCrash) {
  // Crash a process between claim and perform: exactly its one claimed job
  // is lost — the n - f optimum the paper cites for RMW-based solutions.
  const usize n = 200;
  const usize m = 3;
  baseline::tas_board board(n);
  amo_checker checker(n);
  std::vector<std::unique_ptr<baseline::tas_process>> procs;
  std::vector<automaton*> handles;
  for (process_id pid = 1; pid <= m; ++pid) {
    procs.push_back(std::make_unique<baseline::tas_process>(
        board, m, pid,
        [&checker](process_id p, job_id j) { checker.record(p, j); }));
    handles.push_back(procs.back().get());
  }
  sim::scheduler sched(handles);

  // Omniscient crash: stop processes 1 and 2 the moment they hold a claim.
  class crash_on_claim final : public sim::adversary {
   public:
    sim::decision decide(const sim::sched_view& v) override {
      for (const process_id pid : v.runnable) {
        if (pid <= 2 && v.crashes_used < v.crash_budget &&
            v.processes[pid - 1]->next_action() == action_kind::perform) {
          return {sim::decision::kind::crash, pid};
        }
      }
      const process_id pid = v.runnable[c_++ % v.runnable.size()];
      return {sim::decision::kind::step, pid};
    }
    [[nodiscard]] const char* name() const override { return "crash_on_claim"; }
    usize c_ = 0;
  } adv;

  const auto result = sched.run(adv, 2, 10000000);
  ASSERT_TRUE(result.quiescent);
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(result.crashes, 2u);
  EXPECT_EQ(checker.distinct(), n - 2);  // exactly the two claimed jobs lost
}

TEST(TasExecutor, WorkIsLinearPlusContention) {
  const usize n = 2000;
  const usize m = 4;
  baseline::tas_board board(n);
  std::vector<std::unique_ptr<baseline::tas_process>> procs;
  std::vector<automaton*> handles;
  for (process_id pid = 1; pid <= m; ++pid) {
    procs.push_back(std::make_unique<baseline::tas_process>(board, m, pid, nullptr));
    handles.push_back(procs.back().get());
  }
  sim::scheduler sched(handles);
  sim::round_robin_adversary adv;
  const auto result = sched.run(adv, 0, 10000000);
  ASSERT_TRUE(result.quiescent);
  std::uint64_t total = 0;
  for (const auto& p : procs) total += p->work().actions;
  // Each process scans all n jobs once (m*n attempts) + n performs total.
  EXPECT_LE(total, static_cast<std::uint64_t>(m * n + n + 4 * m + 4));
}

}  // namespace
}  // namespace amo
