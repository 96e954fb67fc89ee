// The sweep layer: the work-stealing thread pool runs every cell exactly
// once, propagates failures, and — the determinism contract — produces
// byte-identical JSON output for pool sizes 1, 2 and hardware_concurrency,
// because each cell is a pure function of its spec.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "exp/engine.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"
#include "svc/worker_pool.hpp"

namespace amo {
namespace {

std::vector<exp::run_spec> mixed_grid() {
  std::vector<exp::run_spec> cells;
  for (const char* adversary_name : sim::standard_adversaries()) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      exp::run_spec s;
      s.label = std::string("grid/") + adversary_name;
      s.algo = exp::algo_family::kk;
      s.n = 257;
      s.m = 3;
      s.crash_budget = 2;
      s.adversary = {adversary_name, seed};
      cells.push_back(std::move(s));
    }
  }
  // Mix in the other algorithm families so the determinism claim covers
  // the whole engine, not just plain KK.
  exp::run_spec iter;
  iter.label = "grid/iterative";
  iter.algo = exp::algo_family::iterative;
  iter.n = 500;
  iter.m = 3;
  iter.eps_inv = 2;
  iter.adversary = {"random", 5};
  cells.push_back(iter);
  exp::run_spec wa = iter;
  wa.label = "grid/wa";
  wa.algo = exp::algo_family::wa_iterative;
  cells.push_back(wa);
  return cells;
}

std::string dump_json(const exp::sweep_result& result) {
  exp::json_writer json;
  // Timing excluded: wall clocks legitimately differ between runs.
  exp::cell_record_rows(result, 0, exp::json_rows(json),
                        /*include_timing=*/false);
  return json.dump();
}

TEST(ExpSweep, ByteIdenticalAcrossPoolSizes) {
  const std::vector<exp::run_spec> cells = mixed_grid();

  exp::sweep_options serial;
  serial.pool_size = 1;
  const std::string ref = dump_json(exp::sweep(cells, serial));

  exp::sweep_options two;
  two.pool_size = 2;
  EXPECT_EQ(ref, dump_json(exp::sweep(cells, two)));

  exp::sweep_options hw;
  hw.pool_size = 0;  // hardware_concurrency
  EXPECT_EQ(ref, dump_json(exp::sweep(cells, hw)));
}

TEST(ExpSweep, PooledReportsMatchDirectRuns) {
  const std::vector<exp::run_spec> cells = mixed_grid();
  exp::sweep_options opt;
  opt.pool_size = 4;
  const exp::sweep_result result = exp::sweep(cells, opt);
  ASSERT_EQ(result.reports.size(), cells.size());
  for (usize i = 0; i < cells.size(); ++i) {
    const exp::run_report direct = exp::run(cells[i]);
    EXPECT_TRUE(exp::equivalent(direct, result.reports[i]))
        << cells[i].label << " seed " << cells[i].adversary.seed;
    EXPECT_EQ(result.reports[i].label, cells[i].label);
  }
}

TEST(ExpSweep, CellErrorsPropagateAfterDraining) {
  // One bad cell must not stop the others — at any pool size, including
  // the serial path — and the first exception is rethrown at the end.
  std::vector<exp::run_spec> cells = mixed_grid();
  cells[3].adversary.name = "no_such_adversary";
  for (const usize pool : {usize{1}, usize{4}}) {
    svc::worker_pool tp(pool);
    std::atomic<usize> ran{0};
    EXPECT_THROW(tp.run_indexed(cells.size(),
                                [&](usize i) {
                                  (void)exp::run(cells[i]);
                                  ran.fetch_add(1, std::memory_order_relaxed);
                                }),
                 std::invalid_argument)
        << "pool " << pool;
    EXPECT_EQ(ran.load(), cells.size() - 1) << "pool " << pool;
    exp::sweep_options opt;
    opt.pool_size = pool;
    EXPECT_THROW((void)exp::sweep(cells, opt), std::invalid_argument);
  }
}

TEST(ExpSweep, PoolSizeReportsWorkersActuallyUsed) {
  const std::vector<exp::run_spec> all = mixed_grid();
  const std::vector<exp::run_spec> one(all.begin(), all.begin() + 1);
  exp::sweep_options opt;
  opt.pool_size = 8;
  EXPECT_EQ(exp::sweep(one, opt).pool_size, 1u);  // single cell runs inline
  exp::sweep_options serial;
  serial.pool_size = 1;
  EXPECT_EQ(exp::sweep(all, serial).pool_size, 1u);
}

TEST(SvcWorkerPool, RunsEveryTaskExactlyOnce) {
  for (const usize workers : {usize{1}, usize{2}, usize{3}, usize{8}}) {
    constexpr usize kTasks = 250;
    std::vector<std::atomic<int>> hits(kTasks);
    svc::worker_pool pool(workers);
    pool.run_indexed(kTasks, [&hits](usize i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (usize i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " workers " << workers;
    }
  }
}

TEST(SvcWorkerPool, StealingDrainsUnbalancedLoads) {
  // One expensive task dealt to worker 0 must not serialize the other 63
  // cheap ones; every task still runs exactly once.
  std::atomic<usize> done{0};
  svc::worker_pool pool(4);
  pool.run_indexed(64, [&done](usize i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 64u);
}

TEST(SvcWorkerPool, FirstExceptionRethrown) {
  svc::worker_pool pool(3);
  EXPECT_THROW(pool.run_indexed(40,
                                [](usize i) {
                                  if (i % 7 == 0) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

}  // namespace
}  // namespace amo
