// The persistent worker pool: batches reuse the same resident threads,
// results are identical whatever the pool lifetime (one pool for many
// sweeps vs a fresh pool per sweep vs serial), errors drain without
// poisoning the pool, and concurrent clients serialize safely.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/engine.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"
#include "svc/worker_pool.hpp"

namespace amo {
namespace {

std::vector<exp::run_spec> small_grid(std::uint64_t salt) {
  std::vector<exp::run_spec> cells;
  for (const char* adversary_name : sim::standard_adversaries()) {
    exp::run_spec s;
    s.label = std::string("pool/") + adversary_name;
    s.algo = exp::algo_family::kk;
    s.n = 129;
    s.m = 3;
    s.crash_budget = 2;
    s.adversary = {adversary_name, salt};
    cells.push_back(std::move(s));
  }
  return cells;
}

std::string dump_json(const exp::sweep_result& result) {
  exp::json_writer json;
  exp::cell_record_rows(result, 0, exp::json_rows(json),
                        /*include_timing=*/false);
  return json.dump();
}

TEST(SvcWorkerPoolPersistence, BatchesReuseOneConstruction) {
  svc::worker_pool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.batches_run(), 0u);
  for (usize batch = 1; batch <= 5; ++batch) {
    constexpr usize kTasks = 40;
    std::vector<std::atomic<int>> hits(kTasks);
    pool.run_indexed(kTasks, [&hits](usize i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (usize i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "batch " << batch << " task " << i;
    }
    EXPECT_EQ(pool.batches_run(), batch);
  }
}

TEST(SvcWorkerPoolPersistence, ReusedPoolSweepsAreByteIdentical) {
  // One resident pool across many sweeps == fresh pool per sweep == serial:
  // the pool's lifetime is invisible in the results.
  svc::worker_pool resident(4);
  exp::sweep_options fresh;
  fresh.pool_size = 4;
  exp::sweep_options serial;
  serial.pool_size = 1;
  for (std::uint64_t salt = 1; salt <= 3; ++salt) {
    const std::vector<exp::run_spec> cells = small_grid(salt);
    const std::string from_resident = dump_json(exp::sweep(cells, resident));
    EXPECT_EQ(from_resident, dump_json(exp::sweep(cells, fresh))) << salt;
    EXPECT_EQ(from_resident, dump_json(exp::sweep(cells, serial))) << salt;
  }
  EXPECT_EQ(resident.batches_run(), 3u);
}

TEST(SvcWorkerPoolPersistence, ErrorsDrainWithoutPoisoningThePool) {
  std::vector<exp::run_spec> cells = small_grid(7);
  cells[2].adversary.name = "no_such_adversary";
  svc::worker_pool pool(4);
  EXPECT_THROW((void)exp::sweep(cells, pool), std::invalid_argument);
  // The same pool keeps serving afterwards.
  const std::vector<exp::run_spec> good = small_grid(8);
  const exp::sweep_result after = exp::sweep(good, pool);
  ASSERT_EQ(after.reports.size(), good.size());
  for (usize i = 0; i < good.size(); ++i) {
    EXPECT_TRUE(exp::equivalent(after.reports[i], exp::run(good[i])));
  }
}

TEST(SvcWorkerPoolPersistence, EveryTaskRunsBeforeTheFirstErrorRethrows) {
  svc::worker_pool pool(3);
  for (int round = 0; round < 2; ++round) {
    std::atomic<usize> ran{0};
    EXPECT_THROW(pool.run_indexed(40,
                                  [&ran](usize i) {
                                    ran.fetch_add(1, std::memory_order_relaxed);
                                    if (i % 7 == 0) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
                 std::runtime_error)
        << "round " << round;
    EXPECT_EQ(ran.load(), 40u) << "round " << round;
  }
}

TEST(SvcWorkerPoolPersistence, ConcurrentClientsSerializeSafely) {
  svc::worker_pool pool(2);
  constexpr usize kClients = 4;
  constexpr usize kTasks = 64;
  std::vector<std::atomic<int>> hits(kClients * kTasks);
  {
    std::vector<std::jthread> clients;
    clients.reserve(kClients);
    for (usize c = 0; c < kClients; ++c) {
      clients.emplace_back([&pool, &hits, c] {
        pool.run_indexed(kTasks, [&hits, c](usize i) {
          hits[c * kTasks + i].fetch_add(1, std::memory_order_relaxed);
        });
      });
    }
  }
  for (usize i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
  EXPECT_EQ(pool.batches_run(), kClients);
}

TEST(SvcWorkerPoolPersistence, ProgressSnapshotsTrackTheBatchLifecycle) {
  svc::worker_pool pool(3);
  svc::pool_progress idle = pool.progress();
  EXPECT_FALSE(idle.active);
  EXPECT_EQ(idle.batches, 0u);
  EXPECT_EQ(idle.tasks_total, 0u);

  // Observe the pool mid-batch from outside: workers block on a gate until
  // the observer has seen an active snapshot with believable counters.
  std::atomic<bool> release{false};
  std::atomic<usize> started{0};
  constexpr usize kTasks = 12;
  std::jthread observer([&] {
    while (started.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    const svc::pool_progress mid = pool.progress();
    EXPECT_TRUE(mid.active);
    EXPECT_EQ(mid.tasks_total, kTasks);
    EXPECT_LE(mid.tasks_done, kTasks);
    EXPECT_GE(mid.batch_seconds, 0.0);
    release.store(true, std::memory_order_release);
  });
  pool.run_indexed(kTasks, [&](usize) {
    started.fetch_add(1, std::memory_order_acq_rel);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  observer.join();

  const svc::pool_progress after = pool.progress();
  EXPECT_FALSE(after.active);
  EXPECT_EQ(after.batches, 1u);
  EXPECT_EQ(after.tasks_total, 0u);
}

TEST(SvcWorkerPoolPersistence, InlinePoolReportsProgressToo) {
  // The serial path updates the same counters, so a single-worker serve
  // still feeds the heartbeat watchdog: observed from a second thread
  // while the inline batch runs.
  svc::worker_pool pool(1);
  std::atomic<bool> observed{false};
  std::atomic<bool> in_task{false};
  std::jthread observer([&] {
    while (!in_task.load(std::memory_order_acquire)) std::this_thread::yield();
    const svc::pool_progress mid = pool.progress();
    EXPECT_TRUE(mid.active);
    EXPECT_EQ(mid.tasks_total, 4u);
    observed.store(true, std::memory_order_release);
  });
  pool.run_indexed(4, [&](usize) {
    in_task.store(true, std::memory_order_release);
    while (!observed.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  observer.join();
  EXPECT_FALSE(pool.progress().active);
}

TEST(SvcWorkerPoolPersistence, PoolSurvivesAThrowingJobAndKeepsReporting) {
  // A job that throws must neither wedge the pool nor corrupt the progress
  // counters the watchdog reads next.
  svc::worker_pool pool(3);
  EXPECT_THROW(pool.run_indexed(9,
                                [](usize i) {
                                  if (i == 4) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  const svc::pool_progress after = pool.progress();
  EXPECT_FALSE(after.active);
  EXPECT_EQ(after.batches, 1u);
  std::atomic<usize> ran{0};
  pool.run_indexed(9, [&ran](usize) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 9u);
  EXPECT_EQ(pool.progress().batches, 2u);
}

TEST(SvcWorkerPoolPersistence, SingleWorkerRunsInline) {
  svc::worker_pool pool(1);
  const std::thread::id self = std::this_thread::get_id();
  bool on_caller = true;
  pool.run_indexed(8, [&](usize) {
    on_caller = on_caller && std::this_thread::get_id() == self;
  });
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(pool.run_indexed(0, [](usize) {}), 0u);
  // count == 1 runs inline even on a threaded pool.
  svc::worker_pool threaded(4);
  bool one_inline = false;
  EXPECT_EQ(threaded.run_indexed(1,
                                 [&](usize) {
                                   one_inline =
                                       std::this_thread::get_id() == self;
                                 }),
            1u);
  EXPECT_TRUE(one_inline);
}

}  // namespace
}  // namespace amo
