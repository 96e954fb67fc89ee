// The persistent worker pool: batches reuse the same resident threads,
// results are identical whatever the pool lifetime (one pool for many
// sweeps vs a fresh pool per sweep vs serial), errors drain without
// poisoning the pool, and concurrent clients' batches overlap: oldest
// batch first, at most size() tasks at once, each batch with its own
// progress and cancel fence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

TEST(SvcWorkerPoolPersistence, ConcurrentClientsShareThePoolSafely) {
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

/// Spins until `done()` holds; false after five seconds (a pool that never
/// got there fails the test instead of hanging it).
template <class Done>
bool wait_until(Done&& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Snapshot of the batch `client` is waiting on, once one is in flight.
svc::pool_progress batch_of(const svc::worker_pool& pool,
                            std::thread::id client) {
  svc::pool_progress p;
  EXPECT_TRUE(wait_until([&] { return (p = pool.progress(client)).active; }));
  return p;
}

TEST(SvcWorkerPoolOverlap, EveryTaskOfAnOlderBatchStartsFirst) {
  // Batch A is in flight with most of its tasks unstarted when batch B
  // arrives; the workers hand out all of A's tasks before any of B's.
  svc::worker_pool pool(3);
  constexpr usize kOlder = 48;
  constexpr usize kNewer = 12;
  std::atomic<usize> ticket{0};
  std::vector<usize> older_start(kOlder);
  std::vector<usize> newer_start(kNewer);
  std::atomic<bool> newer_queued{false};
  std::jthread older([&] {
    pool.run_indexed(kOlder, [&](usize i) {
      older_start[i] = ticket.fetch_add(1);
      // Hold the first tasks until B is queued behind A.
      while (!newer_queued.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  });
  ASSERT_TRUE(wait_until([&] { return ticket.load() > 0; }));
  std::jthread newer([&] {
    pool.run_indexed(kNewer, [&](usize i) { newer_start[i] = ticket.fetch_add(1); });
  });
  (void)batch_of(pool, newer.get_id());
  newer_queued.store(true);
  older.join();
  newer.join();
  const usize last_older =
      *std::max_element(older_start.begin(), older_start.end());
  const usize first_newer =
      *std::min_element(newer_start.begin(), newer_start.end());
  EXPECT_LT(last_older, first_newer);
  EXPECT_EQ(ticket.load(), kOlder + kNewer);
}

TEST(SvcWorkerPoolOverlap, AtMostSizeTasksRunAtOnceInlineOnesIncluded) {
  // A lone single-task batch runs inline on its caller and holds one of
  // the three slots while two batches arrive behind it: the workers may
  // use the other two only.
  svc::worker_pool pool(3);
  std::atomic<usize> running{0};
  std::atomic<usize> peak{0};
  std::atomic<usize> others_started{0};
  const auto enter = [&] {
    const usize now = running.fetch_add(1) + 1;
    usize seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  };
  std::atomic<bool> inline_holding{false};
  bool inline_on_caller = false;
  std::jthread lone([&] {
    const std::thread::id self = std::this_thread::get_id();
    pool.run_indexed(1, [&](usize) {
      enter();
      inline_on_caller = std::this_thread::get_id() == self;
      inline_holding.store(true);
      // Overlap the workers: wait for two of the other batches' tasks.
      EXPECT_TRUE(wait_until([&] { return others_started.load() >= 2; }));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      running.fetch_sub(1);
    });
  });
  ASSERT_TRUE(wait_until([&] { return inline_holding.load(); }));
  std::vector<std::jthread> clients;
  for (usize c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      pool.run_indexed(24, [&](usize) {
        enter();
        others_started.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        running.fetch_sub(1);
      });
    });
  }
  lone.join();
  clients.clear();
  EXPECT_TRUE(inline_on_caller);
  EXPECT_EQ(others_started.load(), 48u);
  EXPECT_LE(peak.load(), 3u);
  EXPECT_GE(peak.load(), 2u);  // the inline task overlapped the workers'

  // A single-worker pool runs concurrent callers' batches one at a time.
  svc::worker_pool serial(1);
  running = 0;
  peak = 0;
  {
    std::vector<std::jthread> callers;
    for (usize c = 0; c < 3; ++c) {
      callers.emplace_back([&] {
        serial.run_indexed(8, [&](usize) {
          enter();
          std::this_thread::sleep_for(std::chrono::microseconds(300));
          running.fetch_sub(1);
        });
      });
    }
  }
  EXPECT_EQ(peak.load(), 1u);
  EXPECT_EQ(serial.batches_run(), 3u);
}

TEST(SvcWorkerPoolOverlap, CancellingOneBatchLeavesAConcurrentBatchComplete) {
  svc::worker_pool pool(2);
  constexpr usize kDoomed = 200;
  constexpr usize kKept = 30;
  std::atomic<usize> doomed_ran{0};
  std::atomic<usize> kept_ran{0};
  bool cancelled = false;
  usize cancelled_done = 0;
  std::jthread doomed([&] {
    try {
      pool.run_indexed(kDoomed, [&](usize) {
        doomed_ran.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
    } catch (const svc::batch_cancelled& e) {
      cancelled = true;
      cancelled_done = e.done;
    }
  });
  const svc::pool_progress target = batch_of(pool, doomed.get_id());
  std::jthread kept([&] {
    pool.run_indexed(kKept, [&](usize) { kept_ran.fetch_add(1); });
  });
  const svc::pool_progress other = batch_of(pool, kept.get_id());
  EXPECT_NE(other.id, target.id);
  pool.cancel(target.id);
  doomed.join();
  kept.join();
  EXPECT_TRUE(cancelled);
  EXPECT_LT(doomed_ran.load(), kDoomed);
  EXPECT_EQ(cancelled_done, doomed_ran.load());
  EXPECT_EQ(kept_ran.load(), kKept);  // the other batch ran to the end
  // A cancel naming a drained batch arms nothing.
  pool.cancel(target.id);
  std::atomic<usize> after{0};
  pool.run_indexed(10, [&](usize) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10u);
}

TEST(SvcWorkerPoolOverlap, ProgressIsReportedPerBatch) {
  svc::worker_pool pool(2);
  std::atomic<bool> release{false};
  std::jthread first([&] {
    pool.run_indexed(6, [&](usize i) {
      if (i < 2) return;
      while (!release.load()) std::this_thread::yield();
    });
  });
  ASSERT_TRUE(wait_until([&] {
    const svc::pool_progress p = pool.progress(first.get_id());
    return p.tasks_done == 2 && p.tasks_running == 2;
  }));
  std::jthread second([&] {
    pool.run_indexed(9, [&](usize) {
      while (!release.load()) std::this_thread::yield();
    });
  });
  const svc::pool_progress b = batch_of(pool, second.get_id());
  const svc::pool_progress a = pool.progress(first.get_id());
  ASSERT_TRUE(a.active);
  EXPECT_EQ(a.tasks_total, 6u);
  EXPECT_EQ(a.tasks_done, 2u);
  EXPECT_EQ(a.tasks_running, 2u);  // both workers hold its gated tasks
  EXPECT_EQ(b.tasks_total, 9u);
  EXPECT_EQ(b.tasks_done, 0u);
  EXPECT_EQ(b.tasks_running, 0u);  // queued behind the older batch
  EXPECT_LT(a.id, b.id);
  EXPECT_EQ(pool.progress().id, a.id);  // the oldest in flight
  EXPECT_EQ(a.batches, 2u);
  release.store(true);
  first.join();
  second.join();
  EXPECT_FALSE(pool.progress().active);
  EXPECT_FALSE(pool.progress(first.get_id()).active);
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
