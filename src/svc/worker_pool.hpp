// svc::worker_pool — the long-lived pool behind every sweep.
//
// The PR 2 engine spawned a fresh set of worker threads inside each
// exp::sweep call; fine for one 3,744-cell grid, wasteful for a service
// that drains thousands of small jobs (thread startup dominates a job of a
// few dozen millisecond-sized cells — measured in bench_pool). This class
// is that pool extracted and made resident: the constructor starts the
// workers once, run_indexed() dispatches one batch onto them, and the
// threads park on a condition variable between batches instead of dying.
//
// Batches overlap. Every run_indexed() call is a batch on one FIFO, and an
// idle worker takes a task of the oldest batch that still has unstarted
// tasks. So every task of an older batch starts before any task of a newer
// one, and a worker left idle by the tail of one job's batch picks up the
// next job's tasks instead of waiting (the serve window, svc/server.hpp,
// keeps several jobs' batches in flight). Each batch keeps its own
// progress, cancel fence and first error. Within a batch, tasks 0..count-1
// are dealt round-robin into one lane per worker up front: worker w takes
// task w, w+k, ... from the front of its own lane and, when that is empty,
// steals from the back of another's. The deal is the same in every batch,
// so a caller that issues many similar batches (the POR frontier's layers)
// finds task i on the same worker, its data still in that core's cache.
// Cells are pure functions of their spec, so results are identical for any
// pool size, interleaving, or pool lifetime — reusing one pool across a
// thousand sweeps produces the same bytes as a thousand fresh pools
// (tested in tests/test_svc_pool.cpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/types.hpp"

namespace amo::svc {

/// Thrown out of run_indexed() when cancel() stopped the batch before
/// every task ran. Tasks already started still finished (cancellation is
/// a between-tasks fence, never a thread kill), so `done` of `total`
/// results are valid — but the batch as a whole is incomplete, which is
/// why this is an exception and not a count: a caller that ignores it
/// would publish a partial sweep as a full one.
struct batch_cancelled : std::runtime_error {
  batch_cancelled(usize done_, usize total_);
  usize done = 0;
  usize total = 0;
};

/// A point-in-time snapshot of one in-flight batch — the heartbeat hook a
/// supervisor (the serve loop's stuck-job watchdog) polls to tell a slow
/// job from a hung one without instrumenting the tasks themselves.
struct pool_progress {
  usize batches = 0;        ///< batches dispatched so far (== batches_run())
  bool active = false;      ///< the snapshot names an in-flight batch
  std::uint64_t id = 0;     ///< that batch's dispatch ordinal (1-based)
  usize tasks_total = 0;    ///< its tasks (0 when idle)
  usize tasks_done = 0;     ///< of those, completed (or skipped) so far
  usize tasks_running = 0;  ///< of those, executing right now
  double batch_seconds = 0; ///< wall time since the batch was dispatched
};

class worker_pool {
 public:
  /// Starts the workers immediately; they idle on a condition variable
  /// until the first batch. `workers == 0` selects
  /// std::thread::hardware_concurrency(); `workers == 1` starts no threads
  /// at all (every batch runs inline on its caller, one batch at a time:
  /// the serial reference mode of the determinism tests).
  explicit worker_pool(usize workers = 0);

  /// Wakes everyone with a stop flag and joins. No batch may be in flight.
  ~worker_pool();

  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;

  [[nodiscard]] usize size() const { return workers_; }

  /// Batches dispatched so far (inline ones included) — the number the
  /// pool has amortized its thread startup over.
  [[nodiscard]] usize batches_run() const;

  /// Snapshot of the oldest in-flight batch, or of the batch `client` is
  /// waiting on inside run_indexed; inactive when there is none. Safe to
  /// call from any thread at any time. Inline batches report too, so a
  /// single-worker pool's watchdog sees real progress.
  [[nodiscard]] pool_progress progress() const;
  [[nodiscard]] pool_progress progress(std::thread::id client) const;

  /// Invokes fn(i) for every i in [0, count) on the pool; returns when all
  /// invocations completed. Runs inline on the caller when the pool has a
  /// single worker, or when count == 1 and no other batch is in flight, so
  /// that at most size() threads ever run tasks. In every mode each task
  /// runs even when some throw; the batch's first exception is rethrown
  /// after it drains. Returns the number of workers the batch was dealt
  /// across (<= size(); 1 for the inline path, 0 when count == 0).
  ///
  /// Callers may overlap: concurrent batches share the workers in FIFO
  /// order (a single-worker pool runs them one after another). Calling it
  /// from inside a pool task deadlocks — jobs that need nested parallelism
  /// must flatten their cells instead.
  ///
  /// Throws batch_cancelled when cancel(id) fired and at least one task was
  /// skipped; a task exception outranks cancellation.
  usize run_indexed(usize count, const std::function<void(usize)>& fn);

  /// Stops batch `id` (a pool_progress::id): its unstarted tasks are
  /// skipped, running tasks finish, and its run_indexed() throws
  /// batch_cancelled once it drains. Other batches are untouched. Safe
  /// from any thread (the serve watchdog's deadline action); a no-op for a
  /// batch that already drained — the fence never arms a future batch.
  void cancel(std::uint64_t id);

 private:
  /// Tasks lane, lane + k, ... of a batch dealt across k lanes: those at
  /// positions [front, back) of the lane are unstarted.
  struct lane {
    usize front = 0;
    usize back = 0;
  };
  struct batch {
    const std::function<void(usize)>* fn = nullptr;
    usize count = 0;
    std::vector<lane> lanes;  ///< one per worker dealt to (one inline)
    usize started = 0;  ///< handed out or skipped; == count once none left
    usize done = 0;     ///< finished or skipped
    usize skipped = 0;  ///< skipped by cancel
    bool worked = false;  ///< run by the workers, not inline
    std::uint64_t id = 0;
    std::thread::id client;
    std::chrono::steady_clock::time_point start;
    std::exception_ptr first_error;
    std::condition_variable drained;
  };

  void worker_main(usize self);
  /// The oldest worked batch with an unstarted task, if a slot is free.
  batch* next_open() const;
  /// Hands worker `self` an unstarted task of b: the front of its own
  /// lane, else the back of the first non-empty other lane (`stolen`).
  static usize take(batch& b, usize self, bool& stolen);
  void skip_rest(batch& b);
  pool_progress snapshot(const batch* b) const;
  /// Runs task i of b outside the lock and accounts for it under `lk`.
  void run_task(batch& b, usize i, std::unique_lock<std::mutex>& lk);

  usize workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for an open batch
  std::condition_variable idle_cv_;  ///< single-worker callers wait their turn
  bool stop_ = false;
  usize batches_ = 0;
  usize running_ = 0;          ///< tasks executing now, inline ones included
  std::deque<batch*> flight_;  ///< in-flight batches, oldest first

  std::vector<std::jthread> threads_;
};

}  // namespace amo::svc
