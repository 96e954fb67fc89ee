#include "svc/worker_pool.hpp"

#include <algorithm>
#include <string>

#include "obs/telemetry.hpp"

namespace amo::svc {

batch_cancelled::batch_cancelled(usize done_, usize total_)
    : std::runtime_error("batch cancelled: " + std::to_string(done_) + " of " +
                         std::to_string(total_) + " tasks done"),
      done(done_),
      total(total_) {}

worker_pool::worker_pool(usize workers) : workers_(workers) {
  if (workers_ == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    workers_ = hc == 0 ? 4 : hc;
  }
  if (workers_ <= 1) return;  // inline mode: no resident threads
  threads_.reserve(workers_);
  for (usize w = 0; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

worker_pool::~worker_pool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // jthread members join on destruction.
}

usize worker_pool::batches_run() const {
  std::lock_guard<std::mutex> lk(mu_);
  return batches_;
}

void worker_pool::skip_rest(batch& b) {
  const usize unstarted = b.count - b.started;
  b.started = b.count;
  b.skipped += unstarted;
  b.done += unstarted;
  if (b.done == b.count) b.drained.notify_one();
}

void worker_pool::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  for (batch* b : flight_) {
    if (b->id == id) skip_rest(*b);
  }
}

pool_progress worker_pool::snapshot(const batch* b) const {
  pool_progress p;
  p.batches = batches_;
  if (b != nullptr) {
    p.active = true;
    p.id = b->id;
    p.tasks_total = b->count;
    p.tasks_done = b->done;
    p.tasks_running = b->started - b->done;
    p.batch_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - b->start)
                          .count();
  }
  return p;
}

pool_progress worker_pool::progress() const {
  std::lock_guard<std::mutex> lk(mu_);
  return snapshot(flight_.empty() ? nullptr : flight_.front());
}

pool_progress worker_pool::progress(std::thread::id client) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const batch* b : flight_) {
    if (b->client == client) return snapshot(b);
  }
  return snapshot(nullptr);
}

worker_pool::batch* worker_pool::next_open() const {
  if (running_ >= workers_) return nullptr;
  for (batch* b : flight_) {
    if (b->worked && b->started < b->count) return b;
  }
  return nullptr;
}

usize worker_pool::take(batch& b, usize self, bool& stolen) {
  const usize k = b.lanes.size();
  ++b.started;
  stolen = self >= k || b.lanes[self].front == b.lanes[self].back;
  if (!stolen) return self + k * b.lanes[self].front++;
  for (usize off = 1;; ++off) {
    lane& victim = b.lanes[(self + off) % k];
    if (victim.front < victim.back) return (self + off) % k + k * --victim.back;
  }
}

void worker_pool::run_task(batch& b, usize i, std::unique_lock<std::mutex>& lk) {
  ++running_;
  lk.unlock();
  std::exception_ptr error;
  try {
    (*b.fn)(i);
  } catch (...) {
    error = std::current_exception();
  }
  lk.lock();
  --running_;
  ++b.done;
  if (error && !b.first_error) b.first_error = error;
  if (b.done == b.count) b.drained.notify_one();
}

usize worker_pool::run_indexed(usize count,
                               const std::function<void(usize)>& fn) {
  if (count == 0) return 0;
  obs::span sp("pool", "batch");
  sp.arg("tasks", static_cast<std::uint64_t>(count));

  batch b;
  b.fn = &fn;
  b.count = count;
  b.client = std::this_thread::get_id();
  b.lanes.resize(std::min(workers_, count));
  std::unique_lock<std::mutex> lk(mu_);
  if (workers_ <= 1) idle_cv_.wait(lk, [this] { return flight_.empty(); });
  // A lone single-task batch runs inline: no hand-off, and no other batch
  // holds a worker, so at most size() threads still run tasks.
  b.worked = workers_ > 1 && !(count == 1 && flight_.empty());
  const usize k = b.worked ? b.lanes.size() : 1;
  b.lanes.resize(k);
  for (usize l = 0; l < k; ++l) b.lanes[l].back = (count - l + k - 1) / k;
  b.id = ++batches_;
  b.start = std::chrono::steady_clock::now();
  flight_.push_back(&b);
  if (b.worked) {
    lk.unlock();
    work_cv_.notify_all();
    lk.lock();
    b.drained.wait(lk, [&b] { return b.done == b.count; });
  } else {
    bool stolen = false;
    while (b.started < b.count) run_task(b, take(b, 0, stolen), lk);
  }
  flight_.erase(std::find(flight_.begin(), flight_.end(), &b));
  if (workers_ <= 1) {
    idle_cv_.notify_one();
  } else if (!b.worked && !flight_.empty()) {
    work_cv_.notify_one();  // a batch that arrived meanwhile gets our slot
  }
  lk.unlock();

  sp.arg("workers", static_cast<std::uint64_t>(k));
  if (b.first_error) std::rethrow_exception(b.first_error);
  if (b.skipped > 0) {
    sp.arg("cancelled", std::string_view("true"));
    throw batch_cancelled(count - b.skipped, count);
  }
  return k;
}

void worker_pool::worker_main(usize self) {
  std::uint64_t steals = 0;  ///< cumulative over this worker's lifetime
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return stop_ || next_open() != nullptr; });
    if (stop_) return;
    // Per wake-up, not once: a tracing session can start mid-lifetime and
    // name_thread is first-write-wins inside one session anyway.
    lk.unlock();
    obs::set_thread_name("pool worker");
    lk.lock();
    while (batch* b = next_open()) {
      bool stolen = false;
      const usize i = take(*b, self, stolen);
      if (stolen) obs::counter("pool", "steals", static_cast<double>(++steals));
      run_task(*b, i, lk);
    }
  }
}

}  // namespace amo::svc
