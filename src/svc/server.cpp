#include "svc/server.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "obs/telemetry.hpp"
#include "svc/fault.hpp"
#include "svc/job_queue.hpp"
#include "svc/worker_pool.hpp"
#include "util/fileio.hpp"
#include "util/stopwatch.hpp"

namespace amo::svc {

namespace {

std::string job_tag(const job& j) {
  std::string tag = "job";
  if (j.line != 0) tag += " @" + std::to_string(j.line);
  for (const std::string& name : j.scenarios) tag += " " + name;
  if (j.have_shard) tag += " shard=" + exp::to_string(j.shard);
  return tag;
}

/// One job through write-out and logging; shared by batch and serve.
void finish_job(const job_result& r, const server_options& opt,
                std::FILE* stream, std::FILE* log, serve_summary& sum) {
  ++sum.jobs;
  if (!r.ok()) {
    ++sum.failed;
    if (r.timed_out) ++sum.timeouts;
    std::fprintf(log, "%s: %s %s\n", job_tag(r.j).c_str(),
                 r.timed_out ? "TIMEOUT" : "ERROR", r.error.c_str());
    return;
  }
  if (!r.safe) ++sum.unsafe;

  {
    obs::span wsp("svc", "write");
    if (!r.j.out.empty()) {
      wsp.arg("out", std::string_view(r.j.out));
      // Through the fault-aware artifact writer (atomic when no $AMO_FAULT
      // action fires), keyed the way the fault plane addresses jobs: by
      // owned shard, else by submission line.
      const std::uint64_t key =
          r.j.have_shard ? std::uint64_t{r.j.shard.index} : std::uint64_t{r.j.line};
      std::string content;
      std::string werr;
      if (!r.render_output(job_output_format(r.j), content, werr) ||
          !write_artifact(r.j.out.c_str(), content, key, werr)) {
        ++sum.io_errors;
        std::fprintf(log, "%s: %s\n", job_tag(r.j).c_str(), werr.c_str());
      }
    } else {
      // Jobs without out= stream as JSON text (job_output_format is json
      // whenever out= is empty; parse_job_line enforces it).
      const std::string json = r.render_json();
      std::fputs(json.c_str(), stream);
      std::fflush(stream);
    }
  }

  if (!opt.quiet) {
    std::fprintf(log, "%s: %zu/%zu units on %zu workers in %.2fs "
                      "(queued %.3fs), at-most-once: %s%s%s\n",
                 job_tag(r.j).c_str(), r.runs().size(), r.units_total,
                 r.pool_used, r.wall_seconds, r.queue_seconds,
                 r.safe ? "yes" : "VIOLATED",
                 r.j.out.empty() ? "" : " -> ",
                 r.j.out.empty() ? "" : r.j.out.c_str());
  }
}

/// Runtime duplicate-out guard (parse_batch refuses these up front; serve
/// streams, so it can only catch them as jobs arrive).
bool claim_out_path(const job& j, std::unordered_set<std::string>& used,
                    job_result& failed_result) {
  if (j.out.empty() || used.insert(j.out).second) return true;
  failed_result.j = j;
  failed_result.error =
      "duplicate output path '" + j.out + "' within this session";
  return false;
}

/// Streams the job's output rows to `sink`, one cell group at a time, for
/// either format; false iff the sink stopped them.
bool output_rows(const job_result& r, const exp::row_group_sink& sink) {
  // Per-job observability (wall + queue latency): timing fields by the
  // shared schema's rules, so they ride on timing runs only — no-timing
  // output stays byte-reproducible — and exp::report_diff ignores them.
  exp::extra_fields extra;
  if (!r.j.no_timing) {
    extra.emplace_back("job_wall_seconds",
                       exp::typed_value::f64(r.wall_seconds));
    extra.emplace_back("job_queue_seconds",
                       exp::typed_value::f64(r.queue_seconds));
  }
  if (r.sharded) {
    return exp::unit_record_rows(r.unit_reports, r.units, r.units_total,
                                 r.cells_total, r.grid, sink,
                                 /*include_timing=*/!r.j.no_timing, extra);
  }
  return exp::cell_record_rows(r.swept, r.grid, sink,
                               /*include_timing=*/!r.j.no_timing, extra);
}

/// The in-order job window serve and run_jobs share. Up to pool.size()
/// jobs are in flight at once, each executing on one of pool.size() job
/// threads, so the pool overlaps their batches and keeps its workers busy
/// across job boundaries; the caller finishes them (render, write, stream,
/// log) strictly in submission order. A job holds its slot until it is
/// finished, so with a one-worker pool the window is a sequential loop.
class job_window {
 public:
  explicit job_window(worker_pool& pool) : pool_(pool) {}

  /// Runs jobs from `next` until it reports none: pool.size() job threads
  /// take turns to claim a slot and the next job, in submission order, and
  /// execute it; the calling thread finishes each with `finish` in that
  /// order.
  template <class Next, class Finish>
  void drain(Next&& next, Finish&& finish) {
    std::unordered_set<std::string> used_out;  // under take_mu_
    std::vector<std::jthread> runners;
    runners.reserve(pool_.size());
    for (usize i = 0; i < pool_.size(); ++i) {
      runners.emplace_back([&] {
        obs::set_thread_name("serve job");
        run(next, used_out);
      });
    }
    while (finish_next(finish)) {
    }
  }

  /// f(seq, tag, thread) for every job still executing, oldest first,
  /// under the window's lock: a job thread runs one job at a time, so
  /// while the job is executing its thread's pool batch is the job's.
  template <class F>
  void each_running(F&& f) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::unique_ptr<slot>& s : slots_) {
      if (!s->done) f(s->seq, s->tag, s->thread);
    }
  }

 private:
  struct slot {
    std::uint64_t seq = 0;
    std::string tag;
    std::thread::id thread;  ///< the job thread executing it
    job_result r;            ///< written once, under mu_, before done
    bool done = false;
  };

  /// One job thread's loop. Taking a job (slot wait, next(), out= claim)
  /// happens under take_mu_, so slots follow submission order.
  template <class Next>
  void run(Next& next, std::unordered_set<std::string>& used_out) {
    for (;;) {
      job j;
      double queued_seconds = 0.0;
      slot* s = nullptr;
      {
        std::lock_guard<std::mutex> take(take_mu_);
        {
          std::unique_lock<std::mutex> lk(mu_);
          slot_cv_.wait(lk, [this] {
            return closed_ || slots_.size() < pool_.size();
          });
          if (closed_) return;
        }
        if (!next(j, queued_seconds)) {
          {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
          }
          slot_cv_.notify_all();
          done_cv_.notify_one();
          return;
        }
        auto taken = std::make_unique<slot>();
        taken->tag = job_tag(j);
        taken->thread = std::this_thread::get_id();
        // A job whose out= claim fails enters the window already failed.
        taken->done = !claim_out_path(j, used_out, taken->r);
        taken->r.queue_seconds = queued_seconds;
        s = taken.get();
        {
          std::lock_guard<std::mutex> lk(mu_);
          taken->seq = ++started_;
          slots_.push_back(std::move(taken));
        }
        if (s->done) {
          done_cv_.notify_one();
          continue;
        }
      }
      job_result r = execute_job(j, pool_);
      r.queue_seconds = queued_seconds;
      {
        std::lock_guard<std::mutex> lk(mu_);
        s->r = std::move(r);
        s->done = true;
      }
      done_cv_.notify_one();
    }
  }

  /// Waits for the oldest job, hands its result to `finish`, then frees
  /// its slot. False once the jobs ran out and the window drained.
  template <class Finish>
  bool finish_next(Finish& finish) {
    slot* s = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait(lk, [this] {
        return slots_.empty() ? closed_ : slots_.front()->done;
      });
      if (slots_.empty()) return false;
      s = slots_.front().get();
    }
    finish(s->r);
    {
      std::lock_guard<std::mutex> lk(mu_);
      slots_.pop_front();
    }
    slot_cv_.notify_one();
    return true;
  }

  worker_pool& pool_;
  std::mutex take_mu_;  ///< one job thread takes the next job at a time
  mutable std::mutex mu_;
  std::condition_variable done_cv_;  ///< the finisher waits for the oldest
  std::condition_variable slot_cv_;  ///< the taker waits for a free slot
  std::deque<std::unique_ptr<slot>> slots_;  ///< submission order
  std::uint64_t started_ = 0;
  bool closed_ = false;
};

}  // namespace

std::string job_result::render_json() const {
  exp::json_writer json;
  output_rows(*this, exp::json_rows(json));
  return json.dump();
}

bool job_result::render_output(exp::record_format format, std::string& out,
                               std::string& error) const {
  obs::span rsp("record", "render");
  if (format == exp::record_format::json) {
    out = render_json();
    return true;
  }
  // Each cell's typed rows go straight into a column chunk, and only the
  // bytes are kept; decoding the .amoc artifact reproduces render_json's
  // tokens, so converting it back to JSON yields render_json's bytes.
  exp::colfmt_encoder enc(out,
                          sharded ? unit_reports.size() : swept.cells.size());
  if (!output_rows(*this, [&](const exp::record_table& group) {
        return enc.add(group, error);
      })) {
    error = "cannot encode output: " + error;
    return false;
  }
  enc.finish();
  rsp.arg("chunks", enc.header().chunk_count);
  return true;
}

job_result execute_job(const job& j, worker_pool& pool) {
  job_result r;
  r.j = j;

  std::vector<exp::run_spec> all;
  try {
    for (const std::string& name : j.scenarios) {
      const std::vector<exp::run_spec> c = exp::scenario_cells(name, j.params);
      all.insert(all.end(), c.begin(), c.end());
    }
  } catch (const std::exception& e) {
    r.error = e.what();
    return r;
  }
  if (j.scheduled_only) {
    std::erase_if(all, [](const exp::run_spec& s) {
      return s.driver != exp::driver_kind::scheduled;
    });
  }
  if (all.empty()) {
    r.error = "no cells to run";
    return r;
  }

  r.cells_total = all.size();
  r.units_total = exp::unit_count(all);
  r.grid = exp::grid_fingerprint(all);
  // Every --shard job writes unit records, 0/1 (the whole grid) included,
  // so a shard file always has the one schema merge and the dispatcher's
  // verification read; merging a lone 0/1 shard re-folds it into the
  // unsharded job's bytes.
  r.sharded = j.have_shard;

  obs::span jsp("svc", "job");
  jsp.arg("cells", static_cast<std::uint64_t>(r.cells_total));
  jsp.arg("units", static_cast<std::uint64_t>(r.units_total));

  try {
    if (r.sharded) {
      // A strict slice of the replica-expanded unit space: run exactly the
      // owned (cell, replica) units through the sweep layer's shared unit
      // kernel — replicas steal across workers like cells do — and leave
      // the re-fold to merge.
      r.units = exp::shard_units(all, j.shard);
      stopwatch clock;
      exp::unit_run_result ur = exp::run_units(all, r.units, pool);
      r.unit_reports = std::move(ur.reports);
      r.pool_used = ur.pool_size;
      r.wall_seconds = clock.seconds();
    } else {
      r.swept = exp::sweep(all, pool);
      r.pool_used = r.swept.pool_size;
      r.wall_seconds = r.swept.wall_seconds;
    }
  } catch (const batch_cancelled& e) {
    // The stall watchdog's deadline action: the partial results are
    // discarded (a partial sweep must never render as a full one) and the
    // job fails with the timeout class.
    r.timed_out = true;
    r.error = std::string("deadline action cancelled the batch (") + e.what() +
              ")";
    r.swept = {};
    r.unit_reports.clear();
    r.units.clear();
    jsp.arg("status", std::string_view("timeout"));
    return r;
  } catch (const std::exception& e) {
    r.error = e.what();
    r.swept = {};
    r.unit_reports.clear();
    r.units.clear();
    return r;
  }
  for (const exp::run_report& rep : r.runs()) r.safe = r.safe && rep.at_most_once;
  return r;
}

int serve_summary::exit_code() const {
  if (rejected > 0 || failed > 0) return 2;
  if (io_errors > 0) return 3;
  if (unsafe > 0) return 1;
  return 0;
}

serve_summary run_jobs(const std::vector<job>& jobs, worker_pool& pool,
                       const server_options& opt) {
  serve_summary sum;
  std::FILE* stream = opt.stream != nullptr ? opt.stream : stdout;
  std::FILE* log = opt.log != nullptr ? opt.log : stderr;
  job_window window(pool);
  usize next = 0;
  window.drain(
      [&](job& j, double& queued_seconds) {
        if (next == jobs.size()) return false;
        j = jobs[next++];
        queued_seconds = 0.0;
        return true;
      },
      [&](const job_result& r) { finish_job(r, opt, stream, log, sum); });
  return sum;
}

serve_summary serve(std::istream& in, worker_pool& pool,
                    const server_options& opt) {
  serve_summary sum;
  std::FILE* stream = opt.stream != nullptr ? opt.stream : stdout;
  std::FILE* log = opt.log != nullptr ? opt.log : stderr;

  job_queue queue;
  std::mutex reject_mu;  // guards sum.rejected + log writes from the reader
  std::jthread reader([&] {
    obs::set_thread_name("serve reader");
    std::string line;
    usize line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      job j;
      bool has_job = false;
      std::string error;
      bool ok = false;
      {
        obs::span psp("svc", "parse_job");
        ok = parse_job_line(line, line_no, j, has_job, error);
      }
      if (!ok) {
        std::lock_guard<std::mutex> lk(reject_mu);
        ++sum.rejected;
        std::fprintf(log, "serve: %s\n", error.c_str());
        continue;
      }
      if (has_job) queue.push(j);
    }
    queue.close();
  });

  job_window window(pool);

  // Progress watchdog: a long-running serve must be able to tell a big job
  // from a stuck one. Every beat it reads the progress snapshot of each
  // executing job's pool batch and names the oldest executing job; an
  // unmoved unit counter between two beats is called out as possibly stuck
  // (the units themselves are deterministic compute — no progress means no
  // progress). With stall_s set the watchdog additionally has a deadline
  // action: once a job's counter has not moved for stall_s while its batch
  // has units running, it cancels that job's batch alone, failing the job
  // with the timeout class instead of letting it hang forever. A batch
  // waiting behind older jobs' units is not stalled.
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::jthread watchdog;
  if (opt.heartbeat_s > 0 || opt.stall_s > 0) {
    // The beat must sample at least twice per stall window or a stall
    // could go a full extra beat undetected.
    double beat = opt.heartbeat_s > 0 ? opt.heartbeat_s : opt.stall_s / 2;
    if (opt.stall_s > 0 && opt.stall_s / 2 < beat) beat = opt.stall_s / 2;
    watchdog = std::jthread([&, beat] {
      obs::set_thread_name("serve watchdog");
      using clock = std::chrono::steady_clock;
      struct stall_state {
        std::uint64_t batch = 0;
        usize done = 0;
        clock::time_point change;
      };
      struct sample {
        std::string tag;
        pool_progress p;
        bool stuck = false;
        bool cancelled = false;
        double stalled_for = 0.0;
      };
      std::map<std::uint64_t, stall_state> stalls;  // by job, in flight only
      double since_report = opt.heartbeat_s;  // first beat always reports
      const auto report = [&](const sample* s) {
        if (opt.json_heartbeat) {
          std::string line = "{\"heartbeat\":true";
          if (s == nullptr) {
            line += ",\"idle\":true";
          } else {
            line += ",\"job\":" + exp::json_writer::str(s->tag);
            line += ",\"units_done\":" + std::to_string(s->p.tasks_done);
            line += ",\"units_total\":" + std::to_string(s->p.tasks_total);
            line += ",\"workers\":" + std::to_string(pool.size());
            line += ",\"batch_seconds\":" +
                    exp::json_writer::num(s->p.batch_seconds);
            line += ",\"stalled\":";
            line += s->stuck ? "true" : "false";
            if (s->cancelled) {
              line += ",\"action\":\"cancel\",\"stalled_seconds\":" +
                      exp::json_writer::num(s->stalled_for);
            }
          }
          line += "}\n";
          std::fputs(line.c_str(), log);
        } else if (s == nullptr) {
          std::fprintf(log, "serve: heartbeat: idle\n");
        } else if (s->cancelled) {
          std::fprintf(log,
                       "serve: heartbeat: %s: NO PROGRESS for %.1fs at "
                       "%zu/%zu units — cancelling batch (stall_s=%g)\n",
                       s->tag.c_str(), s->stalled_for, s->p.tasks_done,
                       s->p.tasks_total, opt.stall_s);
        } else {
          std::fprintf(log,
                       "serve: heartbeat: %s: %zu/%zu units on %zu workers, "
                       "%.1fs in batch%s\n",
                       s->tag.c_str(), s->p.tasks_done, s->p.tasks_total,
                       pool.size(), s->p.batch_seconds,
                       s->stuck ? " — NO PROGRESS since last heartbeat" : "");
        }
      };
      std::unique_lock<std::mutex> lk(hb_mu);
      while (!hb_cv.wait_for(lk, std::chrono::duration<double>(beat),
                             [&] { return hb_stop; })) {
        lk.unlock();
        const auto now = clock::now();
        since_report += beat;
        const bool report_due =
            opt.heartbeat_s > 0 && since_report + 1e-9 >= opt.heartbeat_s;
        std::vector<sample> jobs;  // executing, oldest first
        std::map<std::uint64_t, stall_state> seen;
        window.each_running([&](std::uint64_t seq, const std::string& tag,
                                std::thread::id thread) {
          sample s{tag, pool.progress(thread)};
          const auto it = stalls.find(seq);
          stall_state st = it == stalls.end()
                               ? stall_state{s.p.id, s.p.tasks_done, now}
                               : it->second;
          s.stuck = it != stalls.end() && st.batch == s.p.id &&
                    st.done == s.p.tasks_done;
          if (!s.stuck || s.p.tasks_running == 0) st.change = now;
          s.stalled_for = std::chrono::duration<double>(now - st.change).count();
          if (opt.stall_s > 0 && s.p.active && s.stalled_for >= opt.stall_s) {
            pool.cancel(s.p.id);
            s.cancelled = true;
            st.change = now;  // one action per stall, not one per beat
          }
          st.batch = s.p.id;
          st.done = s.p.tasks_done;
          seen.emplace(seq, st);
          jobs.push_back(std::move(s));
        });
        stalls = std::move(seen);
        bool reported = false;
        for (const sample& s : jobs) {
          if (!s.cancelled) continue;
          obs::instant("svc", "stall_cancel", {{"job", s.tag}});
          report(&s);
          reported = true;
        }
        if (report_due && !reported) {
          report(jobs.empty() ? nullptr : &jobs.front());
          reported = true;
        }
        if (reported) since_report = 0;
        lk.lock();
      }
    });
  }

  window.drain(
      [&](job& j, double& queued_seconds) {
        if (!queue.pop(j, queued_seconds)) return false;
        obs::counter("svc", "queue_seconds", queued_seconds);
        return true;
      },
      [&](const job_result& r) {
        // finish_job touches sum.jobs/failed/... — reader only touches
        // sum.rejected, and only under reject_mu; take it here too so the
        // final summary read (after join) sees a consistent struct.
        std::lock_guard<std::mutex> lk(reject_mu);
        finish_job(r, opt, stream, log, sum);
      });
  {
    std::lock_guard<std::mutex> lk(hb_mu);
    hb_stop = true;
  }
  hb_cv.notify_all();
  return sum;
}

}  // namespace amo::svc
