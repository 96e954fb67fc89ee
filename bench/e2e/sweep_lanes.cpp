// sweep_lanes — one replicated sweep of seeded KK_beta schedules through the
// path `amo_lab run ... --out=F` takes: execute_job -> render_output ->
// write_artifact. Seeded adversaries are the lane kernel's class, so
// exp::run_replica_block, sets/lane_free_set and the pool do nearly all the
// work; records and subprocesses cost almost nothing.
#include <optional>

#include "e2e.hpp"
#include "exp/batch.hpp"
#include "exp/registry.hpp"
#include "svc/fault.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"

namespace e2e {

using namespace amo;

namespace {

/// What one repetition produced. Its counts are deterministic in the seed.
struct rep_out {
  double setup_s = 0.0;
  double op_s = 0.0;
  double stolen = 0.0;         ///< host steal share while the rep ran
  usize units = 0;
  double steps = 0.0;          ///< Σ total_steps (core automaton steps)
  double batched_steps = 0.0;  ///< of those, in lane-kernel cells
  double charged_ops = 0.0;    ///< Σ total_work.total() (sets + shared memory)
  std::string bytes;
};

rep_out one_rep(const std::string& line, report& r) {
  rep_out o;
  const cpu_ticks c0 = read_cpu_ticks();
  obs::span root(kCat, "rep");
  const double t0 = now_s();
  std::optional<svc::worker_pool> pool;
  {
    obs::span sp(kCat, "svc.worker_pool.start");
    pool.emplace(kWorkers);
  }
  svc::job j;
  bool has_job = false;
  std::string error;
  {
    obs::span sp(kCat, "svc.parse_job_line");
    r.check(svc::parse_job_line(line, 1, j, has_job, error),
            "sweep job line: ", error);
  }
  std::vector<exp::run_spec> cells;
  {
    obs::span sp(kCat, "exp.registry.expand");
    for (const std::string& name : j.scenarios) {
      const std::vector<exp::run_spec> c = exp::scenario_cells(name, j.params);
      cells.insert(cells.end(), c.begin(), c.end());
    }
  }
  o.units = exp::unit_count(cells);
  const double t1 = now_s();
  svc::job_result res;
  {
    obs::span sp(kCat, "svc.execute_job");
    res = svc::execute_job(j, *pool);
  }
  {
    obs::span sp(kCat, "svc.render_output");
    r.check(res.ok(), "sweep job: ", res.error);
    r.check(res.render_output(svc::job_output_format(j), o.bytes, error),
            "sweep render: ", error);
  }
  {
    obs::span sp(kCat, "svc.write_artifact");
    r.check(svc::write_artifact(j.out.c_str(), o.bytes, 0, error),
            "sweep write: ", error);
  }
  const double t2 = now_s();
  o.stolen = stolen_share(c0, read_cpu_ticks());
  {
    obs::span sp(kCat, "svc.worker_pool.stop");
    pool.reset();
  }
  o.setup_s = t1 - t0;
  o.op_s = t2 - t1;

  r.attempted += o.units;
  r.check(res.runs().size() == o.units, "sweep ran " +
                                            std::to_string(res.runs().size()) +
                                            " of " + std::to_string(o.units) +
                                            " units");
  for (usize c = 0; c < res.swept.cells.size() && c < cells.size(); ++c) {
    const exp::cell_report& cr = res.swept.cells[c];
    for (usize k = 0; k < cr.replicas; ++k) {
      const exp::run_report& rep = res.swept.reports[cr.first + k];
      std::string why;
      r.check(report_ok(rep, why), "sweep_lanes: ", why);
      o.steps += static_cast<double>(rep.total_steps);
      o.charged_ops += static_cast<double>(rep.total_work.total());
      if (exp::batchable(cells[c])) {
        o.batched_steps += static_cast<double>(rep.total_steps);
      }
    }
  }
  return o;
}

struct pass_out {
  rep_times times;
  rep_out first;        ///< the warm-up repetition: the byte reference
  double rss_mb = 0.0;  ///< peak RSS after it: one sweep in a fresh process
};

pass_out run_pass(const std::string& line, double seconds, report& r) {
  pass_out p;
  const double start = now_s();
  p.first = one_rep(line, r);  // warms caches and the allocator; not timed
  p.rss_mb = peak_rss_mb();
  do {
    rep_out o = one_rep(line, r);
    p.times.add(o.setup_s, o.op_s, o.stolen);
    r.check(o.bytes == p.first.bytes,
            "sweep_lanes: repetition output differs from the first");
  } while (!p.times.done(start, seconds));
  return p;
}

}  // namespace

void run_sweep_lanes(const options& opt, report& r) {
  // n=2048 keeps one repetition near 0.6 s on 3 workers, so a run holds
  // enough repetitions for a steady median; 48 cells on 3 workers keeps
  // load balance visible.
  const usize n = opt.smoke ? 256 : 2048;
  const usize seeds = opt.smoke ? 2 : 16;
  const usize replicas = opt.smoke ? 4 : 32;
  const std::string line =
      "kk/random kk/random+crash kk/block4 n=" + std::to_string(n) +
      " m=8 seed=" + std::to_string(1000 * opt.seed + 1) +
      " seeds=" + std::to_string(seeds) + " replicas=" +
      std::to_string(replicas) + " no-timing out=" + opt.workdir +
      "/sweep_lanes.json";

  const double untraced_s = opt.traced ? opt.seconds / 2 : opt.seconds;
  const pass_out base = run_pass(line, untraced_s, r);
  const auto [op, setup] = base.times.medians(r);
  r.end_to_end("latency_ms", op * 1e3, "ms");
  r.end_to_end("throughput_per_s", static_cast<double>(base.first.units) / op,
               "1/s");
  r.end_to_end("setup_s", setup, "s");
  r.end_to_end("peak_rss_mb", base.rss_mb, "MB");
  if (!opt.traced) return;

  trace_fold f;
  pass_out traced;
  {
    obs::session session(kRingCapacity);
    traced = run_pass(line, opt.seconds / 2, r);
    std::string error;
    r.check(fold_session(session.sink(), opt.trace_out, f, error),
            "trace export: ", error);
  }
  r.check(traced.first.bytes == base.first.bytes,
          "sweep_lanes: traced record bytes differ from untraced");
  r.same_count("core.steps", base.first.steps, traced.first.steps);
  r.same_count("sets.charged_ops", base.first.charged_ops,
               traced.first.charged_ops);

  const auto reps = static_cast<double>(f.reps().size());
  const double block_s = f.total_s("sweep", "replica_block");
  const double task_s = f.total_s("sweep", "unit") + block_s;
  const double batch_s = f.total_s("pool", "batch");
  const double slots_s = f.weighted_s("pool", "batch", "workers");
  r.layer("exp.registry.expand_s", f.total_s(kCat, "exp.registry.expand") / reps,
          "s");
  r.layer("exp.batch.block_busy_s", block_s / reps, "s");
  r.layer("exp.batch.ns_per_step",
          traced.first.batched_steps > 0
              ? block_s * 1e9 / (traced.first.batched_steps * reps)
              : 0.0,
          "ns");
  r.layer("core.steps", traced.first.steps, "count");
  r.layer("sets.charged_ops", traced.first.charged_ops, "count");
  r.layer("svc.worker_pool.busy_share", slots_s > 0 ? task_s / slots_s : 0.0,
          "ratio");
  r.layer("svc.worker_pool.steals",
          f.counter_thread_total("pool", "steals") / reps, "count");
  r.layer("exp.sweep.fold_s", (f.total_s("svc", "job") - batch_s) / reps, "s");
  r.layer("exp.record.render_s", f.total_s(kCat, "svc.render_output") / reps,
          "s");
  r.layer("svc.write_artifact_s", f.total_s(kCat, "svc.write_artifact") / reps,
          "s");
  add_trace_health(r, f, op, traced.times.medians(r).first);
}

}  // namespace e2e
