// check_por — the partial-order-reduced model checker (model::explore_por)
// on a frontier-parallel pool, at n=5 m=3 beta=3 f=2: exhaustive, so it has
// no seed. No records and no engine: all the work is model/dpor, the
// frontier pool and memory. The traced pass measures the share of the
// check spent in parallel frontier batches — the Amdahl bound on what more
// workers can buy.
#include <optional>

#include "analysis/bounds.hpp"
#include "e2e.hpp"
#include "model/dpor.hpp"
#include "svc/worker_pool.hpp"

namespace e2e {

using namespace amo;

namespace {

struct rep_out {
  double setup_s = 0.0;
  double op_s = 0.0;
  double stolen = 0.0;  ///< host steal share while the rep ran
  model::explore_result res;
  model::por_stats stats;
};

rep_out one_rep(const model::model_config& cfg) {
  rep_out o;
  const cpu_ticks c0 = read_cpu_ticks();
  obs::span root(kCat, "rep");
  const double t0 = now_s();
  std::optional<svc::worker_pool> pool;
  {
    obs::span sp(kCat, "svc.worker_pool.start");
    pool.emplace(kWorkers);
  }
  const double t1 = now_s();
  {
    obs::span sp(kCat, "model.explore_por");
    model::por_options opt;
    opt.cfg = cfg;
    opt.pool = &*pool;
    o.res = model::explore_por(opt, o.stats);
  }
  o.setup_s = t1 - t0;
  o.op_s = now_s() - t1;
  o.stolen = stolen_share(c0, read_cpu_ticks());
  {
    obs::span sp(kCat, "svc.worker_pool.stop");
    pool.reset();
  }
  return o;
}

/// Every count of a rep is deterministic; the traced run must match them.
std::vector<std::pair<const char*, double>> counts(const rep_out& o) {
  const usize expanded = o.stats.singleton_states + o.stats.full_states;
  return {
      {"model.dpor.states", static_cast<double>(o.res.states)},
      {"model.dpor.transitions", static_cast<double>(o.res.transitions)},
      {"model.dpor.layers", static_cast<double>(o.stats.layers)},
      {"model.dpor.peak_frontier", static_cast<double>(o.stats.peak_frontier)},
      {"model.dpor.sleep_pruned", static_cast<double>(o.stats.sleep_pruned)},
      {"model.dpor.singleton_share",
       expanded > 0 ? static_cast<double>(o.stats.singleton_states) /
                          static_cast<double>(expanded)
                    : 0.0},
  };
}

struct pass_out {
  rep_times times;
  rep_out first;        ///< the warm-up repetition: the reference
  double rss_mb = 0.0;  ///< peak RSS after it: one check in a fresh process
};

pass_out run_pass(const model::model_config& cfg, double seconds, report& r) {
  pass_out p;
  const usize want = bounds::kk_effectiveness(cfg.n, cfg.m, cfg.beta);
  const double start = now_s();
  // The first repetition warms caches and the allocator and is not timed;
  // every repetition is checked.
  for (bool warm_up = true;; warm_up = false) {
    rep_out o = one_rep(cfg);
    r.attempted += 1;
    const model::explore_result& x = o.res;
    r.check(x.complete && !x.duplicate_found && !x.cycle_found &&
                !x.lemma62_violated && x.min_effectiveness == want,
            "check_por: verdict complete=" + std::to_string(x.complete) +
                " duplicate=" + std::to_string(x.duplicate_found) +
                " cycle=" + std::to_string(x.cycle_found) +
                " min_effectiveness=" + std::to_string(x.min_effectiveness) +
                " (Theorem 4.4 wants " + std::to_string(want) + ")");
    if (warm_up) {
      p.first = std::move(o);
      p.rss_mb = peak_rss_mb();
      continue;
    }
    r.check(counts(o) == counts(p.first),
            "check_por: repetition explored a different graph");
    p.times.add(o.setup_s, o.op_s, o.stolen);
    if (p.times.done(start, seconds)) break;
  }
  return p;
}

}  // namespace

void run_check_por(const options& opt, report& r) {
  // The smoke instance keeps n >= beta + m - 2, where Theorem 4.4's count
  // is exact, so the verdict gate stays an equality.
  model::model_config cfg;
  cfg.n = 5;
  cfg.m = opt.smoke ? 2 : 3;
  cfg.beta = cfg.m;
  cfg.crash_budget = cfg.m - 1;

  const double untraced_s = opt.traced ? opt.seconds / 2 : opt.seconds;
  const pass_out base = run_pass(cfg, untraced_s, r);
  const auto [op, setup] = base.times.medians(r);
  r.end_to_end("latency_ms", op * 1e3, "ms");
  r.end_to_end("throughput_per_s", 1.0 / op, "1/s");
  r.end_to_end("setup_s", setup, "s");
  r.end_to_end("peak_rss_mb", base.rss_mb, "MB");
  if (!opt.traced) return;

  trace_fold f;
  pass_out traced;
  {
    obs::session session(kRingCapacity);
    traced = run_pass(cfg, opt.seconds / 2, r);
    std::string error;
    r.check(fold_session(session.sink(), opt.trace_out, f, error),
            "trace export: ", error);
  }
  const auto base_counts = counts(base.first);
  const auto traced_counts = counts(traced.first);
  for (usize i = 0; i < base_counts.size(); ++i) {
    r.same_count(base_counts[i].first, base_counts[i].second,
                 traced_counts[i].second);
    r.layer(traced_counts[i].first, traced_counts[i].second,
            i + 1 == traced_counts.size() ? "ratio" : "count");
  }
  const double check_s = traced.times.medians(r).first;
  r.layer("model.dpor.states_per_s",
          static_cast<double>(traced.first.res.states) / check_s, "1/s");
  const double por_s = f.total_s("model", "explore_por");
  r.layer("model.dpor.parallel_share",
          por_s > 0 ? f.total_s("pool", "batch") / por_s : 0.0, "ratio");
  add_trace_health(r, f, op, check_s);
}

}  // namespace e2e
