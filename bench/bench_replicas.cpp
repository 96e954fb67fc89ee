// Run-once replicas vs per-unit exp::run — the replica rule's claim: a
// cell whose schedule ignores its seed (exp::batchable) is one execution
// repeated R times, so the sweep runs it once and copies the report, while
// every charged op count stays bit-identical to R exp::run calls.
//
//   repl/xR  n=256, m=3 (ao2: m=2) — every scheduled algo family × the
//            seed-independent adversaries (round_robin, stale_view,
//            announce_crash). Cost is ~1 unit for R, i.e. ~R x. This grid
//            gates the >= 3x floor at R >= 8.
//
// Every other unit runs through exp::run on both sides, so there is
// nothing else to compare. Each row times the grid twice — once as a loop
// of exp::run over every (cell, replica) unit, once through the serial
// sweep path — and reports both units/second figures, their ratio, and
// whether the no-timing aggregate JSON is byte-identical between the two
// (bit_identical gates in CI).
#include <thread>

#include "bench_common.hpp"
#include "exp/engine.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"

namespace {

using namespace amo;

constexpr int kReps = 2;  ///< min-of-reps vs 1-core CI noise

exp::run_spec cell(exp::algo_family algo, const char* adv, std::uint64_t seed,
                   usize replicas) {
  exp::run_spec s;
  s.label = std::string("batch/") + exp::to_string(algo) + "/" + adv;
  s.algo = algo;
  s.n = 256;
  s.m = algo == exp::algo_family::ao2 ? 2 : 3;
  s.beta = algo == exp::algo_family::kk ? 3 : 0;
  s.eps_inv = 2;
  s.crash_budget = 2;
  s.replicas = replicas;
  s.adversary = {adv, seed};
  return s;
}

/// Every scheduled algo family × the seed-independent adversaries: each
/// cell runs once and replicates.
std::vector<exp::run_spec> repl_grid(usize replicas) {
  using exp::algo_family;
  std::vector<exp::run_spec> cells;
  std::uint64_t seed = 0;
  for (const algo_family f :
       {algo_family::kk, algo_family::ao2, algo_family::iterative,
        algo_family::wa_iterative, algo_family::tas, algo_family::wa_trivial,
        algo_family::wa_split_scan, algo_family::wa_progress_tree}) {
    for (const char* adv : {"round_robin", "stale_view:2", "announce_crash"}) {
      cells.push_back(cell(f, adv, ++seed, replicas));
    }
  }
  return cells;
}

std::string aggregate_json(const exp::sweep_result& swept, std::uint64_t fp) {
  exp::json_writer json;
  exp::cell_record_rows(swept, fp,
                        exp::json_rows(json), /*include_timing=*/false);
  return json.dump();
}

/// The scalar reference: every (cell, replica) unit through exp::run, in
/// unit order, laid out as exp::sweep lays out its reports. Min wall over
/// kReps.
exp::sweep_result timed_scalar(const std::vector<exp::run_spec>& cells,
                               double& best) {
  exp::sweep_result out;
  for (int rep = 0; rep < kReps; ++rep) {
    exp::sweep_result cur;
    stopwatch clock;
    for (const exp::run_spec& c : cells) {
      exp::cell_report cr;
      cr.first = cur.reports.size();
      cr.replicas = exp::resolved_replicas(c);
      for (usize r = 0; r < cr.replicas; ++r) {
        cur.reports.push_back(exp::run(exp::replica_spec(c, r)));
      }
      cur.cells.push_back(cr);
    }
    cur.wall_seconds = clock.seconds();
    if (rep == 0 || cur.wall_seconds < best) {
      best = cur.wall_seconds;
      out = std::move(cur);
    }
  }
  return out;
}

/// Serial sweep (run-once replicas), min wall over kReps.
exp::sweep_result timed_sweep(const std::vector<exp::run_spec>& cells,
                              double& best) {
  exp::sweep_result out;
  for (int rep = 0; rep < kReps; ++rep) {
    exp::sweep_result cur = exp::sweep(cells, exp::sweep_options{1});
    if (rep == 0 || cur.wall_seconds < best) {
      best = cur.wall_seconds;
      out = std::move(cur);
    }
  }
  return out;
}

}  // namespace

int main() {
  stopwatch total;
  benchx::print_title(
      "Run-once replicas  (a seed-independent cell runs once for R)",
      "claim: a seed-independent cell runs once for its R replicas; every\n"
      "copied report stays bit-identical to R exp::run calls");

  const unsigned hc = std::thread::hardware_concurrency();

  benchx::json_report json;
  text_table t({"grid", "replicas", "units", "scalar u/s", "batched u/s",
                "speedup", "identical?"});
  bool all_identical = true;
  bool floors_ok = true;

  constexpr double kFloor = 3.0;  ///< min speedup required at R >= 8

  for (const usize replicas : {usize{1}, usize{2}, usize{8}, usize{32},
                               usize{64}}) {
    const std::vector<exp::run_spec> cells = repl_grid(replicas);
    const usize units = exp::unit_count(cells);
    const std::uint64_t fp = exp::grid_fingerprint(cells);

    double scalar_wall = 0.0;
    const exp::sweep_result scalar = timed_scalar(cells, scalar_wall);
    double batched_wall = 0.0;
    const exp::sweep_result batched = timed_sweep(cells, batched_wall);

    const bool identical =
        aggregate_json(batched, fp) == aggregate_json(scalar, fp);
    all_identical = all_identical && identical;

    const double scalar_ups =
        scalar_wall > 0 ? units / scalar_wall : 0.0;
    const double batched_ups =
        batched_wall > 0 ? units / batched_wall : 0.0;
    const double speedup =
        scalar_ups > 0 ? batched_ups / scalar_ups : 0.0;
    // The floor binds once R is wide enough to amortise the one run.
    if (replicas >= 8) floors_ok = floors_ok && speedup >= kFloor;

    // Duplicates only count where at-most-once is promised: the Write-All
    // families legally perform a job more than once.
    usize duplicates = 0;
    for (const exp::run_report& r : batched.reports) {
      const bool write_all = r.algo == exp::algo_family::wa_iterative ||
                             r.algo == exp::algo_family::wa_trivial ||
                             r.algo == exp::algo_family::wa_split_scan ||
                             r.algo == exp::algo_family::wa_progress_tree;
      if (!write_all) duplicates += r.perform_events - r.effectiveness;
    }

    t.add_row({"repl", fmt_count(replicas), fmt_count(units),
               fmt_count(static_cast<usize>(scalar_ups)),
               fmt_count(static_cast<usize>(batched_ups)),
               fmt(speedup, 2) + "x", benchx::yesno(identical)});

    json.add(
        {{"experiment", benchx::json_report::str("E_batched_replicas")},
         {"scenario", benchx::json_report::str("repl/x" +
                                               std::to_string(replicas))},
         {"replicas", benchx::json_report::num(std::uint64_t{replicas})},
         {"cells", benchx::json_report::num(std::uint64_t{cells.size()})},
         {"units", benchx::json_report::num(std::uint64_t{units})},
         {"hardware_concurrency",
          benchx::json_report::num(std::uint64_t{hc})},
         {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
         {"duplicates", benchx::json_report::num(std::uint64_t{duplicates})},
         {"scalar_wall_seconds", benchx::json_report::num(scalar_wall)},
         {"batched_wall_seconds", benchx::json_report::num(batched_wall)},
         {"scalar_units_per_second", benchx::json_report::num(scalar_ups)},
         {"batched_units_per_second", benchx::json_report::num(batched_ups)},
         {"batched_speedup", benchx::json_report::num(speedup)},
         {"bit_identical", benchx::json_report::boolean(identical)}});
  }

  benchx::print_table(t);
  std::printf("\nserial (pool=1): speedup isolates the run-once rule, not "
              "thread scheduling.\nrepl = every scheduled family x the "
              "seed-independent adversaries.\n");

  if (json.write("BENCH_replicas.json")) {
    std::printf("[%zu records -> BENCH_replicas.json]\n", json.size());
  }
  std::printf("\n[bench_replicas done in %.1fs; bit-identical %s, floor "
              "(R>=8: repl>=3x) %s]\n",
              total.seconds(), benchx::yesno(all_identical).c_str(),
              benchx::yesno(floors_ok).c_str());
  return (all_identical && floors_ok) ? 0 : 1;
}
