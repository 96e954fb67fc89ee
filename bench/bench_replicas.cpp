// Replica blocks vs per-unit exp::run — the replica layer's claim: a
// cell's R deterministic replicas run as one block, so a seed-independent
// cell costs one run instead of R, while every charged op count stays
// bit-identical.
//
// The win is schedule-class dependent, so the grids are split by class
// (non-batchable coverage lives in tests/test_batch_parity.cpp):
//
//   repl/xR    n=256 m=3  — seed-independent adversaries (round_robin,
//              stale_view, announce_crash): every replica's schedule is
//              identical, so the block runs once and replicates the
//              report R ways. Cost is ~1 unit for R, i.e. ~R x. This grid
//              gates the >= 3x floor at R >= 8.
//   seeded/xR  n=256 m=3  — seed-dependent adversaries (random,
//              random+crash, block64): the block runs every replica
//              through exp::run, so both sides do the same work and the
//              ratio sits near 1x (reported, not gated).
//   mix/xR     n=256 m=3  — all six classes, reported for context: the
//              composition of a real grid decides where between the two
//              it lands.
//   bigm/xR    n=256 m=33 — wide-word seeded cells (every process's TRY
//              set past the word-parallel threshold), reported for context.
//
// Each row times the same grid twice — once as a loop of exp::run over
// every (cell, replica) unit, once through the serial sweep path — and
// reports both units/second figures, their ratio, and whether the
// no-timing aggregate JSON is byte-identical between the two
// (bit_identical gates in CI).
#include <span>
#include <thread>

#include "bench_common.hpp"
#include "exp/engine.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"

namespace {

using namespace amo;

constexpr int kReps = 2;  ///< min-of-reps vs 1-core CI noise

exp::run_spec cell(const char* label, const char* adv, std::uint64_t seed,
                   usize m, usize replicas) {
  exp::run_spec s;
  s.label = label;
  s.algo = exp::algo_family::kk;
  s.n = 256;
  s.m = m;
  s.beta = 3;
  s.crash_budget = 2;
  s.replicas = replicas;
  s.adversary = {adv, seed};
  return s;
}

/// Seed-independent schedule classes: the block runs once and replicates.
std::vector<exp::run_spec> repl_grid(usize replicas) {
  std::vector<exp::run_spec> cells;
  cells.push_back(cell("batch/round_robin", "round_robin", 1, 3, replicas));
  cells.push_back(cell("batch/stale_view", "stale_view:2", 2, 3, replicas));
  cells.push_back(cell("batch/announce_crash", "announce_crash", 3, 3, replicas));
  return cells;
}

/// Seed-dependent schedule classes: exp::run per replica.
std::vector<exp::run_spec> seeded_grid(usize replicas) {
  std::vector<exp::run_spec> cells;
  cells.push_back(cell("batch/random", "random", 7919, 3, replicas));
  cells.push_back(cell("batch/random_crash", "random+crash", 15'838, 3, replicas));
  cells.push_back(cell("batch/block64", "block64", 23'757, 3, replicas));
  return cells;
}

/// Every schedule class the classifier knows — what a realistic grid sees.
std::vector<exp::run_spec> mix_grid(usize replicas) {
  std::vector<exp::run_spec> cells = repl_grid(replicas);
  std::vector<exp::run_spec> seeded = seeded_grid(replicas);
  cells.insert(cells.end(), seeded.begin(), seeded.end());
  return cells;
}

/// Wide-word cells: m=33 puts every process's TRY set past the
/// word-parallel threshold.
std::vector<exp::run_spec> bigm_grid(usize replicas) {
  std::vector<exp::run_spec> cells;
  cells.push_back(cell("batch/bigm_random", "random", 7919, 33, replicas));
  cells.push_back(cell("batch/bigm_block64", "block64", 23'757, 33, replicas));
  return cells;
}

std::string aggregate_json(const exp::sweep_result& swept, std::uint64_t fp) {
  exp::json_writer json;
  exp::add_cell_records(json, swept, fp, /*include_timing=*/false);
  return json.dump();
}

/// The scalar reference: every (cell, replica) unit through exp::run, in
/// unit order, folded into a sweep_result like exp::sweep folds. Min wall
/// over kReps; the fold is not timed (nor is the sweep's).
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
    for (exp::cell_report& cr : cur.cells) {
      cr.stats = exp::fold_replicas(std::span<const exp::run_report>(
          cur.reports.data() + cr.first, cr.replicas));
    }
    if (rep == 0 || cur.wall_seconds < best) {
      best = cur.wall_seconds;
      out = std::move(cur);
    }
  }
  return out;
}

/// Serial sweep (replica blocks on), min wall over kReps.
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
      "Replica blocks  (R replicas of one cell per pool task)",
      "claim: a seed-independent cell runs once for its R replicas; every\n"
      "block's reports stay bit-identical to R exp::run calls");

  const unsigned hc = std::thread::hardware_concurrency();

  benchx::json_report json;
  text_table t({"grid", "replicas", "units", "scalar u/s", "batched u/s",
                "speedup", "identical?"});
  bool all_identical = true;
  bool floors_ok = true;

  struct grid_def {
    const char* name;
    std::vector<exp::run_spec> (*make)(usize);
    double floor;  ///< min speedup required at R >= 8; 0 = informational
  };
  const grid_def grids[] = {{"repl", &repl_grid, 3.0},
                            {"seeded", &seeded_grid, 0.0},
                            {"mix", &mix_grid, 0.0},
                            {"bigm", &bigm_grid, 0.0}};

  for (const grid_def& g : grids) {
    for (const usize replicas : {usize{1}, usize{2}, usize{8}, usize{32},
                                 usize{64}}) {
      const std::vector<exp::run_spec> cells = g.make(replicas);
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
      // The floor binds once blocks are wide enough to amortise the one run.
      if (g.floor > 0.0 && replicas >= 8) {
        floors_ok = floors_ok && speedup >= g.floor;
      }

      usize duplicates = 0;
      for (const exp::run_report& r : batched.reports) {
        duplicates += r.perform_events - r.effectiveness;
      }

      t.add_row({g.name, fmt_count(replicas), fmt_count(units),
                 fmt_count(static_cast<usize>(scalar_ups)),
                 fmt_count(static_cast<usize>(batched_ups)),
                 fmt(speedup, 2) + "x", benchx::yesno(identical)});

      json.add(
          {{"experiment", benchx::json_report::str("E_batched_replicas")},
           {"scenario", benchx::json_report::str(std::string(g.name) + "/x" +
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
  }

  benchx::print_table(t);
  std::printf("\nserial (pool=1): speedup isolates the replica block, not "
              "thread scheduling.\nrepl = run-once-replicate classes; "
              "seeded = exp::run per replica; mix = all six;\nbigm = m=33 "
              "wide-word cells.\n");

  if (json.write("BENCH_replicas.json")) {
    std::printf("[%zu records -> BENCH_replicas.json]\n", json.size());
  }
  std::printf("\n[bench_replicas done in %.1fs; bit-identical %s, floor "
              "(R>=8: repl>=3x) %s]\n",
              total.seconds(), benchx::yesno(all_identical).c_str(),
              benchx::yesno(floors_ok).c_str());
  return (all_identical && floors_ok) ? 0 : 1;
}
