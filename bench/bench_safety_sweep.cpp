// Experiment E2 — Lemma 4.1 at scale: a large randomized sweep over sizes,
// process counts, beta values, adversary families, seeds and crash budgets.
// Every duplicate cell must read 0.
//
// Since the experiment-engine refactor the grid is a vector of exp::run_spec
// cells executed by exp::sweep's work-stealing pool. The bench runs the
// identical grid twice — serial (pool = 1) and pooled — verifies the
// per-cell reports are bit-identical, and records both wall clocks in
// BENCH_safety_sweep.json: the speedup line is the engine's headline number.
#include <algorithm>
#include <map>
#include <thread>

#include "bench_common.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"

namespace {

using namespace amo;

std::vector<exp::run_spec> build_grid() {
  std::vector<exp::run_spec> cells;
  for (const char* adversary_name : sim::standard_adversaries()) {
    for (const usize n : {usize{256}, usize{1024}, usize{3000}}) {
      for (const usize m : {usize{2}, usize{5}, usize{12}}) {
        for (const usize beta : {m, 2 * m, 3 * m * m}) {
          if (beta + m >= n) continue;
          for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            for (const usize f : {usize{0}, m - 1}) {
              exp::run_spec s;
              s.label = adversary_name;
              s.algo = exp::algo_family::kk;
              s.n = n;
              s.m = m;
              s.beta = beta;
              s.crash_budget = f;
              s.adversary = {adversary_name, seed * 7919};
              cells.push_back(std::move(s));
            }
          }
        }
      }
    }
  }
  return cells;
}

struct bucket {
  usize runs = 0;
  usize performs = 0;
  usize duplicates = 0;
  usize crashes = 0;
  usize livelocks = 0;
  usize effectiveness = 0;
  std::uint64_t work = 0;
};

}  // namespace

int main() {
  stopwatch clock;
  benchx::print_title(
      "E2  At-most-once safety sweep (Lemma 4.1), on the exp::sweep pool",
      "claim: zero duplicate do-actions over every adversarial schedule;\n"
      "pooled results bit-identical to the serial reference run");

  const std::vector<exp::run_spec> cells = build_grid();

  exp::sweep_options serial_opt;
  serial_opt.pool_size = 1;
  const exp::sweep_result serial = exp::sweep(cells, serial_opt);

  const unsigned hc = std::thread::hardware_concurrency();
  exp::sweep_options pool_opt;
  pool_opt.pool_size = std::max<usize>(4, hc == 0 ? 4 : hc);
  const exp::sweep_result pooled = exp::sweep(cells, pool_opt);

  bool identical = serial.reports.size() == pooled.reports.size();
  for (usize i = 0; identical && i < cells.size(); ++i) {
    identical = exp::equivalent(serial.reports[i], pooled.reports[i]);
  }

  // Aggregate per adversary family (order of standard_adversaries()).
  std::vector<std::string> order;
  std::map<std::string, bucket> buckets;
  for (const exp::run_report& r : pooled.reports) {
    if (buckets.find(r.label) == buckets.end()) order.push_back(r.label);
    bucket& b = buckets[r.label];
    ++b.runs;
    b.performs += r.perform_events;
    b.duplicates += r.perform_events - r.effectiveness;
    b.crashes += r.crashes;
    b.livelocks += r.quiescent ? 0 : 1;
    b.effectiveness += r.effectiveness;
    b.work += r.total_work.total();
  }

  text_table t({"adversary", "runs", "do-actions", "crashes", "duplicates",
                "livelocks", "work", "safe?"});
  usize grand_runs = 0;
  usize grand_dups = 0;
  for (const std::string& label : order) {
    const bucket& b = buckets[label];
    grand_runs += b.runs;
    grand_dups += b.duplicates;
    t.add_row({label, fmt_count(b.runs), fmt_count(b.performs),
               fmt_count(b.crashes), fmt_count(b.duplicates),
               fmt_count(b.livelocks), fmt_count(b.work),
               benchx::yesno(b.duplicates == 0)});
  }
  benchx::print_table(t);

  const double speedup =
      pooled.wall_seconds > 0 ? serial.wall_seconds / pooled.wall_seconds : 0.0;
  std::printf("\nTotal: %s executions, %s duplicates.\n",
              fmt_count(grand_runs).c_str(), fmt_count(grand_dups).c_str());
  std::printf("serial (pool=1): %.2fs | pooled (pool=%zu): %.2fs | "
              "speedup %.2fx | bit-identical: %s\n",
              serial.wall_seconds, pooled.pool_size, pooled.wall_seconds,
              speedup, identical ? "yes" : "NO");

  if (hc <= 1) {
    std::printf("NOTE: single hardware thread — pooled wall clock cannot beat "
                "serial here; run on a multicore host (or see CI) for the "
                "speedup number.\n");
  }

  benchx::json_report json;
  json.add({{"experiment", benchx::json_report::str("E2_sweep_engine")},
            {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
            {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
            {"cells", benchx::json_report::num(std::uint64_t{cells.size()})},
            {"duplicates", benchx::json_report::num(std::uint64_t{grand_dups})},
            {"serial_pool", benchx::json_report::num(std::uint64_t{1})},
            {"serial_wall_seconds", benchx::json_report::num(serial.wall_seconds)},
            {"pooled_pool", benchx::json_report::num(std::uint64_t{pooled.pool_size})},
            {"pooled_wall_seconds", benchx::json_report::num(pooled.wall_seconds)},
            {"speedup", benchx::json_report::num(speedup)},
            {"bit_identical", benchx::json_report::boolean(identical)}});
  for (const std::string& label : order) {
    const bucket& b = buckets[label];
    // effectiveness and work ride along so the CI `amo_lab diff` gate can
    // catch effectiveness/work regressions, not just duplicates; both are
    // deterministic sums over the seeded scheduled grid.
    json.add({{"experiment", benchx::json_report::str("E2_by_adversary")},
              {"adversary", benchx::json_report::str(label)},
              {"runs", benchx::json_report::num(std::uint64_t{b.runs})},
              {"do_actions", benchx::json_report::num(std::uint64_t{b.performs})},
              {"crashes", benchx::json_report::num(std::uint64_t{b.crashes})},
              {"duplicates", benchx::json_report::num(std::uint64_t{b.duplicates})},
              {"livelocks", benchx::json_report::num(std::uint64_t{b.livelocks})},
              {"effectiveness", benchx::json_report::num(std::uint64_t{b.effectiveness})},
              {"work", benchx::json_report::num(b.work)}});
  }
  if (json.write("BENCH_safety_sweep.json")) {
    std::printf("[%zu records -> BENCH_safety_sweep.json]\n", json.size());
  }

  std::printf("\n[bench_safety_sweep done in %.1fs]\n", clock.seconds());
  return (grand_dups == 0 && identical) ? 0 : 1;
}
