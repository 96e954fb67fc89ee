// Experiment E1 — Theorem 4.4 (with Lemma 4.2 and Theorem 2.1).
//
// Table 1: effectiveness of KK_beta under the paper's tight adversary
// (crash each of processes 1..m-1 right after its first announce) against
// the closed form n - (beta + m - 2), the n - f ceiling, and the trivial
// baseline (m - f) * n / m. The "measured" and "formula" columns must agree
// exactly; the paper's claim is that the measured value sits within an
// additive m of the ceiling.
//
// Table 2: minimum effectiveness across crash-free adversary families —
// every schedule must land between the formula and n.
//
// All grids are exp::run_spec cells executed by the exp::sweep pool.
#include <algorithm>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"

namespace {

using namespace amo;

exp::run_spec kk_cell(usize n, usize m, usize beta, usize f,
                      const std::string& adversary, std::uint64_t seed = 1) {
  exp::run_spec s;
  s.algo = exp::algo_family::kk;
  s.n = n;
  s.m = m;
  s.beta = beta;
  s.crash_budget = f;
  s.adversary = {adversary, seed};
  return s;
}

void table_worst_case() {
  benchx::print_title(
      "E1.1  Effectiveness of KK_beta under the Theorem 4.4 adversary",
      "claim: exactly n - (beta + m - 2); within additive m of the n-f ceiling");
  std::vector<exp::run_spec> cells;
  for (const usize n : {usize{1024}, usize{16384}, usize{131072}}) {
    for (const usize m : {usize{2}, usize{8}, usize{32}}) {
      for (const usize beta : {m, 3 * m * m}) {
        if (beta + m >= n) continue;
        cells.push_back(kk_cell(n, m, beta, m - 1, "announce_crash"));
      }
    }
  }
  const auto result = exp::sweep(cells);

  text_table t({"n", "m", "beta", "f", "measured", "formula", "ceiling n-f",
                "trivial", "exact?"});
  for (const exp::run_report& r : result.reports) {
    const usize formula = bounds::kk_effectiveness(r.n, r.m, r.beta);
    t.add_row({fmt_count(r.n), fmt_count(r.m), fmt_count(r.beta),
               fmt_count(r.m - 1), fmt_count(r.effectiveness),
               fmt_count(formula),
               fmt_count(bounds::effectiveness_upper(r.n, r.m - 1)),
               fmt_count(bounds::trivial_effectiveness(r.n, r.m, r.m - 1)),
               benchx::yesno(r.effectiveness == formula && r.at_most_once)});
  }
  benchx::print_table(t);
}

void table_crash_free() {
  benchx::print_title(
      "E1.2  Minimum effectiveness across crash-free schedules",
      "claim: every quiescent execution performs >= n - (beta + m - 2) jobs");
  struct group {
    usize n, m;
    std::vector<usize> cell_indices;
  };
  std::vector<group> groups;
  std::vector<exp::run_spec> cells;
  for (const usize n : {usize{4096}, usize{65536}}) {
    for (const usize m : {usize{2}, usize{8}, usize{32}}) {
      group g{n, m, {}};
      for (const char* adversary_name : sim::standard_adversaries()) {
        for (const std::uint64_t seed : {1ull, 2ull}) {
          g.cell_indices.push_back(cells.size());
          cells.push_back(kk_cell(n, m, 0, 0, adversary_name, seed));
        }
      }
      groups.push_back(std::move(g));
    }
  }
  const auto result = exp::sweep(cells);

  text_table t({"n", "m", "min effectiveness", "formula", "max (any schedule)",
                "bound met?"});
  for (const group& g : groups) {
    usize lo = ~usize{0};
    usize hi = 0;
    for (const usize i : g.cell_indices) {
      lo = std::min(lo, result.reports[i].effectiveness);
      hi = std::max(hi, result.reports[i].effectiveness);
    }
    const usize formula = bounds::kk_effectiveness(g.n, g.m, g.m);
    t.add_row({fmt_count(g.n), fmt_count(g.m), fmt_count(lo), fmt_count(formula),
               fmt_count(hi), benchx::yesno(lo >= formula)});
  }
  benchx::print_table(t);
}

void table_beta_sweep() {
  benchx::print_title(
      "E1.3  Loss grows linearly in beta (tight adversary, n = 32768, m = 8)",
      "claim: unperformed jobs = beta + m - 2 for every beta >= m");
  const usize n = 32768;
  const usize m = 8;
  std::vector<exp::run_spec> cells;
  for (const usize beta : {usize{8}, usize{16}, usize{64}, usize{192}, usize{1024}}) {
    cells.push_back(kk_cell(n, m, beta, m - 1, "announce_crash"));
  }
  const auto result = exp::sweep(cells);

  text_table t({"beta", "measured loss", "beta+m-2", "exact?"});
  for (const exp::run_report& r : result.reports) {
    const usize loss = n - r.effectiveness;
    t.add_row({fmt_count(r.beta), fmt_count(loss), fmt_count(r.beta + m - 2),
               benchx::yesno(loss == r.beta + m - 2)});
  }
  benchx::print_table(t);
}

void table_distribution() {
  benchx::print_title(
      "E1.4  Effectiveness distribution over 64 random crashy schedules "
      "(n = 16384, m = 8, f <= 7)",
      "context: the Theorem 4.4 floor is a worst case; typical schedules sit "
      "between floor and n");
  const usize n = 16384;
  const usize m = 8;
  std::vector<exp::run_spec> cells;
  cells.reserve(64);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    cells.push_back(kk_cell(n, m, 0, m - 1, "random+crash:1/400", seed * 104729));
  }
  const auto result = exp::sweep(cells);

  std::vector<usize> samples;
  samples.reserve(result.reports.size());
  for (const exp::run_report& r : result.reports) {
    samples.push_back(r.effectiveness);
  }
  std::sort(samples.begin(), samples.end());
  text_table t({"statistic", "jobs performed", "loss vs n"});
  auto row = [&](const char* label, usize v) {
    t.add_row({label, fmt_count(v), fmt_count(n - v)});
  };
  row("floor n-(2m-2)", bounds::kk_effectiveness(n, m, m));
  row("min", samples.front());
  row("p10", samples[samples.size() / 10]);
  row("median", samples[samples.size() / 2]);
  row("p90", samples[(samples.size() * 9) / 10]);
  row("max", samples.back());
  row("ceiling n", n);
  benchx::print_table(t);
}

}  // namespace

int main() {
  amo::stopwatch clock;
  table_worst_case();
  table_crash_free();
  table_beta_sweep();
  table_distribution();
  std::printf("\n[bench_effectiveness done in %.1fs]\n", clock.seconds());
  return 0;
}
