// Experiment E5 — Lemmas 5.1-5.5 and the Theorem 5.6 aggregate: with
// beta >= 3m^2, (a) no process pair (p,q) collides more than
// 2*ceil(n/(m|q-p|)) times, and (b) total collisions stay below
// 4(n+1) lg m. Collision-maximizing schedules (stale_view, small-quantum
// block) are the stressors; ratios must stay <= 1. Grids run on the
// exp::sweep pool.
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"

int main() {
  using namespace amo;
  stopwatch clock;
  benchx::print_title(
      "E5  Collision accounting (Lemma 5.5 + Theorem 5.6, beta = 3m^2)",
      "claim: worst pair ratio <= 1 and total <= 4(n+1) lg m");

  std::vector<exp::run_spec> cells;
  std::vector<const char*> adv_labels;
  for (const usize n : {usize{4096}, usize{16384}, usize{65536}}) {
    for (const usize m : {usize{2}, usize{4}, usize{8}}) {
      if (3 * m * m + m >= n) continue;
      for (const char* adversary_name : sim::standard_adversaries()) {
        exp::run_spec s;
        s.algo = exp::algo_family::kk;
        s.n = n;
        s.m = m;
        s.beta = 3 * m * m;
        s.adversary = {adversary_name, 1717};
        cells.push_back(std::move(s));
        adv_labels.push_back(adversary_name);
      }
    }
  }
  const auto result = exp::sweep(cells);

  text_table t({"n", "m", "adversary", "collisions", "total bound",
                "total ratio", "worst pair ratio", "ok?"});
  for (usize i = 0; i < result.reports.size(); ++i) {
    const exp::run_report& r = result.reports[i];
    const double bound = bounds::total_collision_bound(r.n, r.m);
    const double total_ratio = static_cast<double>(r.total_collisions) / bound;
    const bool ok = total_ratio <= 1.0 && r.worst_pair_ratio <= 1.0;
    t.add_row({fmt_count(r.n), fmt_count(r.m), adv_labels[i],
               fmt_count(r.total_collisions),
               fmt_count(static_cast<std::uint64_t>(bound)),
               fmt(total_ratio, 4), fmt(r.worst_pair_ratio, 4),
               benchx::yesno(ok)});
  }
  benchx::print_table(t);

  benchx::print_title(
      "E5.2  Collision counts: beta = m vs beta = 3m^2 (stale_view, n = 32768)",
      "context: the 3m^2 interval separation is what tames collisions");
  std::vector<exp::run_spec> cells2;
  for (const usize m : {usize{4}, usize{8}, usize{16}}) {
    for (const usize beta : {m, 3 * m * m}) {
      exp::run_spec s;
      s.algo = exp::algo_family::kk;
      s.n = 32768;
      s.m = m;
      s.beta = beta;
      s.adversary = {"stale_view:" + std::to_string(32768 * 4), 1};
      cells2.push_back(std::move(s));
    }
  }
  const auto result2 = exp::sweep(cells2);
  text_table t2({"m", "collisions (beta=m)", "collisions (beta=3m^2)"});
  for (usize i = 0; i + 1 < result2.reports.size(); i += 2) {
    t2.add_row({fmt_count(result2.reports[i].m),
                fmt_count(result2.reports[i].total_collisions),
                fmt_count(result2.reports[i + 1].total_collisions)});
  }
  benchx::print_table(t2);

  benchx::print_title(
      "E5.3  Contention stress: n close to m, beta = 1",
      "context: collisions are structurally rare in the beta >= 3m^2 regime\n"
      "(that is Lemma 5.1's point); shrinking the job pool below the interval\n"
      "separation forces the TRY/DONE collision machinery to fire constantly.\n"
      "Safety must survive the onslaught.");
  std::vector<exp::run_spec> cells3;
  for (const usize m : {usize{4}, usize{8}, usize{16}}) {
    for (const usize n : {m + 1, 2 * m, 4 * m}) {
      exp::run_spec s;
      s.algo = exp::algo_family::kk;
      s.n = n;
      s.m = m;
      s.beta = 1;  // correctness-only regime
      s.max_steps = 200000;
      s.adversary = {"random", 321};
      cells3.push_back(std::move(s));
    }
  }
  const auto result3 = exp::sweep(cells3);
  text_table t3({"n", "m", "collisions", "performed", "dup-free?"});
  for (const exp::run_report& r : result3.reports) {
    t3.add_row({fmt_count(r.n), fmt_count(r.m), fmt_count(r.total_collisions),
                fmt_count(r.effectiveness), benchx::yesno(r.at_most_once)});
  }
  benchx::print_table(t3);
  std::printf("\n[bench_collisions done in %.1fs]\n", clock.seconds());
  return 0;
}
