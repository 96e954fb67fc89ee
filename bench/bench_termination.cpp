// Experiment E3 — wait-freedom (Lemma 4.3): steps to quiescence across
// adversary families, reported against the per-job action cost model and
// the defensive livelock limit. A livelock would show as a "no" in the
// quiescent column; none may appear for beta >= m. Grid runs on the
// exp::sweep pool.
#include <vector>

#include "bench_common.hpp"
#include "exp/engine.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"

int main() {
  using namespace amo;
  stopwatch clock;
  benchx::print_title(
      "E3  Wait-freedom / termination (Lemma 4.3)",
      "claim: every fair execution quiesces; actions stay near (2m+6) per job");

  std::vector<exp::run_spec> cells;
  std::vector<const char*> adv_labels;
  for (const usize n : {usize{1024}, usize{16384}, usize{65536}}) {
    for (const usize m : {usize{2}, usize{8}, usize{24}}) {
      for (const char* adversary_name : sim::standard_adversaries()) {
        exp::run_spec s;
        s.algo = exp::algo_family::kk;
        s.n = n;
        s.m = m;
        s.crash_budget = m - 1;
        s.adversary = {adversary_name, 4242};
        cells.push_back(std::move(s));
        adv_labels.push_back(adversary_name);
      }
    }
  }
  const auto result = exp::sweep(cells);

  text_table t({"n", "m", "adversary", "steps", "steps/(n(2m+6))", "quiescent?"});
  for (usize i = 0; i < result.reports.size(); ++i) {
    const exp::run_report& r = result.reports[i];
    const double per_job_model =
        static_cast<double>(r.n) * (2.0 * static_cast<double>(r.m) + 6.0);
    t.add_row({fmt_count(r.n), fmt_count(r.m), adv_labels[i],
               fmt_count(r.total_steps),
               benchx::ratio(static_cast<double>(r.total_steps), per_job_model),
               benchx::yesno(r.quiescent)});
  }
  benchx::print_table(t);

  benchx::print_title(
      "E3.2  beta < m forfeits the termination guarantee (bounded-run probe)",
      "context: Section 3 — correctness holds for any beta, termination needs beta >= m");
  text_table t2({"m", "beta", "steps used", "quiescent?", "safe?"});
  for (const usize beta : {usize{1}, usize{2}}) {
    exp::run_spec s;
    s.algo = exp::algo_family::kk;
    s.n = 512;
    s.m = 4;
    s.beta = beta;
    s.max_steps = 512 * 4 * 64;
    s.adversary = {"random", 99};
    const exp::run_report r = exp::run(s);
    t2.add_row({fmt_count(r.m), fmt_count(beta), fmt_count(r.total_steps),
                benchx::yesno(r.quiescent), benchx::yesno(r.at_most_once)});
  }
  benchx::print_table(t2);
  std::printf("\n[bench_termination done in %.1fs]\n", clock.seconds());
  return 0;
}
