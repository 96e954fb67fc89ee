// Experiment E11 — exhaustive verification (library addition): enumerate
// EVERY interleaving and crash placement of small KK_beta instances and
// decide Lemma 4.1, Theorem 4.4 and acyclicity over the full execution
// space. This complements the sampled sweeps of E2: for these instances the
// result is a proof-by-enumeration, not a test.
//
// E11.3 adds the partial-order-reduced explorer (model::explore_por): over
// the shared grid both explorers must return identical verdicts while POR
// visits an order of magnitude fewer states, and at the frontier POR
// completes instances the brute-force search cannot finish under the
// 20M-state cap. Emits BENCH_model.json (brute vs POR states/transitions,
// reduction factors, verdict-equality and pool-parity flags, and the
// memory the POR search stores and peaks at per state), gated in CI via
// `amo_lab diff`.
#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "model/dpor.hpp"
#include "model/explorer.hpp"
#include "svc/worker_pool.hpp"

namespace {

using namespace amo;

/// The verdict fields both explorers must agree on, bit for bit.
bool verdicts_equal(const model::explore_result& a,
                    const model::explore_result& b) {
  return a.complete == b.complete && a.duplicate_found == b.duplicate_found &&
         a.cycle_found == b.cycle_found &&
         a.lemma62_violated == b.lemma62_violated &&
         a.min_effectiveness == b.min_effectiveness &&
         a.max_effectiveness == b.max_effectiveness;
}

/// Full-result equality (counts and stats included) for the pool-parity
/// check: the POR frontier must be deterministic at any pool size.
bool results_identical(const model::explore_result& a, const model::por_stats& sa,
                       const model::explore_result& b,
                       const model::por_stats& sb) {
  return a.complete == b.complete && a.states == b.states &&
         a.transitions == b.transitions && a.quiescent_states == b.quiescent_states &&
         a.max_depth == b.max_depth && verdicts_equal(a, b) &&
         sa.singleton_states == sb.singleton_states &&
         sa.full_states == sb.full_states && sa.sleep_pruned == sb.sleep_pruned &&
         sa.resumed_states == sb.resumed_states &&
         sa.peak_frontier == sb.peak_frontier && sa.layers == sb.layers &&
         sa.stored_bytes == sb.stored_bytes;
}

/// What the search stores per state (visited table, edge list, cycle
/// roots): deterministic, so the diff gates it like a count.
std::pair<std::string, std::string> bytes_per_state(
    const model::explore_result& r, const model::por_stats& s) {
  return {"bytes_per_state",
          benchx::json_report::num(
              r.states > 0 ? static_cast<double>(s.stored_bytes) /
                                 static_cast<double>(r.states)
                           : 0.0)};
}

/// The peak memory of one serial POR check per state: a forked child runs
/// it and reports its VmHWM minus the VmRSS it started from, divided by
/// the states. Where bytes_per_state counts what the search stores, this
/// counts all it holds at its peak: the frontiers, the arrivals and the
/// cycle check's adjacency too. Page-granular, so near-deterministic, and
/// gated like bytes_per_state. 0 when the child fails.
double peak_bytes_per_state(const model::model_config& cfg) {
  const std::string out = benchx::in_child([&cfg]() -> std::string {
    model::por_options opt;
    opt.cfg = cfg;
    const double before = benchx::status_mb("VmRSS:");
    const auto r = model::explore_por(opt);
    const double grew = benchx::status_mb("VmHWM:") - before;
    if (!r.complete || r.states == 0) return {};
    return std::to_string(grew * (1 << 20) / static_cast<double>(r.states));
  });
  return out.empty() ? 0.0 : std::stod(out);
}

}  // namespace

int main() {
  stopwatch clock;
  benchx::json_report json;
  bool all_safe = true;

  // The workload instance (e2e check_por's, serial), measured first, while
  // this process is small and holds no threads.
  model::model_config peak_cfg;
  peak_cfg.n = 5;
  peak_cfg.m = 3;
  peak_cfg.beta = 3;
  peak_cfg.crash_budget = 2;
  const double peak_per_state = peak_bytes_per_state(peak_cfg);
  all_safe = all_safe && peak_per_state > 0.0;

  benchx::print_title(
      "E11  Exhaustive model checking of KK_beta (all schedules, all crashes)",
      "claims: no duplicate anywhere; min quiescent effectiveness == "
      "n-(beta+m-2); acyclic for beta >= m;\nPOR verdicts identical to "
      "brute force at a fraction of the states");

  text_table t({"n", "m", "beta", "f", "states", "por states", "reduction",
                "dup-free?", "acyclic?", "min eff", "formula", "tight?",
                "verdicts=?"});
  struct instance {
    usize n, m, beta, f;
  };
  const instance grid[] = {
      {2, 2, 2, 1}, {3, 2, 2, 1}, {4, 2, 2, 1}, {5, 2, 2, 1}, {6, 2, 2, 1},
      {4, 2, 3, 1}, {5, 2, 4, 1}, {3, 3, 3, 2}, {4, 3, 3, 2}, {5, 3, 3, 2},
  };
  for (const auto& g : grid) {
    model::explore_options opt;
    opt.cfg.n = g.n;
    opt.cfg.m = g.m;
    opt.cfg.beta = g.beta;
    opt.cfg.crash_budget = g.f;
    stopwatch bw;
    const auto r = model::explore(opt);
    const double brute_wall = bw.seconds();

    model::por_options popt;
    popt.cfg = opt.cfg;
    model::por_stats pstats;
    stopwatch pw;
    const auto pr = model::explore_por(popt, pstats);
    const double por_wall = pw.seconds();

    const usize formula = bounds::kk_effectiveness(g.n, g.m, g.beta);
    const bool safe = r.complete && verdicts_equal(r, pr) &&
                      !r.duplicate_found && pr.states <= r.states;
    all_safe = all_safe && safe;
    const double state_red =
        pr.states > 0 ? static_cast<double>(r.states) / pr.states : 0.0;
    const double trans_red =
        pr.transitions > 0
            ? static_cast<double>(r.transitions) / pr.transitions
            : 0.0;
    // Tightness needs n >= beta + m - 1 (otherwise the formula saturates at
    // 0 while the first compNext, which always sees TRY = {}, still finds
    // >= beta candidates — the worst case is then better than the bound).
    const bool degenerate = formula == 0;
    t.add_row({fmt_count(g.n), fmt_count(g.m), fmt_count(g.beta),
               fmt_count(g.f), fmt_count(r.states), fmt_count(pr.states),
               fmt(state_red, 1) + "x", benchx::yesno(!r.duplicate_found),
               benchx::yesno(!r.cycle_found), fmt_count(r.min_effectiveness),
               fmt_count(formula),
               degenerate ? "n/a" : benchx::yesno(r.min_effectiveness == formula),
               benchx::yesno(verdicts_equal(r, pr))});

    std::vector<std::pair<std::string, std::string>> rec{
        {"experiment", benchx::json_report::str("E11_model_por")},
        {"scenario", benchx::json_report::str(
                         "plain/n" + std::to_string(g.n) + "m" +
                         std::to_string(g.m) + "b" + std::to_string(g.beta) +
                         "f" + std::to_string(g.f))},
        {"n", benchx::json_report::num(std::uint64_t{g.n})},
        {"m", benchx::json_report::num(std::uint64_t{g.m})},
        {"beta", benchx::json_report::num(std::uint64_t{g.beta})},
        {"crash_budget", benchx::json_report::num(std::uint64_t{g.f})},
        {"brute_states", benchx::json_report::num(std::uint64_t{r.states})},
        {"brute_transitions",
         benchx::json_report::num(std::uint64_t{r.transitions})},
        {"por_states", benchx::json_report::num(std::uint64_t{pr.states})},
        {"por_transitions",
         benchx::json_report::num(std::uint64_t{pr.transitions})},
        {"state_reduction", benchx::json_report::num(state_red)},
        {"transition_reduction", benchx::json_report::num(trans_red)},
        bytes_per_state(pr, pstats),
        {"min_effectiveness",
         benchx::json_report::num(std::uint64_t{r.min_effectiveness})},
        {"at_most_once", benchx::json_report::boolean(!r.duplicate_found)},
        {"complete", benchx::json_report::boolean(r.complete)},
        {"safe", benchx::json_report::boolean(safe)},
        {"brute_wall_seconds", benchx::json_report::num(brute_wall)},
        {"por_wall_seconds", benchx::json_report::num(por_wall)}};
    if (g.n == peak_cfg.n && g.m == peak_cfg.m && g.beta == peak_cfg.beta &&
        g.f == peak_cfg.crash_budget) {
      rec.emplace_back("peak_bytes_per_state",
                       benchx::json_report::num(peak_per_state));
    }
    json.add(rec);
  }
  benchx::print_table(t);

  benchx::print_title(
      "E11.2  The beta >= m requirement, made sharp by enumeration",
      "m = 2, beta = 1 two-ends (AO2): acyclic — wait-free with optimal n-1\n"
      "effectiveness. m = 3, beta = 1 < m: a livelock cycle exists (two\n"
      "same-side processes re-pick identically forever). Safety holds in\n"
      "every reachable state either way — Lemma 4.1 is rule/beta-independent.");
  text_table t2({"rule", "m", "beta", "states", "dup-free?", "acyclic?",
                 "min eff"});
  struct probe {
    selection_rule rule;
    usize n, m, beta, f;
    const char* label;
  };
  const probe probes[] = {
      {selection_rule::two_ends, 4, 2, 1, 1, "two_ends"},
      {selection_rule::two_ends, 2, 3, 1, 0, "two_ends"},
      {selection_rule::paper_rank, 4, 2, 2, 1, "paper_rank"},
      {selection_rule::paper_rank, 4, 3, 3, 2, "paper_rank"},
  };
  for (const auto& p : probes) {
    model::explore_options opt;
    opt.cfg.n = p.n;
    opt.cfg.m = p.m;
    opt.cfg.beta = p.beta;
    opt.cfg.rule = p.rule;
    opt.cfg.crash_budget = p.f;
    const auto r = model::explore(opt);
    model::por_options popt;
    popt.cfg = opt.cfg;
    const auto pr = model::explore_por(popt);
    all_safe = all_safe && verdicts_equal(r, pr);
    t2.add_row({p.label, fmt_count(p.m), fmt_count(p.beta), fmt_count(r.states),
                benchx::yesno(!r.duplicate_found), benchx::yesno(!r.cycle_found),
                r.quiescent_states > 0 ? fmt_count(r.min_effectiveness) : "-"});
  }
  benchx::print_table(t2);

  benchx::print_title(
      "E11.3  Beyond the brute-force frontier",
      "n=6,m=3,f=2: model::explore hits the 20M-state cap (the full graph\n"
      "has >20M reachable states); POR finishes the same instance at ~8.5M —\n"
      "an enumeration proof at a size, n+m=9, strictly beyond every\n"
      "brute-force-complete row above.");
  text_table t3({"explorer", "n", "m", "f", "complete?", "states",
                 "transitions", "dup-free?", "min eff"});
  struct frontier {
    usize n, m, beta, f;
    bool run_brute;
  };
  const frontier edge[] = {
      {6, 3, 3, 2, true},  // brute caps, POR completes: the frontier crossed
  };
  bool frontier_ok = true;
  for (const auto& g : edge) {
    model::por_options popt;
    popt.cfg.n = g.n;
    popt.cfg.m = g.m;
    popt.cfg.beta = g.beta;
    popt.cfg.crash_budget = g.f;
    char tag[32];
    std::snprintf(tag, sizeof tag, "n%zum%zuf%zu", g.n, g.m, g.f);
    const auto por_record = [&](const char* scenario,
                                const model::explore_result& pr,
                                const model::por_stats& stats, double wall) {
      return std::vector<std::pair<std::string, std::string>>{
          {"experiment", benchx::json_report::str("E11_frontier")},
          {"scenario", benchx::json_report::str(std::string(scenario) + tag)},
          {"n", benchx::json_report::num(std::uint64_t{g.n})},
          {"m", benchx::json_report::num(std::uint64_t{g.m})},
          {"crash_budget", benchx::json_report::num(std::uint64_t{g.f})},
          {"por_states", benchx::json_report::num(std::uint64_t{pr.states})},
          {"por_transitions",
           benchx::json_report::num(std::uint64_t{pr.transitions})},
          bytes_per_state(pr, stats),
          {"min_effectiveness",
           benchx::json_report::num(std::uint64_t{pr.min_effectiveness})},
          {"at_most_once", benchx::json_report::boolean(!pr.duplicate_found)},
          {"complete", benchx::json_report::boolean(pr.complete)},
          {"wall_seconds", benchx::json_report::num(wall)}};
    };
    const auto por_row = [&](const char* explorer,
                             const model::explore_result& pr) {
      t3.add_row({explorer, fmt_count(g.n), fmt_count(g.m), fmt_count(g.f),
                  benchx::yesno(pr.complete), fmt_count(pr.states),
                  fmt_count(pr.transitions), benchx::yesno(!pr.duplicate_found),
                  pr.quiescent_states > 0 ? fmt_count(pr.min_effectiveness)
                                          : "-"});
    };

    // The POR rows run before the brute-force row: after its 20M-state
    // heap the serial POR row took 14.2 s, against 6.5 s before it.
    model::por_stats pstats;
    stopwatch pw;
    const auto pr = model::explore_por(popt, pstats);
    const double por_wall = pw.seconds();
    por_row("por", pr);
    frontier_ok = frontier_ok && pr.complete && !pr.duplicate_found;
    json.add(por_record("por/", pr, pstats, por_wall));

    // The same check on a hardware-size pool: every count, verdict and
    // por_stats field must match the serial row.
    {
      svc::worker_pool pool(0);
      model::por_options pooled = popt;
      pooled.pool = &pool;
      model::por_stats pp_stats;
      stopwatch ppw;
      const auto pp = model::explore_por(pooled, pp_stats);
      const double pooled_wall = ppw.seconds();
      por_row("por, pool", pp);
      frontier_ok = frontier_ok && results_identical(pr, pstats, pp, pp_stats);
      auto rec = por_record("por_pool/", pp, pp_stats, pooled_wall);
      rec.emplace_back("workers",
                       benchx::json_report::num(std::uint64_t{pool.size()}));
      json.add(rec);
    }

    if (g.run_brute) {
      model::explore_options opt;
      opt.cfg = popt.cfg;
      stopwatch bw;
      const auto r = model::explore(opt);
      t3.add_row({"brute", fmt_count(g.n), fmt_count(g.m), fmt_count(g.f),
                  benchx::yesno(r.complete), fmt_count(r.states),
                  fmt_count(r.transitions), benchx::yesno(!r.duplicate_found),
                  r.quiescent_states > 0 ? fmt_count(r.min_effectiveness) : "-"});
      // The cap must actually bite — otherwise this row belongs in E11.
      frontier_ok = frontier_ok && !r.complete;
      json.add({{"experiment", benchx::json_report::str("E11_frontier")},
                {"scenario",
                 benchx::json_report::str(std::string("brute/") + tag)},
                {"n", benchx::json_report::num(std::uint64_t{g.n})},
                {"m", benchx::json_report::num(std::uint64_t{g.m})},
                {"crash_budget", benchx::json_report::num(std::uint64_t{g.f})},
                {"complete", benchx::json_report::boolean(r.complete)},
                {"capped", benchx::json_report::boolean(!r.complete)},
                {"wall_seconds", benchx::json_report::num(bw.seconds())}});
    }
  }
  benchx::print_table(t3);
  all_safe = all_safe && frontier_ok;

  // Pool parity: the frontier's deterministic work split must give a
  // bit-identical result (counts AND reduction stats) at any pool size.
  model::por_options ppar;
  ppar.cfg.n = 4;
  ppar.cfg.m = 3;
  ppar.cfg.beta = 3;
  ppar.cfg.crash_budget = 2;
  model::por_stats base_stats;
  const auto base = model::explore_por(ppar, base_stats);
  bool identical = true;
  usize hc = 0;
  for (const usize workers : {usize{1}, usize{2}, usize{0}}) {
    svc::worker_pool pool(workers);
    hc = pool.size() > hc ? pool.size() : hc;
    model::por_options opt = ppar;
    opt.pool = &pool;
    model::por_stats stats;
    const auto r = model::explore_por(opt, stats);
    identical = identical && results_identical(base, base_stats, r, stats);
  }
  all_safe = all_safe && identical;
  json.add({{"experiment", benchx::json_report::str("E11_pool_parity")},
            {"scenario", benchx::json_report::str("por/n4m3b3f2")},
            {"pools", benchx::json_report::str("serial,1,2,hw")},
            {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
            {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
            {"por_states", benchx::json_report::num(std::uint64_t{base.states})},
            {"por_transitions",
             benchx::json_report::num(std::uint64_t{base.transitions})},
            {"bit_identical", benchx::json_report::boolean(identical)}});
  std::printf("\npool parity (serial vs pools 1/2/hw): %s\n",
              benchx::yesno(identical).c_str());

  if (json.write("BENCH_model.json")) {
    std::printf("[%zu records -> BENCH_model.json]\n", json.size());
  }
  std::printf("\n[bench_model_check done in %.1fs; verdicts identical + "
              "frontier + pool parity: %s]\n",
              clock.seconds(), benchx::yesno(all_safe).c_str());
  return all_safe ? 0 : 1;
}
