// The paper's evaluation as one gated grid. Every cell of experiments E1
// and E3-E8 is one {experiment id, exp::run_spec, claim} row below, and the
// whole grid runs as one exp::sweep. Each cell's record is the standard
// aggregate cell record (exp::cell_record_rows, no timing fields, scenario
// "paper/<id>") plus three claim columns — claim, bound, claim_holds — and
// the host class (hardware_concurrency, amo_build_type); all of them land
// in BENCH_paper.json, which CI diffs against the committed baseline (a
// claim_holds true -> false flip is a hard failure there). The program
// prints one row per experiment and every failing cell in full, and exits
// 1 if any claim fails.
//
// Claims, with their bounds from src/analysis/bounds:
//   thm4.4_exact        effectiveness == n - (beta + m - 2)   E1.1, E1.3, E8 KK_m
//   thm4.4_floor        effectiveness_min >= n - (beta + m - 2)   E1.2, E1.4
//   lemma4.3_quiescent  the run quiesces                      E3.1
//   lemma4.1_at_most_once  beta < m: safety, no termination promise   E3.2, E5.3
//   lemma5.5_collisions worst_pair_ratio <= 1 and
//                       collisions <= 4(n+1) lg m              E5.1
//   thm6.4_loss         n - effectiveness <= iterative_loss_envelope   E6.1
//   thm7.1_wa_complete  WA_IterativeKK writes every cell       E7 WA_IterativeKK
//   tas_n_minus_f       test-and-set (RMW, outside the model):
//                       effectiveness >= n - f                 E8 TAS
// Every other cell is context, gated only by the baseline diff: the work
// envelopes of Theorems 5.6 and 6.4 state no constant (E4.2 reads 1.67 at
// m = 2), and the Write-All and AO2 baselines make no claim of their own.
// E4.3's work split is the E4.1 n = 32768 round_robin record's
// shared_reads / shared_writes / local_ops / actions, and E8's "extra loss
// beyond n - f" is n - f - effectiveness of its KK_m rows.
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"

namespace {

using namespace amo;
using exp::algo_family;

constexpr std::string_view kPrefix = "paper/";  ///< scenario = prefix + id

enum class claim : std::uint8_t {
  context,
  thm44_exact,
  thm44_floor,
  quiescent,
  at_most_once,
  collisions,
  iterative_loss,
  wa_complete,
  tas_floor,
};

struct paper_grid {
  std::vector<exp::run_spec> specs;
  std::vector<claim> claims;  ///< claims[i] is specs[i]'s

  /// Appends one cell; the returned reference is valid until the next add.
  exp::run_spec& add(const char* id, claim what, algo_family algo, usize n,
                     usize m, std::string adversary, std::uint64_t seed = 1) {
    exp::run_spec& s = specs.emplace_back();
    s.label = std::string(kPrefix) + id;
    s.algo = algo;
    s.n = n;
    s.m = m;
    s.adversary = {std::move(adversary), seed};
    claims.push_back(what);
    return s;
  }
};

paper_grid build_grid() {
  constexpr algo_family kk = algo_family::kk;
  paper_grid g;

  // E1 — Theorem 4.4: exact under the announce-then-crash adversary,
  // a floor over every other schedule.
  for (const usize n : {usize{1024}, usize{16384}, usize{131072}}) {
    for (const usize m : {usize{2}, usize{8}, usize{32}}) {
      for (const usize beta : {m, 3 * m * m}) {
        if (beta + m >= n) continue;
        exp::run_spec& s =
            g.add("E1.1", claim::thm44_exact, kk, n, m, "announce_crash");
        s.beta = beta;
        s.crash_budget = m - 1;
      }
    }
  }
  for (const usize n : {usize{4096}, usize{65536}}) {
    for (const usize m : {usize{2}, usize{8}, usize{32}}) {
      for (const char* adversary : sim::standard_adversaries()) {
        for (const std::uint64_t seed : {1u, 2u}) {
          g.add("E1.2", claim::thm44_floor, kk, n, m, adversary, seed);
        }
      }
    }
  }
  for (const usize beta : {8u, 16u, 64u, 192u, 1024u}) {
    exp::run_spec& s =
        g.add("E1.3", claim::thm44_exact, kk, 32768, 8, "announce_crash");
    s.beta = beta;
    s.crash_budget = 7;
  }
  exp::run_spec& e14 = g.add("E1.4", claim::thm44_floor, kk, 16384, 8,
                             "random+crash:1/400", 104729);
  e14.crash_budget = 7;
  e14.replicas = 64;

  // E3 — Lemma 4.3 termination; with beta < m only Lemma 4.1 remains.
  for (const usize n : {usize{1024}, usize{16384}, usize{65536}}) {
    for (const usize m : {usize{2}, usize{8}, usize{24}}) {
      for (const char* adversary : sim::standard_adversaries()) {
        g.add("E3.1", claim::quiescent, kk, n, m, adversary, 4242)
            .crash_budget = m - 1;
      }
    }
  }
  for (const usize beta : {1u, 2u}) {
    exp::run_spec& s =
        g.add("E3.2", claim::at_most_once, kk, 512, 4, "random", 99);
    s.beta = beta;
    s.max_steps = 512 * 4 * 64;
  }

  // E4 — Theorem 5.6 work with beta = 3m^2, in n and in m (context).
  for (const usize n : {usize{2048}, usize{8192}, usize{32768}, usize{131072}}) {
    g.add("E4.1", claim::context, kk, n, 8, "round_robin").beta = 192;
    g.add("E4.1", claim::context, kk, n, 8,
          "stale_view:" + std::to_string(n * 4))
        .beta = 192;
  }
  for (const usize m : {usize{2}, usize{4}, usize{8}, usize{16}, usize{32}}) {
    g.add("E4.2", claim::context, kk, 65536, m, "round_robin").beta = 3 * m * m;
  }

  // E5 — Lemma 5.5 and the aggregate collision bound; then what beta = m
  // costs, and safety under contention with beta = 1.
  for (const usize n : {usize{4096}, usize{16384}, usize{65536}}) {
    for (const usize m : {usize{2}, usize{4}, usize{8}}) {
      if (3 * m * m + m >= n) continue;
      for (const char* adversary : sim::standard_adversaries()) {
        g.add("E5.1", claim::collisions, kk, n, m, adversary, 1717).beta =
            3 * m * m;
      }
    }
  }
  for (const usize m : {usize{4}, usize{8}, usize{16}}) {
    for (const usize beta : {m, 3 * m * m}) {
      g.add("E5.2", claim::context, kk, 32768, m, "stale_view:131072").beta =
          beta;
    }
  }
  for (const usize m : {usize{4}, usize{8}, usize{16}}) {
    for (const usize n : {m + 1, 2 * m, 4 * m}) {
      exp::run_spec& s =
          g.add("E5.3", claim::at_most_once, kk, n, m, "random", 321);
      s.beta = 1;
      s.max_steps = 200000;
    }
  }

  // E6 — IterativeKK(eps): the Theorem 6.4 loss, its work envelope, and
  // the work crossover against plain KK_{3m^2} (context).
  for (const usize n : {usize{8192}, usize{65536}, usize{262144}}) {
    for (const usize m : {usize{2}, usize{4}, usize{8}}) {
      for (const unsigned eps_inv : {1u, 2u, 3u}) {
        g.add("E6.1", claim::iterative_loss, algo_family::iterative, n, m,
              "round_robin")
            .eps_inv = eps_inv;
      }
    }
  }
  for (const usize m : {usize{4}, usize{8}, usize{16}}) {
    for (const usize n : {usize{16384}, usize{65536}, usize{262144},
                          usize{1048576}, usize{4194304}}) {
      if (m < 16 && n > 1048576) continue;  // the big point is for m = 16
      g.add("E6.2", claim::context, algo_family::iterative, n, m,
            "round_robin")
          .eps_inv = 2;
    }
  }
  for (const usize n : {usize{8192}, usize{32768}, usize{131072}, usize{524288}}) {
    g.add("E6.3", claim::context, kk, n, 8, "round_robin").beta = 192;
    g.add("E6.3", claim::context, algo_family::iterative, n, 8, "round_robin")
        .eps_inv = 2;
  }

  // E7 — Theorem 7.1 Write-All, crash-free and under f = m-1 crashes,
  // against the baselines; then WA_IterativeKK's work envelope.
  for (const bool crashes : {false, true}) {
    for (const usize n : {usize{16384}, usize{131072}}) {
      for (const usize m : {usize{4}, usize{16}}) {
        for (const algo_family algo :
             {algo_family::wa_iterative, algo_family::wa_trivial,
              algo_family::wa_split_scan, algo_family::wa_progress_tree,
              algo_family::tas}) {
          const bool ours = algo == algo_family::wa_iterative;
          exp::run_spec& s = g.add(
              crashes ? "E7.2" : "E7.1",
              ours ? claim::wa_complete : claim::context, algo, n, m,
              crashes ? "random+crash:1/1000" : "random+crash:0/1000", 5);
          s.eps_inv = 2;
          s.crash_budget = crashes ? m - 1 : 0;
          if (!ours) s.max_steps = 1000 * n + 10000000;
        }
      }
    }
  }
  for (const usize n :
       {usize{16384}, usize{131072}, usize{524288}, usize{4194304}}) {
    for (const usize m : {usize{4}, usize{16}}) {
      if (m == 4 && n > 524288) continue;  // the big point is for m = 16
      g.add("E7.3", claim::wa_complete, algo_family::wa_iterative, n, m,
            "random+crash:0/1000", 9)
          .eps_inv = 2;
    }
  }

  // E8 — the introduction's comparison at f = m-1: KK_m under its tight
  // adversary, test-and-set under random crashes, and the two-ends AO2
  // reconstruction of [26] at m = 2 (worst of 8 crashy schedules).
  for (const usize n : {usize{4096}, usize{65536}, usize{1048576}}) {
    for (const usize m : {usize{2}, usize{4}, usize{8}, usize{16}, usize{32}}) {
      g.add("E8", claim::thm44_exact, kk, n, m, "announce_crash")
          .crash_budget = m - 1;
      g.add("E8", claim::tas_floor, algo_family::tas, n, m, "random+crash")
          .crash_budget = m - 1;
    }
  }
  // The exact loss also holds at m = 64, one step past the rows above.
  g.add("E8", claim::thm44_exact, kk, 65536, 64, "announce_crash")
      .crash_budget = 63;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    g.add("E8", claim::context, algo_family::ao2, 4096, 2,
          "random+crash:1/100", seed)
        .crash_budget = 1;
  }
  return g;
}

struct verdict {
  const char* name;
  std::optional<double> bound;
  bool holds;
};

/// Field `key` of a cell's aggregate row; null (false, 0) when absent, so
/// a claim on a missing field fails.
const exp::typed_value& row_field(const exp::record_table& group,
                                  std::string_view key) {
  static const exp::typed_value missing;
  for (usize i = 0; i < group.keys.size(); ++i) {
    if (group.keys[i] == key) return group.rows.front()[i];
  }
  return missing;
}

/// Evaluates one cell's claim on its base report and on the replica fold
/// of the aggregate row it writes (`group`, one row).
verdict check(claim what, const exp::run_report& r,
              const exp::record_table& group) {
  const auto flag = [&group](std::string_view key) {
    return row_field(group, key).truth;
  };
  switch (what) {
    case claim::thm44_exact: {
      const usize b = bounds::kk_effectiveness(r.n, r.m, r.beta);
      return {"thm4.4_exact", static_cast<double>(b), r.effectiveness == b};
    }
    case claim::thm44_floor: {
      const auto b =
          static_cast<double>(bounds::kk_effectiveness(r.n, r.m, r.beta));
      return {"thm4.4_floor", b, row_field(group, "effectiveness_min").f >= b};
    }
    case claim::quiescent:
      return {"lemma4.3_quiescent", std::nullopt, flag("quiescent")};
    case claim::at_most_once:
      return {"lemma4.1_at_most_once", std::nullopt, flag("at_most_once")};
    case claim::collisions: {
      const double b = bounds::total_collision_bound(r.n, r.m);
      return {"lemma5.5_collisions", b,
              r.worst_pair_ratio <= 1.0 &&
                  static_cast<double>(r.total_collisions) <= b};
    }
    case claim::iterative_loss: {
      const double b = bounds::iterative_loss_envelope(r.n, r.m, r.eps_inv);
      return {"thm6.4_loss", b, static_cast<double>(r.n - r.effectiveness) <= b};
    }
    case claim::wa_complete:
      return {"thm7.1_wa_complete", std::nullopt, flag("wa_complete")};
    case claim::tas_floor: {
      const usize b = bounds::effectiveness_upper(r.n, r.crash_budget);
      return {"tas_n_minus_f", static_cast<double>(b), r.effectiveness >= b};
    }
    case claim::context:
      break;
  }
  return {"context", std::nullopt, true};
}

struct experiment_row {
  std::string id;
  std::string claims;  ///< distinct non-context claim names, '+'-joined
  usize cells = 0;
  usize failing = 0;
};

}  // namespace

int main() {
  using W = exp::json_writer;
  stopwatch clock;
  benchx::print_title(
      "Paper grid  E1, E3-E8: every claimed bound, checked per cell",
      "claims: Theorem 4.4, Lemmas 4.1/4.3/5.5, Theorems 6.4/7.1, TAS n-f");

  const paper_grid g = build_grid();
  const exp::sweep_result swept = exp::sweep(g.specs);
  // The host class rides on every row, as in the other BENCH files.
  std::vector<std::string> keys;
  const std::uint64_t hc = std::thread::hardware_concurrency();

  W out;
  W failing;
  std::vector<experiment_row> summary;
  usize i = 0;  // the cell of the group at hand: one row per cell
  const auto add_cell = [&](const exp::record_table& group) {
    using T = exp::typed_value;
    if (keys.empty()) {
      keys = group.keys;
      keys.insert(keys.end(), {"claim", "bound", "claim_holds",
                               "hardware_concurrency", "amo_build_type"});
    }
    const exp::cell_report& cell = swept.cells[i];
    const verdict v = check(g.claims[i], swept.reports[cell.first], group);
    std::vector<T> row = group.rows.front();
    row.push_back(T::str(v.name));
    row.push_back(v.bound ? T::f64(*v.bound) : T::null());
    row.push_back(T::boolean(v.holds));
    row.push_back(T::u64(hc));
    row.push_back(T::str(AMO_BUILD_TYPE));
    out.add(keys, row);
    if (!v.holds) failing.add(keys, row);

    const std::string id = g.specs[i].label.substr(kPrefix.size());
    if (summary.empty() || summary.back().id != id) {
      summary.push_back({id, "", 0, 0});
    }
    experiment_row& e = summary.back();
    ++e.cells;
    e.failing += v.holds ? 0 : 1;
    if (g.claims[i] != claim::context &&
        e.claims.find(v.name) == std::string::npos) {
      if (!e.claims.empty()) e.claims += '+';
      e.claims += v.name;
    }
    ++i;
    return true;
  };
  exp::cell_record_rows(swept, exp::grid_fingerprint(g.specs), add_cell,
                        /*include_timing=*/false);

  text_table t({"experiment", "claim", "cells", "failing"});
  for (const experiment_row& e : summary) {
    t.add_row({e.id, e.claims.empty() ? "context" : e.claims,
               fmt_count(e.cells), fmt_count(e.failing)});
  }
  benchx::print_table(t);
  if (failing.size() != 0) {
    std::printf("\n%zu failing cells:\n%s", failing.size(),
                failing.dump().c_str());
  }
  const bool written = out.write("BENCH_paper.json");
  std::printf("\n[%zu records -> BENCH_paper.json%s]\n", out.size(),
              written ? "" : " FAILED");
  std::printf("[bench_paper done in %.1fs]\n", clock.seconds());
  return written && failing.size() == 0 ? 0 : 1;
}
