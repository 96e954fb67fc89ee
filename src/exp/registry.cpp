#include "exp/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "exp/engine.hpp"
#include "sim/adversary.hpp"

namespace amo::exp {

namespace {

std::vector<run_spec> seed_replicas(run_spec cell, const scenario_params& p) {
  std::vector<run_spec> cells;
  const usize replicas = std::max<usize>(1, p.seeds);
  cells.reserve(replicas);
  for (usize i = 0; i < replicas; ++i) {
    cell.adversary.seed = p.seed + i;
    cells.push_back(cell);
  }
  return cells;
}

run_spec base_spec(const scenario_params& p, algo_family algo,
                   std::string label) {
  run_spec s;
  s.label = std::move(label);
  s.algo = algo;
  s.n = p.n;
  s.m = p.m;
  s.beta = p.beta;
  s.eps_inv = p.eps_inv;
  return s;
}

scenario adversary_scenario(const char* adv_label) {
  const std::string name = std::string("kk/") + adv_label;
  const std::string adv = adv_label;
  return {
      name,
      std::string("plain KK_beta under the '") + adv + "' schedule",
      [name, adv](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::kk, name);
        s.adversary.name = adv;
        if (adv == "random+crash") s.crash_budget = p.m > 0 ? p.m - 1 : 0;
        return seed_replicas(std::move(s), p);
      },
  };
}

std::vector<scenario> build_registry() {
  std::vector<scenario> reg;

  // One scenario per standard adversary family.
  for (const char* name : sim::standard_adversaries()) {
    reg.push_back(adversary_scenario(name));
  }

  // The Theorem 4.4 worst case, with its required crash budget f = m-1:
  // effectiveness must land exactly on n - (beta + m - 2).
  reg.push_back({
      "kk/announce_crash",
      "Theorem 4.4 tight adversary: crash 1..m-1 after first announce",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::kk, "kk/announce_crash");
        s.adversary.name = "announce_crash";
        s.crash_budget = p.m > 0 ? p.m - 1 : 0;
        // The adversary is deterministic; one cell regardless of p.seeds.
        s.adversary.seed = p.seed;
        return std::vector<run_spec>{std::move(s)};
      },
  });

  // Record a random execution, then replay its trace: the cells ARE replay
  // specs, so standard sweeps continuously exercise the trace machinery.
  reg.push_back({
      "kk/trace_replay",
      "replay of a recorded random-schedule trace (determinism check)",
      [](const scenario_params& p) {
        scenario_params small = p;
        small.n = std::min<usize>(p.n, 1024);  // traces grow with n*m
        run_spec rec = base_spec(small, algo_family::kk, "kk/trace_replay");
        rec.adversary = {"random", p.seed};
        rec.record_trace = true;
        const run_report recorded = run(rec);
        run_spec cell = rec;
        cell.record_trace = false;
        cell.adversary.name = "replay:" + recorded.trace.serialize();
        return std::vector<run_spec>{std::move(cell)};
      },
  });

  reg.push_back({
      "iterative/round_robin",
      "IterativeKK(eps) under fair rotation",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::iterative, "iterative/round_robin");
        s.adversary.name = "round_robin";
        return seed_replicas(std::move(s), p);
      },
  });
  reg.push_back({
      "iterative/random+crash",
      "IterativeKK(eps) under random schedule with f = m-1 crashes",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::iterative, "iterative/random+crash");
        s.adversary.name = "random+crash";
        s.crash_budget = p.m > 0 ? p.m - 1 : 0;
        return seed_replicas(std::move(s), p);
      },
  });

  reg.push_back({
      "wa/round_robin",
      "WA_IterativeKK(eps) Write-All under fair rotation",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::wa_iterative, "wa/round_robin");
        s.adversary.name = "round_robin";
        return seed_replicas(std::move(s), p);
      },
  });
  reg.push_back({
      "wa/random+crash",
      "WA_IterativeKK(eps) Write-All under crashes (completes iff a survivor)",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::wa_iterative, "wa/random+crash");
        s.adversary.name = "random+crash";
        s.crash_budget = p.m > 0 ? p.m - 1 : 0;
        return seed_replicas(std::move(s), p);
      },
  });

  // Baselines: the comparison set of experiments E7/E8 as sweepable
  // scenarios, so a standard sweep exercises every executable claim.
  reg.push_back({
      "baseline/ao2",
      "two-process AO2 building block of [26] (two-ends rule) under crashes",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::ao2, "baseline/ao2");
        s.m = 2;     // AO2 is inherently two-process
        s.beta = 0;  // resolved to its required beta = 1 by the engine
        s.adversary.name = "random+crash";
        s.crash_budget = 1;
        return seed_replicas(std::move(s), p);
      },
  });
  reg.push_back({
      "baseline/tas",
      "test-and-set executor (RMW, outside the model): the n - f strawman",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::tas, "baseline/tas");
        s.adversary.name = "random+crash";
        s.crash_budget = p.m > 0 ? p.m - 1 : 0;
        return seed_replicas(std::move(s), p);
      },
  });
  const struct {
    algo_family algo;
    const char* name;
    const char* desc;
  } wa_baselines[] = {
      {algo_family::wa_trivial, "baseline/wa_trivial",
       "Write-All baseline: everyone writes everything (m*n work ceiling)"},
      {algo_family::wa_split_scan, "baseline/wa_split_scan",
       "Write-All baseline: own block first, then help-scan the rest"},
      {algo_family::wa_progress_tree, "baseline/wa_progress_tree",
       "Write-All baseline: W-style advisory count tree heuristic"},
  };
  for (const auto& b : wa_baselines) {
    reg.push_back({
        b.name,
        b.desc,
        [algo = b.algo, name = std::string(b.name)](const scenario_params& p) {
          run_spec s = base_spec(p, algo, name);
          s.adversary.name = "random+crash";
          s.crash_budget = p.m > 0 ? p.m - 1 : 0;
          return seed_replicas(std::move(s), p);
        },
    });
  }

  // Partial-order-reduced model checking as sweep cells: sizes clamp to
  // the packed model's tiny universe, and the cells are deterministic (the
  // explorer IS every adversary at once, so p.seeds does not multiply
  // them).
  reg.push_back({
      "model/explore_por",
      "partial-order-reduced exploration of KK instances (dpor)",
      [](const scenario_params& p) {
        std::vector<run_spec> cells;
        run_spec worst;
        worst.label = "model/explore_por";
        worst.algo = algo_family::model_explore_por;
        worst.n = std::min<usize>(p.n, 6);
        worst.m = 2;
        worst.beta = 2;
        worst.crash_budget = 1;  // f = m-1: Theorem 4.4's tight setting
        cells.push_back(worst);
        run_spec crash_free = worst;
        crash_free.n = std::min<usize>(p.n, 8);
        crash_free.crash_budget = 0;
        cells.push_back(crash_free);
        if (p.m >= 3) {
          run_spec three = worst;
          three.n = std::min<usize>(p.n, 4);
          three.m = 3;
          three.beta = 3;
          three.crash_budget = 2;
          cells.push_back(three);
        }
        return cells;
      },
  });

  // Real-thread runtime: hardware supplies the interleaving, so these cells
  // are not bit-reproducible — they validate safety, not determinism.
  reg.push_back({
      "threads/kk",
      "plain KK_beta on m OS threads over atomic registers",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::kk, "threads/kk");
        s.driver = driver_kind::os_threads;
        return std::vector<run_spec>{std::move(s)};
      },
  });
  reg.push_back({
      "threads/kk_crash",
      "KK_beta on OS threads, threads 1..m-1 crash after first announce",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::kk, "threads/kk_crash");
        s.driver = driver_kind::os_threads;
        s.crashes.what = crash_spec::kind::after_first_announce;
        s.crashes.count = p.m > 0 ? p.m - 1 : 0;
        return std::vector<run_spec>{std::move(s)};
      },
  });
  reg.push_back({
      "threads/iterative",
      "IterativeKK(eps) on m OS threads",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::iterative, "threads/iterative");
        s.driver = driver_kind::os_threads;
        return std::vector<run_spec>{std::move(s)};
      },
  });
  reg.push_back({
      "threads/wa",
      "WA_IterativeKK(eps) Write-All on m OS threads",
      [](const scenario_params& p) {
        run_spec s = base_spec(p, algo_family::wa_iterative, "threads/wa");
        s.driver = driver_kind::os_threads;
        return std::vector<run_spec>{std::move(s)};
      },
  });

  return reg;
}

}  // namespace

std::span<const scenario> scenario_registry() {
  static const std::vector<scenario> registry = build_registry();
  return registry;
}

const scenario* find_scenario(std::string_view name) {
  for (const scenario& s : scenario_registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

/// Replica fan-out applied after expansion so no scenario lambda can
/// forget it: every cell of every scenario runs params.replicas replicas.
std::vector<run_spec> with_replicas(std::vector<run_spec> cells,
                                    const scenario_params& params) {
  const usize replicas = std::max<usize>(1, params.replicas);
  for (run_spec& c : cells) c.replicas = replicas;
  return cells;
}

}  // namespace

std::vector<run_spec> scenario_cells(std::string_view name,
                                     const scenario_params& params) {
  const scenario* s = find_scenario(name);
  if (s == nullptr) {
    throw std::invalid_argument("unknown scenario '" + std::string(name) + "'");
  }
  return with_replicas(s->make_cells(params), params);
}

std::vector<run_spec> all_scenario_cells(const scenario_params& params) {
  std::vector<run_spec> cells;
  for (const scenario& s : scenario_registry()) {
    std::vector<run_spec> c = s.make_cells(params);
    cells.insert(cells.end(), std::make_move_iterator(c.begin()),
                 std::make_move_iterator(c.end()));
  }
  return with_replicas(std::move(cells), params);
}

}  // namespace amo::exp
