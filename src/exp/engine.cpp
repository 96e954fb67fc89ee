#include "exp/engine.hpp"

#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "analysis/amo_checker.hpp"
#include "analysis/collision_ledger.hpp"
#include "baselines/tas_executor.hpp"
#include "baselines/write_all_baselines.hpp"
#include "core/iterative_kk.hpp"
#include "core/wa_iterative_kk.hpp"
#include "mem/atomic_memory.hpp"
#include "mem/sim_memory.hpp"
#include "model/dpor.hpp"
#include "sim/scheduler.hpp"
#include "util/math.hpp"
#include "util/stopwatch.hpp"

namespace amo::exp {

namespace {

[[noreturn]] void bad_spec(const std::string& why) {
  throw std::invalid_argument("exp::run: " + why);
}

void echo_spec(run_report& rep, const run_spec& s) {
  rep.label = s.label;
  rep.algo = s.algo;
  rep.driver = s.driver;
  rep.memory = s.memory;
  rep.n = s.n;
  rep.m = s.m;
  rep.beta = s.beta == 0 ? s.m : s.beta;
  rep.eps_inv = s.eps_inv;
  rep.crash_budget = s.crash_budget;
}

void harvest_checker(run_report& rep, const amo_checker& checker) {
  rep.effectiveness = checker.distinct();
  rep.perform_events = checker.total_events();
  rep.at_most_once = checker.ok();
  rep.duplicate = checker.first_duplicate();
}

/// Aggregates KK_beta per-process tallies; shared by every memory backend
/// and driver.
template <class Proc>
void harvest_kk(run_report& rep, const std::vector<std::unique_ptr<Proc>>& procs) {
  usize stopped = 0;
  for (const auto& p : procs) {
    rep.per_process.push_back(p->stats());
    rep.total_work += p->stats().work;
    rep.total_collisions +=
        p->stats().collisions_try + p->stats().collisions_done;
    if (p->status() == kk_status::end) ++rep.terminated;
    if (p->status() == kk_status::stop) ++stopped;
  }
  rep.crashes = stopped;
}

template <class Proc>
void harvest_iter(run_report& rep, const std::vector<std::unique_ptr<Proc>>& procs) {
  usize stopped = 0;
  for (const auto& p : procs) {
    rep.total_work += p->stats().work;
    rep.total_collisions += p->stats().collisions;
    if (p->finished()) ++rep.terminated;
    if (!p->runnable() && !p->finished()) ++stopped;
  }
  rep.crashes = stopped;
}

/// The one OS-thread loop: each thread drives its automaton to completion,
/// checking the crash plan at every action boundary.
template <class Proc>
void drive_threads(std::vector<std::unique_ptr<Proc>>& procs,
                   const crash_spec& plan) {
  std::vector<std::jthread> threads;
  threads.reserve(procs.size());
  for (process_id pid = 1; pid <= procs.size(); ++pid) {
    Proc* proc = procs[pid - 1].get();
    threads.emplace_back([proc, pid, &plan] {
      while (proc->runnable()) {
        if (plan.should_crash(pid, *proc)) {
          proc->crash();
          break;
        }
        proc->step();
      }
    });
  }  // jthreads join on scope exit
}

/// The adversary of a scheduled run: a name parsed by the grammar, held by
/// its concrete type so the scheduler loop inlines its decide(), or a
/// caller-owned (or recording) adversary behind the virtual interface.
struct sched_adversary {
  std::optional<sim::any_adversary> parsed;
  sim::adversary* dynamic = nullptr;
};

/// Drives `procs` to completion under the spec's driver: the adversary-
/// scheduled simulator, or OS threads honoring the spec's crash plan. The
/// one place the driver dichotomy and the step-limit policy exist: an
/// explicit spec.max_steps wins; otherwise the defensive default limit,
/// times `limit_scale` for algorithms that run multiple levels.
template <class Proc>
void drive_spec(run_report& rep, std::vector<std::unique_ptr<Proc>>& procs,
                const run_spec& s, sched_adversary* adv, usize limit_scale = 1) {
  if (s.driver == driver_kind::scheduled) {
    std::vector<Proc*> ptrs;
    ptrs.reserve(procs.size());
    for (const auto& p : procs) ptrs.push_back(p.get());
    sim::scheduler<Proc> sched(std::move(ptrs));
    const usize limit = s.max_steps != 0
                            ? s.max_steps
                            : sim::default_step_limit(s.n, s.m) * limit_scale;
    const auto drive = [&](auto& a) {
      return sched.run(a, s.crash_budget, limit);
    };
    const sim::run_result res = adv->dynamic != nullptr
                                    ? drive(*adv->dynamic)
                                    : std::visit(drive, *adv->parsed);
    rep.total_steps = res.total_steps;
    rep.quiescent = res.quiescent;
    // rep.crashes is recomputed from process status by the harvest helpers
    // (identical to res.crashes; kept in one place).
  } else {
    drive_threads(procs, s.crashes);
  }
}

/// Work/termination/crash tally for the baseline automatons (which expose
/// work() and the automaton probes, not the kk/iter stats structs).
template <class Proc>
void harvest_automata(run_report& rep,
                      const std::vector<std::unique_ptr<Proc>>& procs) {
  usize crashed = 0;
  for (const auto& p : procs) {
    rep.total_work += p->work();
    if (p->next_action() == action_kind::terminated) ++rep.terminated;
    if (p->next_action() == action_kind::crashed) ++crashed;
  }
  rep.crashes = crashed;
}

template <class M>
std::vector<std::unique_ptr<kk_process<M>>> build_kk_procs(
    M& mem, const run_spec& s, amo_checker& checker, collision_ledger* ledger,
    const run_hooks* hooks) {
  std::vector<std::unique_ptr<kk_process<M>>> procs;
  procs.reserve(s.m);
  for (process_id pid = 1; pid <= s.m; ++pid) {
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = s.m;
    cfg.beta = s.beta;
    cfg.mode = kk_mode::plain;
    cfg.rule = s.rule;
    kk_hooks kh;
    kh.on_perform = [&checker, hooks](process_id p, job_id j) {
      checker.record(p, j);
      if (hooks != nullptr && hooks->on_perform) hooks->on_perform(p, j);
    };
    if (ledger != nullptr) {
      kh.on_collision = [ledger, &checker](process_id p, job_id j,
                                           process_id announcer, bool via_done) {
        ledger->record(p, j, announcer, via_done, checker);
      };
    }
    procs.push_back(
        std::make_unique<kk_process<M>>(mem, cfg, nullptr, std::move(kh)));
  }
  return procs;
}

template <class M>
void run_kk_impl(const run_spec& s, sched_adversary* adv,
                 const run_hooks* hooks, run_report& rep) {
  M mem(s.m, s.n);
  amo_checker checker(s.n);
  // The collision ledger is scheduled-driver only: it is not thread-safe,
  // and under real threads the interleaving is not reproducible anyway.
  const bool want_ledger = s.driver == driver_kind::scheduled;
  collision_ledger ledger(want_ledger ? s.m : 1, want_ledger ? s.n : 1);
  auto procs = build_kk_procs<M>(mem, s, checker,
                                 want_ledger ? &ledger : nullptr, hooks);

  stopwatch clock;
  drive_spec(rep, procs, s, adv);
  rep.wall_seconds = clock.seconds();

  harvest_checker(rep, checker);
  harvest_kk(rep, procs);
  if (s.driver == driver_kind::os_threads) {
    rep.total_steps = rep.total_work.actions;
  }
  if (want_ledger) rep.worst_pair_ratio = ledger.worst_pair_ratio();
}

template <class M>
void run_iter_impl(const run_spec& s, sched_adversary* adv,
                   const run_hooks* hooks, run_report& rep) {
  const bool write_all = s.algo == algo_family::wa_iterative;
  iterative_shared<M> shared(make_iterative_plan(s.n, s.m, s.eps_inv));
  rep.num_levels = shared.plan.levels.size();
  rep.beta = shared.plan.beta;

  amo_checker checker(s.n);
  write_all_array wa(write_all ? s.n : 1);

  std::vector<std::unique_ptr<iterative_process<M>>> procs;
  procs.reserve(s.m);
  for (process_id pid = 1; pid <= s.m; ++pid) {
    typename iterative_process<M>::perform_fn fn;
    if (write_all) {
      fn = [&wa, hooks, pid](job_id j) {
        wa.set(j);
        if (hooks != nullptr && hooks->on_perform) hooks->on_perform(pid, j);
      };
    } else {
      fn = [&checker, hooks, pid](job_id j) {
        checker.record(pid, j);
        if (hooks != nullptr && hooks->on_perform) hooks->on_perform(pid, j);
      };
    }
    procs.push_back(std::make_unique<iterative_process<M>>(
        shared, pid, write_all, std::move(fn)));
  }

  stopwatch clock;
  // The iterated algorithm runs 3 + 1/eps levels; scale the default limit.
  drive_spec(rep, procs, s, adv, shared.plan.levels.size() + 1);
  rep.wall_seconds = clock.seconds();

  harvest_checker(rep, checker);
  harvest_iter(rep, procs);
  if (s.driver == driver_kind::os_threads) {
    rep.total_steps = rep.total_work.actions;
  }
  if (write_all) {
    rep.wa_written = wa.count_set();
    rep.wa_complete = wa.complete();
    rep.effectiveness = rep.wa_written;
    // Write-All duplicates are legal; report the true do-action count so
    // perform_events means the same thing in every family.
    rep.perform_events = 0;
    for (const auto& p : procs) rep.perform_events += p->perform_count();
  }
}

void run_tas_impl(const run_spec& s, sched_adversary* adv,
                  const run_hooks* hooks, run_report& rep) {
  baseline::tas_board board(s.n);
  amo_checker checker(s.n);
  std::vector<std::unique_ptr<baseline::tas_process>> procs;
  procs.reserve(s.m);
  for (process_id pid = 1; pid <= s.m; ++pid) {
    procs.push_back(std::make_unique<baseline::tas_process>(
        board, s.m, pid, [&checker, hooks](process_id p, job_id j) {
          checker.record(p, j);
          if (hooks != nullptr && hooks->on_perform) hooks->on_perform(p, j);
        }));
  }

  stopwatch clock;
  drive_spec(rep, procs, s, adv);
  rep.wall_seconds = clock.seconds();

  harvest_checker(rep, checker);
  harvest_automata(rep, procs);
  if (s.driver == driver_kind::os_threads) {
    rep.total_steps = rep.total_work.actions;
  }
}

/// The three registers-model Write-All baseline automatons. They write the
/// shared array directly (no per-perform callback exists), so
/// run_hooks.on_perform is not observable here.
template <class Proc>
void run_wa_baseline_impl(const run_spec& s, sched_adversary* adv,
                          run_report& rep) {
  write_all_array wa(s.n);
  std::unique_ptr<baseline::wa_count_tree> tree;
  std::vector<std::unique_ptr<Proc>> procs;
  procs.reserve(s.m);
  for (process_id pid = 1; pid <= s.m; ++pid) {
    if constexpr (std::is_same_v<Proc, baseline::wa_split_scan_process>) {
      procs.push_back(std::make_unique<Proc>(wa, s.m, pid));
    } else if constexpr (std::is_same_v<Proc,
                                        baseline::wa_progress_tree_process>) {
      if (!tree) {
        tree = std::make_unique<baseline::wa_count_tree>(ceil_div(s.n, 64));
      }
      procs.push_back(std::make_unique<Proc>(wa, *tree, pid, 64));
    } else {
      procs.push_back(std::make_unique<Proc>(wa, pid));
    }
  }

  stopwatch clock;
  drive_spec(rep, procs, s, adv);
  rep.wall_seconds = clock.seconds();

  harvest_automata(rep, procs);
  rep.wa_written = wa.count_set();
  rep.wa_complete = wa.complete();
  rep.effectiveness = rep.wa_written;
  // Duplicate writes are legal (and, for wa_trivial, the design): report
  // the true do-action count, same meaning as in every other family.
  rep.perform_events = 0;
  for (const auto& p : procs) rep.perform_events += p->perform_count();
}

/// Partial-order-reduced exploration mapped onto the run_report
/// vocabulary: total_steps = transitions, total_work.local_ops = states
/// visited, terminated = quiescent states, effectiveness = the minimum job
/// count over all quiescent states (the exhaustively-proven worst case),
/// quiescent = "fully explored and acyclic", at_most_once = "no duplicate
/// anywhere". `pool` (may be null) drives the exploration frontier; the
/// report is bit-identical at any pool size.
void run_model_impl(const run_spec& s, run_report& rep,
                    svc::worker_pool* pool) {
  if (s.n > model::max_jobs || s.m > model::max_procs) {
    bad_spec("model_explore_por handles n <= " + std::to_string(model::max_jobs) +
             ", m <= " + std::to_string(model::max_procs) + " only");
  }
  model::model_config cfg;
  cfg.n = s.n;
  cfg.m = s.m;
  cfg.beta = s.beta == 0 ? s.m : s.beta;
  cfg.rule = s.rule;
  cfg.mode = kk_mode::plain;
  cfg.crash_budget = s.crash_budget;

  model::por_options opt;
  opt.cfg = cfg;
  if (s.max_steps != 0) opt.max_states = s.max_steps;
  opt.pool = pool;
  stopwatch clock;
  const model::explore_result res = model::explore_por(opt);
  rep.wall_seconds = clock.seconds();

  rep.adversary = "exhaustive";
  rep.seed = 0;
  rep.total_steps = res.transitions;
  rep.total_work.local_ops = res.states;
  rep.quiescent = res.complete && !res.cycle_found;
  rep.terminated = res.quiescent_states;
  rep.at_most_once = !res.duplicate_found;
  rep.effectiveness = res.min_effectiveness;
  rep.perform_events = rep.effectiveness;
}

run_report run_impl(run_spec s, sim::adversary* adv, const run_hooks* hooks,
                    svc::worker_pool* por_pool = nullptr) {
  // Family validation runs before the degenerate-universe shortcut: an
  // invalid spec must throw, not return a vacuously passing report.
  if (s.algo == algo_family::ao2) {
    // AO2 is KK_beta with the two-ends selection rule at its only valid
    // operating point; normalize so the report echoes resolved values.
    if (s.m != 2) bad_spec("ao2 is the two-process building block (m must be 2)");
    s.beta = 1;
    s.rule = selection_rule::two_ends;
  }
  const bool wa_baseline = s.algo == algo_family::wa_trivial ||
                           s.algo == algo_family::wa_split_scan ||
                           s.algo == algo_family::wa_progress_tree;
  const bool model_family = s.algo == algo_family::model_explore_por;
  if ((wa_baseline || model_family) && s.driver != driver_kind::scheduled) {
    bad_spec("write-all baselines and model_explore_por run under the "
             "scheduled driver only");
  }

  if (s.n == 0 || s.m == 0) {
    // Degenerate universes are valid specs: no job or no process means
    // the run is quiescent before its first step, so report that vacuously.
    run_report rep;
    echo_spec(rep, s);
    rep.adversary = s.adversary.name;
    rep.seed = s.adversary.seed;
    rep.wa_complete = s.algo == algo_family::wa_iterative ||
                      s.algo == algo_family::wa_trivial ||
                      s.algo == algo_family::wa_split_scan ||
                      s.algo == algo_family::wa_progress_tree;
    return rep;
  }
  if (s.driver == driver_kind::os_threads) {
    s.memory = memory_kind::atomic;  // sim_memory is not thread-safe
  }
  run_report rep;
  echo_spec(rep, s);

  if (model_family) {
    // No adversary to resolve: the explorer IS every adversary at once.
    run_model_impl(s, rep, por_pool);
    return rep;
  }

  // Scheduled driver: resolve the adversary, optionally wrapped to record.
  sched_adversary sched_adv;
  std::optional<sim::recording_adversary> recorder;
  sim::trace recorded;
  if (s.driver == driver_kind::scheduled) {
    if (adv == nullptr) {
      sched_adv.parsed = sim::parse_adversary(s.adversary.name, s.adversary.seed);
      if (!sched_adv.parsed) bad_spec("unknown adversary '" + s.adversary.name + "'");
      // For scripted:/replay: specs echo only the prefix — the embedded
      // trace can run to megabytes and is reproducible from the spec.
      // Parameterized names (block:16, ...) are echoed verbatim: the
      // parameters ARE the identity.
      rep.adversary =
          std::holds_alternative<sim::scripted_adversary>(*sched_adv.parsed)
              ? s.adversary.name.substr(0, s.adversary.name.find(':'))
              : s.adversary.name;
      rep.seed = s.adversary.seed;
    } else {
      rep.adversary = adv->name();
      sched_adv.dynamic = adv;
    }
    if (s.record_trace) {
      sim::adversary& inner =
          adv != nullptr ? *adv
                         : std::visit([](auto& a) -> sim::adversary& { return a; },
                                      *sched_adv.parsed);
      recorder.emplace(inner, recorded);
      sched_adv.dynamic = &*recorder;
    }
  }

  switch (s.algo) {
    case algo_family::kk:
    case algo_family::ao2:
      if (s.memory == memory_kind::sim) {
        run_kk_impl<sim_memory>(s, &sched_adv, hooks, rep);
      } else {
        run_kk_impl<atomic_memory>(s, &sched_adv, hooks, rep);
      }
      break;
    case algo_family::iterative:
    case algo_family::wa_iterative:
      if (s.memory == memory_kind::sim) {
        run_iter_impl<sim_memory>(s, &sched_adv, hooks, rep);
      } else {
        run_iter_impl<atomic_memory>(s, &sched_adv, hooks, rep);
      }
      break;
    case algo_family::tas:
      run_tas_impl(s, &sched_adv, hooks, rep);
      break;
    case algo_family::wa_trivial:
      run_wa_baseline_impl<baseline::wa_trivial_process>(s, &sched_adv, rep);
      break;
    case algo_family::wa_split_scan:
      run_wa_baseline_impl<baseline::wa_split_scan_process>(s, &sched_adv, rep);
      break;
    case algo_family::wa_progress_tree:
      run_wa_baseline_impl<baseline::wa_progress_tree_process>(s, &sched_adv,
                                                               rep);
      break;
    case algo_family::model_explore_por:
      break;  // handled before adversary resolution
  }

  if (s.record_trace) rep.trace = std::move(recorded);
  return rep;
}

}  // namespace

run_report run(const run_spec& spec) { return run_impl(spec, nullptr, nullptr); }

run_report run(const run_spec& spec, const run_hooks& hooks) {
  return run_impl(spec, nullptr, &hooks);
}

run_report run(const run_spec& spec, sim::adversary& adv) {
  return run_impl(spec, &adv, nullptr);
}

run_report run(const run_spec& spec, sim::adversary& adv, const run_hooks& hooks) {
  return run_impl(spec, &adv, &hooks);
}

run_report replay(const run_spec& spec, const sim::trace& t) {
  run_spec s = spec;
  s.record_trace = true;
  sim::scripted_adversary adv(t.events());
  return run(s, adv);
}

run_report run_por(const run_spec& spec, svc::worker_pool& pool) {
  if (spec.algo != algo_family::model_explore_por) {
    throw std::invalid_argument(
        "run_por drives model_explore_por only; use run() for everything else");
  }
  return run_impl(spec, nullptr, nullptr, &pool);
}

}  // namespace amo::exp
