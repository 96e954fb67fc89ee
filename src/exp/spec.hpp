// The experiment engine's vocabulary: one `run_spec` describes any single
// execution the repository knows how to produce — algorithm family (KK_beta,
// IterativeKK, WA_IterativeKK) × memory backend (simulated registers vs
// std::atomic) × driver (adversary-scheduled single thread vs real OS
// threads) — and one `run_report` carries the outcome of every family and
// driver.
//
// A spec is a plain value: copyable, comparable-by-field, and sufficient to
// reproduce the execution bit-for-bit when the driver is `scheduled` (all
// randomness flows through adversary seeds). That property is what lets
// exp::sweep run cells on a thread pool in any order and still produce
// byte-identical results.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/kk_process.hpp"
#include "sim/trace.hpp"
#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo::exp {

/// Which algorithm the run executes: the paper's three, the comparison
/// baselines, and exhaustive model exploration. Everything a sweep grid can
/// name shares this one axis, so sharded sweeps exercise every executable
/// claim the repo makes.
enum class algo_family : std::uint8_t {
  kk,            ///< plain KK_beta (Sections 3-5)
  iterative,     ///< IterativeKK(eps) (Section 6)
  wa_iterative,  ///< WA_IterativeKK(eps) — Write-All (Section 7)

  // --- baselines (src/baselines/) ---
  ao2,               ///< [26]-style two-process building block: kk with
                     ///< selection_rule::two_ends, beta = 1, m = 2 enforced.
                     ///< [26]'s m-process tournament composition is not
                     ///< specified in the reproduced paper, so for m > 2
                     ///< benches plot bounds::kkns_effectiveness instead.
  tas,               ///< test-and-set executor (RMW, outside the model)
  wa_trivial,        ///< Write-All: everyone writes everything (m*n work)
  wa_split_scan,     ///< Write-All: own block, then help-scan the rest
  wa_progress_tree,  ///< Write-All: W-style advisory count tree

  // --- model checking (src/model/) ---
  /// Partial-order-reduced exploration (model/dpor) of EVERY schedule and
  /// crash placement (n <= 10, m <= 3); verdicts bit-identical to the
  /// brute-force model::explore, which tests and benches keep as the
  /// oracle. Scheduled driver only; the adversary spec is ignored
  /// ("exhaustive"). The value is pinned: grid fingerprints hash it.
  model_explore_por = 9,
};

/// What supplies the interleaving.
enum class driver_kind : std::uint8_t {
  scheduled,   ///< the Section 2.1 omniscient adversary over a simulator
  os_threads,  ///< m real threads; hardware supplies the adversary
};

/// The shared-register implementation.
enum class memory_kind : std::uint8_t {
  sim,     ///< sim_memory (single-threaded, scheduled driver only)
  atomic,  ///< atomic_memory (seq_cst std::atomic registers)
};

[[nodiscard]] const char* to_string(algo_family f);
[[nodiscard]] const char* to_string(driver_kind d);
[[nodiscard]] const char* to_string(memory_kind m);

/// Inverse of to_string(algo_family) — how text formats (the trace corpus,
/// job files) name an algorithm. False on an unrecognized name, leaving
/// `out` untouched.
[[nodiscard]] bool from_string(std::string_view name, algo_family& out);

/// Names an adversary the engine can construct on demand (scheduled driver),
/// in the grammar of sim::parse_adversary (sim/adversary.hpp).
struct adversary_spec {
  std::string name = "round_robin";
  std::uint64_t seed = 1;

  friend bool operator==(const adversary_spec&, const adversary_spec&) = default;
};

/// Deterministic crash points for the os_threads driver, evaluated at
/// action boundaries — what the simulation adversary does between
/// transitions. A crashed thread simply stops taking actions: the paper's
/// crash model (no recovery, state frozen, its announced job stays stuck in
/// next_p).
struct crash_spec {
  enum class kind : std::uint8_t { none, after_actions, after_first_announce };
  kind what = kind::none;
  std::vector<usize> per_thread;  ///< after_actions: 0 = never crash
  usize count = 0;                ///< after_first_announce: threads 1..count

  /// True if thread `pid` should crash now given its observable progress.
  [[nodiscard]] bool should_crash(process_id pid, const automaton& a) const;

  friend bool operator==(const crash_spec&, const crash_spec&) = default;
};

/// The complete description of one execution.
struct run_spec {
  std::string label;  ///< free-form tag echoed into reports/JSON

  algo_family algo = algo_family::kk;
  driver_kind driver = driver_kind::scheduled;
  /// Defaulted per driver when left at `sim` with os_threads: the engine
  /// coerces os_threads runs to atomic (sim_memory is not thread-safe).
  memory_kind memory = memory_kind::sim;

  usize n = 0;             ///< jobs 1..n
  usize m = 1;             ///< processes/threads
  usize beta = 0;          ///< kk family; 0 means beta = m
  unsigned eps_inv = 1;    ///< iterative families: 1/eps
  selection_rule rule = selection_rule::paper_rank;
  usize crash_budget = 0;  ///< scheduled driver: the paper's f
  usize max_steps = 0;     ///< scheduled driver: 0 = default_step_limit
                           ///< (model_explore_por: state cap, 0 = default)

  /// Deterministic replicas of this cell: the sweep layer runs the spec
  /// `replicas` times (0 is treated as 1), replica r under the seed
  /// replica_seed(adversary.seed, r), and folds the per-replica reports
  /// into one cell_report (exp/stats.hpp). Replica 0 always runs under the
  /// base seed, so `replicas = 1` reproduces the single-run behaviour
  /// bit-for-bit.
  usize replicas = 1;

  adversary_spec adversary;  ///< scheduled driver
  crash_spec crashes;        ///< os_threads driver
  bool record_trace = false; ///< scheduled driver: capture the decision trace

  friend bool operator==(const run_spec&, const run_spec&) = default;
};

/// The cell's replica count with the 0-means-1 default applied.
[[nodiscard]] inline usize resolved_replicas(const run_spec& s) {
  return s.replicas == 0 ? 1 : s.replicas;
}

/// The adversary seed replica `replica` of a cell runs under. Replica 0
/// keeps the base seed unchanged (so single-replica cells reproduce the
/// pre-replica engine exactly); replicas r >= 1 get splitmix64-derived
/// seeds, a pure function of (base, r) — independent of the cell's position
/// in any grid, so reordering or resharding a sweep never changes a
/// replica's execution.
[[nodiscard]] std::uint64_t replica_seed(std::uint64_t base, usize replica);

/// The single-execution spec replica `replica` of `cell` runs: the cell's
/// spec with the derived adversary seed and replicas = 1.
[[nodiscard]] run_spec replica_spec(const run_spec& cell, usize replica);

/// Everything a test, bench or the CLI needs to know about one finished
/// execution. Fields that do not apply to a given spec keep their defaults
/// (e.g. worst_pair_ratio outside kk×scheduled, wa_* outside write-all).
struct run_report {
  // --- spec echo (resolved values: beta defaulted, memory coerced) ---
  std::string label;
  algo_family algo = algo_family::kk;
  driver_kind driver = driver_kind::scheduled;
  memory_kind memory = memory_kind::sim;
  usize n = 0;
  usize m = 0;
  usize beta = 0;
  unsigned eps_inv = 1;
  usize crash_budget = 0;
  std::string adversary;  ///< resolved adversary name ("" for os_threads)
  std::uint64_t seed = 0;

  // --- liveness / scheduling ---
  usize total_steps = 0;  ///< scheduled: scheduler actions; threads: sum of per-thread actions
  usize crashes = 0;      ///< crash decisions honored / threads crashed
  bool quiescent = true;  ///< scheduled: no runnable process left before the step limit
  usize terminated = 0;   ///< processes that reached `end`
  double wall_seconds = 0.0;

  // --- safety / effectiveness ---
  usize effectiveness = 0;   ///< Do(alpha): distinct jobs performed
  usize perform_events = 0;  ///< total do actions; == effectiveness iff no
                             ///< duplicates (write-all families legally exceed it)
  bool at_most_once = true;
  job_id duplicate = no_job;

  // --- work accounting ---
  op_counter total_work;
  std::vector<kk_stats> per_process;  ///< kk family only, index pid-1
  usize total_collisions = 0;
  double worst_pair_ratio = 0.0;  ///< kk × scheduled: vs Lemma 5.5 pair bounds
  usize num_levels = 0;           ///< iterative families

  // --- write-all ---
  bool wa_complete = false;
  usize wa_written = 0;

  // --- trace (record_trace runs only) ---
  sim::trace trace;
};

/// Field-by-field equality over everything deterministic — i.e. everything
/// except wall_seconds and the recorded trace (replay runs reproduce the
/// trace; callers compare it separately when they care). This is the
/// "bit-identical per-cell results" relation the sweep layer guarantees.
[[nodiscard]] bool equivalent(const run_report& a, const run_report& b);

}  // namespace amo::exp
