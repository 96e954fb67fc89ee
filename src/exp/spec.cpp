#include "exp/spec.hpp"

#include "util/prng.hpp"

namespace amo::exp {

std::uint64_t replica_seed(std::uint64_t base, usize replica) {
  if (replica == 0) return base;
  // splitmix64 over a state that folds the replica index in: distinct
  // replicas decorrelate even for adjacent base seeds (the registry hands
  // out seed, seed+1, ... across scenarios).
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(replica));
  return splitmix64(state);
}

bool crash_spec::should_crash(process_id pid, const automaton& a) const {
  switch (what) {
    case kind::none:
      return false;
    case kind::after_actions: {
      if (pid > per_thread.size()) return false;
      const usize at = per_thread[pid - 1];
      return at != 0 && a.step_count() >= at;
    }
    case kind::after_first_announce:
      return pid <= count && a.announce_count() >= 1;
  }
  return false;
}

run_spec replica_spec(const run_spec& cell, usize replica) {
  run_spec s = cell;
  s.adversary.seed = replica_seed(cell.adversary.seed, replica);
  s.replicas = 1;
  return s;
}

const char* to_string(algo_family f) {
  switch (f) {
    case algo_family::kk: return "kk";
    case algo_family::iterative: return "iterative";
    case algo_family::wa_iterative: return "wa_iterative";
    case algo_family::ao2: return "ao2";
    case algo_family::tas: return "tas";
    case algo_family::wa_trivial: return "wa_trivial";
    case algo_family::wa_split_scan: return "wa_split_scan";
    case algo_family::wa_progress_tree: return "wa_progress_tree";
    case algo_family::model_explore_por: return "model_explore_por";
  }
  return "?";
}

const char* to_string(driver_kind d) {
  switch (d) {
    case driver_kind::scheduled: return "scheduled";
    case driver_kind::os_threads: return "os_threads";
  }
  return "?";
}

const char* to_string(memory_kind m) {
  switch (m) {
    case memory_kind::sim: return "sim";
    case memory_kind::atomic: return "atomic";
  }
  return "?";
}

bool from_string(std::string_view name, algo_family& out) {
  for (const algo_family f :
       {algo_family::kk, algo_family::iterative, algo_family::wa_iterative,
        algo_family::ao2, algo_family::tas, algo_family::wa_trivial,
        algo_family::wa_split_scan, algo_family::wa_progress_tree,
        algo_family::model_explore_por}) {
    if (name == to_string(f)) {
      out = f;
      return true;
    }
  }
  return false;
}

bool equivalent(const run_report& a, const run_report& b) {
  // Everything deterministic; label/adversary/seed are identity not outcome
  // (a replay reproduces the execution under a different adversary name),
  // and wall_seconds / trace are excluded by contract.
  return a.algo == b.algo && a.driver == b.driver && a.memory == b.memory &&
         a.n == b.n && a.m == b.m && a.beta == b.beta &&
         a.eps_inv == b.eps_inv &&
         a.crash_budget == b.crash_budget && a.total_steps == b.total_steps &&
         a.crashes == b.crashes && a.quiescent == b.quiescent &&
         a.terminated == b.terminated && a.effectiveness == b.effectiveness &&
         a.perform_events == b.perform_events &&
         a.at_most_once == b.at_most_once && a.duplicate == b.duplicate &&
         a.total_work == b.total_work && a.per_process == b.per_process &&
         a.total_collisions == b.total_collisions &&
         a.worst_pair_ratio == b.worst_pair_ratio &&
         a.num_levels == b.num_levels && a.wa_complete == b.wa_complete &&
         a.wa_written == b.wa_written;
}

}  // namespace amo::exp
