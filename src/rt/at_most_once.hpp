// amo/amo.hpp-style public facade — the API a downstream user adopts.
//
//   amo::run_config cfg{.num_jobs = 100000, .num_threads = 8};
//   amo::run_report r = amo::perform_at_most_once(cfg, [&](amo::job_id j) {
//     fire_actuator(j);  // runs at most once per j, across all threads,
//                        // wait-free, even if threads die mid-flight
//   });
//
// Guarantees (from the paper, for the default beta = num_threads):
//   * safety      — no job callback runs twice (Lemma 4.1), even under
//                   arbitrary thread crashes;
//   * wait-free   — every surviving thread finishes in bounded steps
//                   (Lemma 4.3);
//   * effectiveness — if no thread crashes, at least
//                   num_jobs - 2*num_threads + 2 jobs are performed
//                   (Theorem 4.4); each crash can strand at most one
//                   additional announced job.
//
// Choose the iterative variant for very large job counts where work
// (total CPU operations) matters more than the last ~m^2 log n log m jobs
// of effectiveness (Theorem 6.4), and write_all when every slot must be
// covered at least once instead (Theorem 7.1).
#pragma once

#include <functional>
#include <vector>

#include "util/types.hpp"

namespace amo {

struct run_config {
  usize num_jobs = 0;
  usize num_threads = 1;
  /// Termination parameter beta (>= num_threads). 0 selects beta =
  /// num_threads, the effectiveness-optimal setting n - 2m + 2.
  usize beta = 0;
  /// When true, run_report.performed lists every executed job id (sorted).
  /// Useful for checkpointing: persist it and resubmit only the complement.
  bool collect_performed = false;
};

struct run_report {
  usize jobs_performed = 0;   ///< distinct jobs executed
  usize jobs_unperformed = 0; ///< num_jobs - jobs_performed
  bool at_most_once = true;   ///< post-hoc verification result
  usize threads_finished = 0;
  double wall_seconds = 0.0;
  std::uint64_t total_shared_ops = 0;
  /// Sorted ids of the jobs that ran (only if cfg.collect_performed).
  std::vector<job_id> performed;
};

/// Performs jobs 1..cfg.num_jobs at most once each across cfg.num_threads
/// threads, using only atomic read/write shared memory (algorithm KK_beta).
run_report perform_at_most_once(const run_config& cfg,
                                const std::function<void(job_id)>& job);

/// Same contract via IterativeKK(eps): asymptotically work-optimal for
/// m = O((n / log n)^{1/(3+eps)}); trades ~m^2 log n log m effectiveness.
run_report perform_at_most_once_iterative(const run_config& cfg,
                                          unsigned eps_inv,
                                          const std::function<void(job_id)>& job);

struct write_all_config {
  usize num_slots = 0;
  usize num_threads = 1;
  unsigned eps_inv = 1;
};

struct write_all_report {
  bool complete = false;  ///< every slot covered at least once
  usize slots_written = 0;
  usize callback_invocations = 0;  ///< >= slots_written (duplicates allowed)
  double wall_seconds = 0.0;
};

/// Solves Write-All (Kanellakis-Shvartsman): invokes `slot` at least once
/// for every id in 1..num_slots, crash-tolerantly, with total work
/// O(n + m^{3+eps} log n) (algorithm WA_IterativeKK).
write_all_report write_all(const write_all_config& cfg,
                           const std::function<void(job_id)>& slot);

}  // namespace amo
