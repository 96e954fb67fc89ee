// The test-and-set strawman the paper's related-work section points to:
// "one can associate a test-and-set bit with each job, ensuring that the job
// is assigned to the only process that successfully sets the shared bit. An
// effectiveness optimal implementation can then be easily obtained."
//
// This baseline deliberately steps OUTSIDE the paper's model (it uses a
// read-modify-write primitive, which atomic read/write registers cannot
// implement wait-free — Herlihy). It exists to demonstrate the gap the
// paper's core contribution closes: with RMW the problem is trivial and
// effectiveness is n - f; without it, KK_beta's n - 2m + 2 is the best
// deterministic bound known. Also doubles as the Malewicz-style comparator
// for Write-All (test-and-set based claiming).
//
// The claim board uses std::atomic<uint8_t>::exchange, so the same code runs
// under the simulated scheduler (where steps are serialized anyway) and real
// threads.
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "core/automaton.hpp"
#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo::baseline {

/// One test-and-set bit per job.
class tas_board {
 public:
  explicit tas_board(usize n) : n_(n), bits_(new std::atomic<std::uint8_t>[n]) {
    for (usize i = 0; i < n_; ++i) bits_[i].store(0, std::memory_order_relaxed);
  }

  /// Attempts to claim job j; true iff this caller won the bit.
  bool claim(job_id j, op_counter& oc) {
    ++oc.shared_writes;  // an RMW counts as one basic shared operation
    return bits_[j - 1].exchange(1, std::memory_order_seq_cst) == 0;
  }

  [[nodiscard]] usize size() const { return n_; }

 private:
  usize n_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> bits_;
};

/// Process p scans jobs starting at offset (p-1)*n/m (so contention is rare
/// when schedules are fair), claiming each job with TAS and performing the
/// ones it wins. Claim and perform are separate actions: a crash between
/// them loses exactly that one claimed job, which is how the n - f
/// effectiveness bound becomes tight for this algorithm too.
class tas_process final : public automaton {
 public:
  using perform_fn = std::function<void(process_id, job_id)>;

  tas_process(tas_board& board, usize m, process_id pid, perform_fn fn);

  void step() override;
  [[nodiscard]] bool runnable() const override { return !crashed_ && !done_; }
  void crash() override { crashed_ = true; }
  [[nodiscard]] process_id id() const override { return pid_; }
  [[nodiscard]] action_kind next_action() const override;
  [[nodiscard]] usize announce_count() const override { return claims_won_; }
  [[nodiscard]] usize perform_count() const override { return performed_; }
  [[nodiscard]] usize step_count() const override { return stats_.actions; }

  [[nodiscard]] const op_counter& work() const { return stats_; }

 private:
  tas_board& board_;
  process_id pid_;
  job_id cursor_;       ///< next job to attempt (1-based, wraps)
  usize attempts_ = 0;  ///< jobs attempted; done_ when == n
  job_id claimed_ = no_job;
  usize claims_won_ = 0;
  usize performed_ = 0;
  bool done_ = false;
  bool crashed_ = false;
  perform_fn fn_;
  op_counter stats_;
};

}  // namespace amo::baseline
