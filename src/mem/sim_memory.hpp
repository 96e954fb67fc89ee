// Simulation backend for the Fig. 1 register file.
//
// The scheduler executes exactly one I/O-automaton action at a time and each
// action touches shared memory at most once, so plain (non-atomic) storage
// is sufficient: every simulated execution is by construction a
// linearization, which is precisely the model the paper analyzes (Section
// 2.1: "all the asynchronous executions are linearizable").
//
// `done` rows grow on demand (a substitution for the preallocated matrix):
// semantically identical to the paper's m x n matrix — cells are written
// once, in order, and read only at indices at or below the writer's
// high-water mark — but avoids O(m*n) allocation at large n.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo {

class sim_memory {
 public:
  /// Register file for m processes and n jobs (job ids 1..n).
  sim_memory(usize num_processes, usize num_jobs);

  [[nodiscard]] usize num_processes() const { return m_; }
  [[nodiscard]] usize num_jobs() const { return n_; }

  [[nodiscard]] job_id read_next(process_id q, op_counter& oc) {
    ++oc.shared_reads;
    ++total_ops_;
    return next_[q - 1];
  }

  void write_next(process_id p, job_id v, op_counter& oc) {
    ++oc.shared_writes;
    ++total_ops_;
    next_[p - 1] = v;
  }

  /// Reads done[q][pos] (pos 1-based). Cells never written read as 0,
  /// matching the paper's initial value.
  [[nodiscard]] job_id read_done(process_id q, usize pos, op_counter& oc) {
    ++oc.shared_reads;
    ++total_ops_;
    assert(pos >= 1 && pos <= n_);
    const auto& row = done_[q - 1];
    return pos <= row.size() ? row[pos - 1] : no_job;
  }

  void write_done(process_id p, [[maybe_unused]] usize pos, job_id v,
                  op_counter& oc) {
    ++oc.shared_writes;
    ++total_ops_;
    auto& row = done_[p - 1];
    assert(pos == row.size() + 1 && "done rows are append-only");
    assert(pos <= n_);
    row.push_back(v);
  }

  [[nodiscard]] bool read_flag(op_counter& oc) {
    ++oc.shared_reads;
    ++total_ops_;
    return flag_;
  }

  void raise_flag(op_counter& oc) {
    ++oc.shared_writes;
    ++total_ops_;
    flag_ = true;
  }

  // ----- uncharged observation API (adversaries, analysis, tests) -----

  [[nodiscard]] job_id peek_next(process_id q) const { return next_[q - 1]; }
  [[nodiscard]] const std::vector<job_id>& peek_done_row(process_id q) const {
    return done_[q - 1];
  }
  [[nodiscard]] bool peek_flag() const { return flag_; }
  /// Total shared accesses across all processes (sanity cross-check against
  /// the sum of per-process counters).
  [[nodiscard]] std::uint64_t total_shared_ops() const { return total_ops_; }

 private:
  usize m_;
  usize n_;
  std::vector<job_id> next_;
  std::vector<std::vector<job_id>> done_;
  bool flag_ = false;
  std::uint64_t total_ops_ = 0;
};

}  // namespace amo
