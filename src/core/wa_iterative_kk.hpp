// WA_IterativeKK(eps) — Fig. 4 — solving the Write-All problem of
// Kanellakis & Shvartsman: "using m processors write 1's to all locations
// of an array of size n".
//
// The algorithm is iterative_process in write-all mode (each level returns
// FREE rather than FREE \ TRY, and the residual FREE set after the size-1
// level is performed unconditionally); exp::run builds it for the
// wa_iterative family. This header adds the Write-All array itself;
// baselines to compare against live in baselines/write_all_baselines.hpp.
#pragma once

#include <atomic>
#include <memory>

#include "core/iterative_kk.hpp"

namespace amo {

/// The shared array wa[1..n]. Cells are single-byte atomics so the same
/// object serves the simulated scheduler and real threads; Write-All
/// tolerates (indeed expects) duplicate writes, so relaxed ordering is
/// sufficient — completeness is checked after all threads join.
class write_all_array {
 public:
  explicit write_all_array(usize n) : n_(n), cells_(new std::atomic<std::uint8_t>[n]) {
    for (usize i = 0; i < n_; ++i) cells_[i].store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] usize size() const { return n_; }

  void set(job_id j) { cells_[j - 1].store(1, std::memory_order_relaxed); }

  [[nodiscard]] bool is_set(job_id j) const {
    return cells_[j - 1].load(std::memory_order_relaxed) != 0;
  }

  /// Number of cells already written.
  [[nodiscard]] usize count_set() const {
    usize c = 0;
    for (usize i = 0; i < n_; ++i) {
      c += cells_[i].load(std::memory_order_relaxed) != 0 ? 1 : 0;
    }
    return c;
  }

  /// True iff every cell holds 1 — the Write-All postcondition.
  [[nodiscard]] bool complete() const { return count_set() == n_; }

  /// First unwritten cell (diagnostics), or no_job if complete.
  [[nodiscard]] job_id first_unset() const {
    for (usize i = 0; i < n_; ++i) {
      if (cells_[i].load(std::memory_order_relaxed) == 0) {
        return static_cast<job_id>(i + 1);
      }
    }
    return no_job;
  }

 private:
  usize n_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> cells_;
};

}  // namespace amo
