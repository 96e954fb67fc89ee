// Write-All baselines for experiment E7 (bench_paper): the comparison
// set against WA_IterativeKK(eps).
//
//   wa_trivial_process       every process writes every cell: work m*n,
//                            maximally fault-tolerant, maximally wasteful.
//   wa_split_scan_process    write own n/m block, then scan the whole array
//                            writing any still-zero cell: one surviving
//                            process guarantees completion; work between
//                            n + n (reads) and ~2mn under crashes.
//   wa_progress_tree_process a Kanellakis/Shvartsman W-style heuristic: an
//                            advisory count tree steers processes toward the
//                            least-finished region; a local certification
//                            sweep guarantees termination and completeness
//                            regardless of advisory-count races. Counts are
//                            multi-writer registers (the classic W algorithm
//                            also assumes them).
//   TAS-based Write-All      use baselines/tas_executor.hpp with a perform
//                            function that writes the array: the
//                            Malewicz-style with-RMW comparator.
//
// All are simulation automatons (one shared access per step) writing a
// write_all_array; work is tallied in the paper's basic-operation model.
#pragma once

#include <vector>

#include "core/automaton.hpp"
#include "core/wa_iterative_kk.hpp"
#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo::baseline {

/// Everyone writes everything.
class wa_trivial_process final : public automaton {
 public:
  wa_trivial_process(write_all_array& wa, process_id pid);

  void step() override;
  [[nodiscard]] bool runnable() const override {
    return !crashed_ && cursor_ <= wa_.size();
  }
  void crash() override { crashed_ = true; }
  [[nodiscard]] process_id id() const override { return pid_; }
  [[nodiscard]] action_kind next_action() const override {
    if (crashed_) return action_kind::crashed;
    return runnable() ? action_kind::perform : action_kind::terminated;
  }
  [[nodiscard]] usize announce_count() const override { return 0; }
  [[nodiscard]] usize perform_count() const override { return cursor_ - 1; }
  [[nodiscard]] usize step_count() const override { return stats_.actions; }
  [[nodiscard]] const op_counter& work() const { return stats_; }

 private:
  write_all_array& wa_;
  process_id pid_;
  usize cursor_ = 1;
  bool crashed_ = false;
  op_counter stats_;
};

/// Own block first, then help-scan the rest.
class wa_split_scan_process final : public automaton {
 public:
  wa_split_scan_process(write_all_array& wa, usize m, process_id pid);

  void step() override;
  [[nodiscard]] bool runnable() const override { return !crashed_ && !done_; }
  void crash() override { crashed_ = true; }
  [[nodiscard]] process_id id() const override { return pid_; }
  [[nodiscard]] action_kind next_action() const override {
    if (crashed_) return action_kind::crashed;
    if (done_) return action_kind::terminated;
    return phase_ == 0 ? action_kind::perform : action_kind::gather;
  }
  [[nodiscard]] usize announce_count() const override { return 0; }
  [[nodiscard]] usize perform_count() const override { return writes_; }
  [[nodiscard]] usize step_count() const override { return stats_.actions; }
  [[nodiscard]] const op_counter& work() const { return stats_; }

 private:
  write_all_array& wa_;
  process_id pid_;
  usize phase_ = 0;  ///< 0: own block; 1: help scan
  usize cursor_;     ///< within current phase
  usize block_lo_;
  usize block_hi_;
  usize writes_ = 0;
  bool pending_write_ = false;  ///< help scan found a zero; write it next step
  bool done_ = false;
  bool crashed_ = false;
  op_counter stats_;
};

/// Advisory count tree shared by all wa_progress_tree_process instances.
/// counts[v] estimates how many cells below internal node v are written;
/// multi-writer, racy by design — correctness never depends on it.
struct wa_count_tree {
  explicit wa_count_tree(usize num_leaves);
  usize leaves;                     ///< padded to a power of two
  std::vector<std::uint32_t> count; ///< 1-based heap layout, size 2*leaves
};

/// W-style traversal: repeatedly descend the count tree toward the least
/// finished leaf group, certify/fix its cells, and push updated counts back
/// up. A per-process certification bitmap guarantees termination: the
/// process is done exactly when it has itself observed every leaf group
/// complete (possibly by completing it).
class wa_progress_tree_process final : public automaton {
 public:
  /// `group` cells per leaf (power of two recommended).
  wa_progress_tree_process(write_all_array& wa, wa_count_tree& tree,
                           process_id pid, usize group);

  void step() override;
  [[nodiscard]] bool runnable() const override { return !crashed_ && !done_; }
  void crash() override { crashed_ = true; }
  [[nodiscard]] process_id id() const override { return pid_; }
  [[nodiscard]] action_kind next_action() const override {
    if (crashed_) return action_kind::crashed;
    if (done_) return action_kind::terminated;
    return phase_ == phase::fix ? action_kind::perform : action_kind::gather;
  }
  [[nodiscard]] usize announce_count() const override { return 0; }
  [[nodiscard]] usize perform_count() const override { return writes_; }
  [[nodiscard]] usize step_count() const override { return stats_.actions; }
  [[nodiscard]] const op_counter& work() const { return stats_; }

 private:
  enum class phase : std::uint8_t { descend, fix, ascend };

  [[nodiscard]] usize cells_lo(usize leaf) const { return leaf * group_ + 1; }
  [[nodiscard]] usize cells_hi(usize leaf) const;
  void finish_leaf();
  void choose_next_target();

  write_all_array& wa_;
  wa_count_tree& tree_;
  process_id pid_;
  usize group_;
  usize num_groups_;  ///< real (unpadded) leaf-group count

  phase phase_ = phase::descend;
  usize node_ = 1;    ///< current tree node (heap index), descend phase
  usize leaf_ = 0;    ///< target leaf group (0-based), fix/ascend phases
  usize cell_ = 0;    ///< next cell within leaf, fix phase
  usize fresh_ = 0;   ///< cells this process wrote in current leaf

  std::vector<bool> certified_;  ///< leaf groups this process saw complete
  usize certified_count_ = 0;
  usize sweep_cursor_ = 0;  ///< fallback sequential certification order
  usize stale_descents_ = 0;

  usize writes_ = 0;
  bool done_ = false;
  bool crashed_ = false;
  op_counter stats_;
};

}  // namespace amo::baseline
