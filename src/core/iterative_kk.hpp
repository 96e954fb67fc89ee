// IterativeKK(eps) — Fig. 3 — and its Write-All variant WA_IterativeKK(eps)
// — Fig. 4 — as a composed automaton.
//
// Each process runs a sequence of IterStepKK instances, one per level of
// the plan, each over progressively finer super-jobs. There is no barrier
// between levels: a process moves on as soon as its own level instance
// terminates. Safety across levels is Lemma 6.2's argument: a level
// instance only returns super-jobs after setting/observing the level's
// termination flag and then re-gathering TRY and DONE, so nothing it
// returns can still be performed by a straggler at that level (stragglers
// re-check the flag between `check` and `do`).
//
// In Write-All mode each level returns FREE instead of FREE \ TRY, and
// after the final (size-1) level the process simply performs every job left
// in its FREE view (lines 14-16 of Fig. 4) — duplicates are allowed there,
// coverage is what matters.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "core/kk_process.hpp"
#include "core/super_job.hpp"

namespace amo {

/// Shared state of one IterativeKK run: the plan plus one Fig. 1 register
/// file per level (each with its own `next` array, `done` matrix and
/// termination flag, sized to that level's super-job count — the paper's
/// "3 + 1/eps distinct matrices done and vectors next").
template <class M>
  requires kk_memory<M>
struct iterative_shared {
  iterative_plan plan;
  std::vector<std::unique_ptr<M>> level_mem;

  explicit iterative_shared(iterative_plan p) : plan(std::move(p)) {
    level_mem.reserve(plan.levels.size());
    for (const auto& lv : plan.levels) {
      level_mem.push_back(std::make_unique<M>(plan.m, lv.count()));
    }
  }
};

/// Per-process tallies aggregated across levels.
struct iterative_stats {
  op_counter work;
  usize super_performs = 0;  ///< do actions on super-jobs (all levels)
  usize real_jobs = 0;       ///< real jobs executed through those dos
  usize collisions = 0;
  usize levels_completed = 0;
};

template <class M>
  requires kk_memory<M>
class iterative_process final : public automaton {
 public:
  using perform_fn = std::function<void(job_id)>;  // receives REAL job ids
  /// Optional per-level observation hooks (job ids passed to them are
  /// super-job ids of that level).
  using hook_factory = std::function<kk_hooks(usize level, const super_job_space&)>;

  iterative_process(iterative_shared<M>& shared, process_id pid, bool write_all,
                    perform_fn fn, hook_factory hooks = {})
      : shared_(shared),
        pid_(pid),
        write_all_(write_all),
        fn_(std::move(fn)),
        hook_factory_(std::move(hooks)) {
    level_outputs_.reserve(shared_.plan.levels.size());
  }

  iterative_process(const iterative_process&) = delete;
  iterative_process& operator=(const iterative_process&) = delete;

  // ----- automaton interface -----

  void step() override;
  [[nodiscard]] bool runnable() const override { return !crashed_ && !finished_; }
  void crash() override {
    crashed_ = true;
    if (inner_) inner_->crash();
  }
  [[nodiscard]] process_id id() const override { return pid_; }
  [[nodiscard]] action_kind next_action() const override {
    if (finished_) return action_kind::terminated;
    if (crashed_) return action_kind::crashed;
    if (!inner_) return action_kind::local_compute;  // level transition
    if (final_phase_) return action_kind::perform;
    return inner_->next_action();
  }
  [[nodiscard]] usize announce_count() const override {
    return totals_announces_ + (inner_ ? inner_->announce_count() : 0);
  }
  [[nodiscard]] usize perform_count() const override {
    return stats_.super_performs + final_index_;
  }
  [[nodiscard]] usize step_count() const override { return steps_; }

  // ----- introspection -----

  [[nodiscard]] const iterative_stats& stats() const { return stats_; }
  /// True once the whole pipeline (all levels, plus the residual drain in
  /// Write-All mode) has completed; false for crashed processes.
  [[nodiscard]] bool finished() const { return finished_; }
  /// Super-job sets returned by each completed level (test oracle for
  /// Lemma 6.2). Sorted ascending, in that level's id space.
  [[nodiscard]] const std::vector<std::vector<job_id>>& level_outputs() const {
    return level_outputs_;
  }

 private:
  using inner_process = kk_process<M>;

  void start_level();
  void harvest_level();

  iterative_shared<M>& shared_;
  const process_id pid_;
  const bool write_all_;
  perform_fn fn_;
  hook_factory hook_factory_;

  usize level_ = 0;
  std::unique_ptr<inner_process> inner_;
  std::vector<std::vector<job_id>> level_outputs_;

  bool final_phase_ = false;  ///< WA lines 14-16: drain residual FREE
  std::vector<job_id> final_jobs_;
  usize final_index_ = 0;

  bool crashed_ = false;
  bool finished_ = false;
  usize steps_ = 0;
  usize totals_announces_ = 0;
  iterative_stats stats_;
  op_counter perform_expansion_work_;  ///< real-job execution charges
};

// ----- implementation -----

template <class M>
  requires kk_memory<M>
void iterative_process<M>::step() {
  assert(runnable());
  ++steps_;
  if (final_phase_) {
    // One residual job per action (Fig. 4 line 15).
    ++stats_.work.actions;
    const job_id j = final_jobs_[final_index_++];
    ++stats_.real_jobs;
    ++stats_.work.local_ops;
    if (fn_) fn_(j);
    if (final_index_ == final_jobs_.size()) finished_ = true;
    return;
  }
  if (!inner_) {
    // Level-transition action: run map() and instantiate the level's
    // IterStepKK (Fig. 3 lines 02-03 / 07-08 / 12-13).
    start_level();
    return;
  }
  inner_->step();
  if (!inner_->runnable()) harvest_level();
}

template <class M>
  requires kk_memory<M>
void iterative_process<M>::start_level() {
  ++stats_.work.actions;
  const iterative_plan& plan = shared_.plan;
  const super_job_space& space = plan.levels[level_];

  kk_config cfg;
  cfg.pid = pid_;
  cfg.num_processes = plan.m;
  cfg.beta = plan.beta;
  cfg.mode = write_all_ ? kk_mode::wa_iter_step : kk_mode::iter_step;

  // Executing a super-job = executing each covered real job (the paper
  // charges O(1) work per covered job; we do the same through
  // perform_expansion_work_).
  auto expanded = [this, space](job_id s) {
    const job_id lo = space.first_job(s);
    const job_id hi = space.last_job(s);
    for (job_id j = lo; j <= hi; ++j) {
      ++stats_.real_jobs;
      ++perform_expansion_work_.local_ops;
      if (fn_) fn_(j);
    }
  };
  kk_hooks hooks;
  if (hook_factory_) hooks = hook_factory_(level_, space);

  if (level_ == 0) {
    inner_ = std::make_unique<inner_process>(*shared_.level_mem[0], cfg,
                                             std::move(expanded), std::move(hooks));
    // map(J, 1, size_0) over the full universe: charge its O(count) build.
    stats_.work.local_ops += space.count();
  } else {
    const super_job_space& prev = plan.levels[level_ - 1];
    // The level's initial FREE set seeds the inner process's own set and
    // is dropped here: m processes each holding theirs for the whole level
    // was most of a run's peak heap.
    const std::vector<job_id> input =
        map_super_jobs(level_outputs_.back(), prev, space);
    stats_.work.local_ops += level_outputs_.back().size() + input.size();
    inner_ = std::make_unique<inner_process>(*shared_.level_mem[level_], cfg,
                                             input, std::move(expanded),
                                             std::move(hooks));
  }
}

template <class M>
  requires kk_memory<M>
void iterative_process<M>::harvest_level() {
  const kk_stats& ks = inner_->stats();
  stats_.work += ks.work;
  stats_.work += perform_expansion_work_;
  perform_expansion_work_ = {};
  stats_.super_performs += ks.performs;
  stats_.collisions += ks.collisions_try + ks.collisions_done;
  totals_announces_ += ks.announces;
  ++stats_.levels_completed;
  level_outputs_.push_back(inner_->output());
  inner_.reset();

  ++level_;
  if (level_ < shared_.plan.levels.size()) return;

  if (write_all_) {
    // Fig. 4 lines 14-16: the last level ran at size 1, so its output is a
    // set of real jobs; perform them unconditionally.
    final_jobs_ = level_outputs_.back();
    final_index_ = 0;
    if (final_jobs_.empty()) {
      finished_ = true;
    } else {
      final_phase_ = true;
    }
  } else {
    finished_ = true;
  }
}

}  // namespace amo
