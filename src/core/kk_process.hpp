// The KK_beta process automaton — Fig. 2 of Kentros & Kiayias, one
// transition per step() call, at most one shared-memory access per
// transition (the granularity all the paper's interleaving proofs assume).
//
// The class is templated over the shared-memory model M (sim_memory for the
// adversarial scheduler, atomic_memory for real threads); FREE is a
// bitset_rank_set, whose bitmap words let FREE \ TRY run word-parallel. The
// exact same algorithm code runs under simulation and on hardware.
//
// Algorithm recap (Section 3): a process picks a candidate job by splitting
// its view of the free jobs into m intervals and taking the first element of
// the p-th one; announces it in next_p; rebuilds TRY (other processes'
// announcements) and DONE/FREE (other processes' append-only done logs);
// performs the job only if nobody else announced or performed it; records
// it; repeats until fewer than beta candidates remain.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "core/automaton.hpp"
#include "core/kk_state.hpp"
#include "mem/memory_concept.hpp"
#include "sets/bitset_rank_set.hpp"
#include "sets/done_set.hpp"
#include "sets/rank_select.hpp"
#include "sets/try_set.hpp"
#include "util/op_counter.hpp"

namespace amo {

/// Per-process tallies; `work` is in the paper's basic-operation cost model.
struct kk_stats {
  op_counter work;
  usize announces = 0;       ///< setNext actions
  usize performs = 0;        ///< do_{p,j} actions
  usize records = 0;         ///< done_p actions
  usize comp_nexts = 0;      ///< compNext actions
  usize collisions_try = 0;  ///< check failed because NEXT in TRY
  usize collisions_done = 0; ///< check failed because NEXT in DONE

  friend bool operator==(const kk_stats&, const kk_stats&) = default;
};

template <class M>
  requires kk_memory<M>
class kk_process final : public automaton {
 public:
  using perform_fn = std::function<void(job_id)>;

  /// Process over the full job universe [1..mem.num_jobs()].
  kk_process(M& mem, const kk_config& cfg, perform_fn fn, kk_hooks hooks = {})
      : kk_process(mem, cfg,
                   bitset_rank_set::full(static_cast<job_id>(mem.num_jobs())),
                   std::move(fn), std::move(hooks)) {}

  /// Process whose initial FREE set is `input_jobs` (strictly ascending ids
  /// within [1..mem.num_jobs()]); this is how IterStepKK seeds each level.
  kk_process(M& mem, const kk_config& cfg, std::span<const job_id> input_jobs,
             perform_fn fn, kk_hooks hooks = {})
      : kk_process(mem, cfg,
                   bitset_rank_set(static_cast<job_id>(mem.num_jobs()),
                                   input_jobs),
                   std::move(fn), std::move(hooks)) {}

  kk_process(const kk_process&) = delete;
  kk_process& operator=(const kk_process&) = delete;

  // ----- automaton interface -----

  void step() override;
  [[nodiscard]] bool runnable() const override {
    return status_ != kk_status::end && status_ != kk_status::stop;
  }
  void crash() override { status_ = kk_status::stop; }
  [[nodiscard]] process_id id() const override { return pid_; }
  [[nodiscard]] action_kind next_action() const override;
  [[nodiscard]] usize announce_count() const override { return stats_.announces; }
  [[nodiscard]] usize perform_count() const override { return stats_.performs; }
  [[nodiscard]] usize step_count() const override { return stats_.work.actions; }

  // ----- introspection -----

  [[nodiscard]] kk_status status() const { return status_; }
  [[nodiscard]] const kk_stats& stats() const { return stats_; }
  [[nodiscard]] job_id current_next() const { return next_; }
  [[nodiscard]] const bitset_rank_set& free_view() const { return free_; }
  [[nodiscard]] const done_set& done_view() const { return done_; }
  [[nodiscard]] const try_set& try_view() const { return try_; }

  /// The set this process returned on termination: FREE \ TRY in plain and
  /// iter_step modes, FREE in wa_iter_step mode (Sections 6-7). Valid once
  /// status() == end; sorted ascending.
  [[nodiscard]] const std::vector<job_id>& output() const {
    assert(status_ == kk_status::end);
    return output_;
  }

 private:
  /// The two public constructors' shared body, over the initial FREE set.
  kk_process(M& mem, const kk_config& cfg, bitset_rank_set initial_free,
             perform_fn fn, kk_hooks hooks);

  [[nodiscard]] op_counter& work() { return stats_.work; }

  /// compNext's interval arithmetic (Fig. 2): the 1-based rank inside
  /// FREE \ TRY of the candidate this process should announce.
  [[nodiscard]] usize choose_rank_index(usize avail) const;

  void act_flag_poll();
  void act_comp_next();
  void act_flag_raise();
  void act_set_next();
  void act_gather_try();
  void act_gather_done();
  void act_check();
  void act_flag_gate();
  void act_perform();
  void act_record();

  void begin_finalize();
  void finish_output();

  M& mem_;
  const process_id pid_;
  const usize m_;
  const usize beta_;
  const kk_mode mode_;
  const selection_rule rule_;
  const usize universe_;

  kk_status status_;
  bitset_rank_set free_;
  done_set done_;
  try_set try_;
  std::vector<usize> pos_;  ///< POS_p (Fig. 1), 1-based, index 1..m
  job_id next_ = no_job;
  process_id q_ = 1;
  bool finalizing_ = false;

  /// |FREE \ TRY| cache. compNext charges the cost model's recomputation
  /// price but skips the recomputation when the cache is valid; the cache is
  /// invalidated on exactly the events that can change the difference — a
  /// fresh TRY insert or a FREE erase observed in a gather pass — and
  /// revalidated on TRY clear and on the recomputation itself. The own-record erase is maintained in place instead: `check`
  /// just proved NEXT is not in TRY, so the difference shrinks by one.
  /// In quiescent schedules the gather passes observe nothing new and every
  /// compNext after the first is O(1); under churn the recomputation runs
  /// exactly as often as the reference implementation would.
  usize avail_cache_ = 0;
  bool avail_cache_valid_ = false;

  void note_try_insert(bool fresh) {
    if (fresh) avail_cache_valid_ = false;
  }

  void note_gather_erase() { avail_cache_valid_ = false; }

  void note_record_erase(bool erased) {
    if (erased && avail_cache_valid_) --avail_cache_;
  }

  void note_try_clear() {
    avail_cache_ = free_.size();
    avail_cache_valid_ = true;
  }

  perform_fn perform_;
  kk_hooks hooks_;
  kk_stats stats_;
  std::vector<job_id> output_;
};

// ----- implementation -----

template <class M>
  requires kk_memory<M>
kk_process<M>::kk_process(M& mem, const kk_config& cfg,
                          bitset_rank_set initial_free, perform_fn fn,
                          kk_hooks hooks)
    : mem_(mem),
      pid_(cfg.pid),
      m_(cfg.num_processes),
      beta_(cfg.beta == 0 ? cfg.num_processes : cfg.beta),
      mode_(cfg.mode),
      rule_(cfg.rule),
      universe_(mem.num_jobs()),
      status_(cfg.mode == kk_mode::plain ? kk_status::comp_next
                                         : kk_status::flag_poll),
      free_(std::move(initial_free)),
      done_(static_cast<job_id>(universe_)),
      pos_(m_ + 1, 1),
      perform_(std::move(fn)),
      hooks_(std::move(hooks)) {
  assert(pid_ >= 1 && pid_ <= m_);
  assert(m_ == mem.num_processes());
  assert(free_.universe() == universe_);
  free_.set_counter(&stats_.work);
  done_.set_counter(&stats_.work);
  try_.set_counter(&stats_.work);
  if (universe_ >= 1 && m_ > word_parallel_threshold + 1) {
    // The shadow bitmap powers the word-parallel FREE \ TRY paths in
    // rank_select.hpp; it is pure representation and never charges work.
    // |TRY| < m, so below the threshold those paths can never engage and
    // the bitmap would be dead weight on the gather hot path.
    try_.bind_universe(static_cast<job_id>(universe_));
  }
  avail_cache_ = free_.size();  // TRY starts empty, so FREE \ TRY = FREE
  avail_cache_valid_ = true;
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::step() {
  assert(runnable());
  ++stats_.work.actions;
  switch (status_) {
    case kk_status::flag_poll: act_flag_poll(); break;
    case kk_status::comp_next: act_comp_next(); break;
    case kk_status::flag_raise: act_flag_raise(); break;
    case kk_status::set_next: act_set_next(); break;
    case kk_status::gather_try: act_gather_try(); break;
    case kk_status::gather_done: act_gather_done(); break;
    case kk_status::check: act_check(); break;
    case kk_status::flag_gate: act_flag_gate(); break;
    case kk_status::perform: act_perform(); break;
    case kk_status::record: act_record(); break;
    case kk_status::end:
    case kk_status::stop: break;  // unreachable; runnable() asserted above
  }
}

template <class M>
  requires kk_memory<M>
action_kind kk_process<M>::next_action() const {
  switch (status_) {
    case kk_status::comp_next:
    case kk_status::check: return action_kind::local_compute;
    case kk_status::set_next: return action_kind::announce;
    case kk_status::flag_poll:
    case kk_status::flag_gate:
    case kk_status::gather_try:
    case kk_status::gather_done: return action_kind::gather;
    case kk_status::flag_raise: return action_kind::record;  // shared write
    case kk_status::perform: return action_kind::perform;
    case kk_status::record: return action_kind::record;
    case kk_status::end: return action_kind::terminated;
    case kk_status::stop: return action_kind::crashed;
  }
  return action_kind::local_compute;
}

template <class M>
  requires kk_memory<M>
usize kk_process<M>::choose_rank_index(usize avail) const {
  usize idx;
  if (rule_ == selection_rule::two_ends) {
    // Odd processes count from the low end, even from the high end; with
    // m = 2 this is exactly the left/right sweep of the AO2 baseline.
    if (pid_ % 2 == 1) {
      idx = (pid_ + 1) / 2;
    } else {
      const usize from_high = pid_ / 2;  // >= 1
      idx = avail >= from_high ? avail - from_high + 1 : 1;
    }
  } else {
    // Fig. 2: TMP <- (|FREE| - (m-1)) / m over the reals; if TMP >= 1 the
    // candidate rank is floor((p-1)*TMP) + 1, else it is p. Integer form:
    // TMP >= 1 iff |FREE| >= 2m - 1.
    const usize f = free_.size();
    if (f >= 2 * m_ - 1) {
      idx = static_cast<usize>((static_cast<std::uint64_t>(pid_ - 1) *
                                static_cast<std::uint64_t>(f - m_ + 1)) /
                               m_) +
            1;
    } else {
      idx = pid_;
    }
  }
  // For beta >= m the paper guarantees idx <= |FREE \ TRY| (Section 3); the
  // clamp only matters in the beta < m experimentation regime, where
  // termination is forfeit anyway but safety must hold for any selection.
  if (idx > avail) idx = avail;
  return idx;
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_flag_poll() {
  if (mem_.read_flag(work())) {
    begin_finalize();
  } else {
    status_ = kk_status::comp_next;
  }
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_comp_next() {
  ++stats_.comp_nexts;
  usize avail;
  if (avail_cache_valid_) {
    // The cache already holds |FREE \ TRY|; charge the cost model's price
    // for the recomputation (one unit per TRY entry on the operator plus
    // one FREE contains() unit each — what size_excluding charges) and
    // skip the work itself.
    work().local_ops += 2 * try_.size();
    avail = avail_cache_;
    assert(avail == detail::size_excluding_uncharged(free_, try_));
  } else {
    avail = size_excluding(free_, try_, &work());
    avail_cache_ = avail;  // the recomputation revalidates the cache
    avail_cache_valid_ = true;
  }
  if (avail >= beta_ && avail > 0) {
    const usize idx = choose_rank_index(avail);
    next_ = rank_excluding(free_, try_, idx, &work());
    q_ = 1;
    try_.clear();
    note_try_clear();
    status_ = kk_status::set_next;
  } else if (mode_ == kk_mode::plain) {
    finish_output();
  } else {
    status_ = kk_status::flag_raise;
  }
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_flag_raise() {
  mem_.raise_flag(work());
  begin_finalize();
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_set_next() {
  mem_.write_next(pid_, next_, work());
  ++stats_.announces;
  if (hooks_.on_announce) hooks_.on_announce(pid_, next_);
  status_ = kk_status::gather_try;
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_gather_try() {
  if (q_ != pid_) {
    const job_id v = mem_.read_next(q_, work());
    if (v > no_job) note_try_insert(try_.insert(v, q_));
  }
  if (q_ + 1 <= m_) {
    ++q_;
  } else {
    q_ = 1;
    status_ = kk_status::gather_done;
  }
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_gather_done() {
  bool advance = true;
  if (q_ != pid_) {
    const usize pos = pos_[q_];
    // Fig. 2 reads done_{Q,POS(Q)} and then tests POS(Q) <= n && value > 0;
    // we hoist the bounds test so the matrix access itself stays in range.
    if (pos <= universe_) {
      const job_id v = mem_.read_done(q_, pos, work());
      if (v > no_job) {
        done_.insert(v);
        if (free_.erase(v)) note_gather_erase();
        pos_[q_] = pos + 1;
        advance = false;  // same row again next action: more may follow
      }
    }
  }
  if (advance) {
    ++q_;
    if (q_ > m_) {
      q_ = 1;
      if (finalizing_) {
        finish_output();
      } else {
        status_ = kk_status::check;
      }
    }
  }
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_check() {
  process_id announcer = 0;
  bool via_done = false;
  bool safe = true;
  if (try_.contains(next_)) {
    safe = false;
    announcer = try_.announcer_of(next_);
  } else if (done_.contains(next_)) {
    safe = false;
    via_done = true;
  }
  if (safe) {
    status_ = mode_ == kk_mode::plain ? kk_status::perform : kk_status::flag_gate;
  } else {
    if (via_done) {
      ++stats_.collisions_done;
    } else {
      ++stats_.collisions_try;
    }
    if (hooks_.on_collision) hooks_.on_collision(pid_, next_, announcer, via_done);
    status_ = mode_ == kk_mode::plain ? kk_status::comp_next : kk_status::flag_poll;
  }
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_flag_gate() {
  if (mem_.read_flag(work())) {
    begin_finalize();
  } else {
    status_ = kk_status::perform;
  }
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_perform() {
  ++stats_.performs;
  if (hooks_.on_perform) hooks_.on_perform(pid_, next_);
  if (perform_) perform_(next_);
  status_ = kk_status::record;
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::act_record() {
  mem_.write_done(pid_, pos_[pid_], next_, work());
  ++stats_.records;
  done_.insert(next_);
  note_record_erase(free_.erase(next_));
  ++pos_[pid_];
  status_ = mode_ == kk_mode::plain ? kk_status::comp_next : kk_status::flag_poll;
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::begin_finalize() {
  // Section 6: the process "computes new sets FREE_p and TRY_p, returns the
  // set FREE_p \ TRY_p and terminates" — i.e. one more full gather pass
  // after setting/observing the flag, then exit.
  finalizing_ = true;
  q_ = 1;
  try_.clear();
  note_try_clear();
  status_ = kk_status::gather_try;
}

template <class M>
  requires kk_memory<M>
void kk_process<M>::finish_output() {
  output_ = free_.to_vector();
  if (mode_ != kk_mode::wa_iter_step) {
    // FREE \ TRY. TRY has < m entries, so one erase-pass is cheap.
    std::erase_if(output_, [&](job_id j) { return try_.contains(j); });
  }
  status_ = kk_status::end;
}

}  // namespace amo
