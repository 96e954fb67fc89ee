// The execution engine for the I/O-automaton model of Section 2.1: at each
// round the adversary names a runnable process, which then executes exactly
// one transition. Because every transition touches shared memory at most
// once, the resulting sequence is a linearization of the concurrent system —
// precisely the executions quantified over in the paper's proofs.
//
// The one scheduling loop of the repository. It is a template over the
// process type and the adversary type: with a final process class and a
// concrete adversary, step()/runnable() and decide() all inline into the
// loop, and a local adversary's PRNG state stays in registers. The scalar
// engine and the batched replica engine both run it; with Proc = automaton
// and Adv = adversary it is the fully virtual loop.
#pragma once

#include <cassert>
#include <type_traits>
#include <vector>

#include "core/automaton.hpp"
#include "sim/adversary.hpp"
#include "util/math.hpp"
#include "util/types.hpp"

namespace amo::sim {

struct run_result {
  usize total_steps = 0;
  usize crashes = 0;
  /// True when every process reached `end` or `stop` (a finite fair
  /// execution); false when the step limit cut the run short.
  bool quiescent = false;
};

template <class Proc = automaton>
class scheduler {
 public:
  /// Processes must be indexed so that processes[i]->id() == i+1.
  explicit scheduler(std::vector<Proc*> processes)
      : processes_(std::move(processes)) {
    handles_.reserve(processes_.size());
    for (usize i = 0; i < processes_.size(); ++i) {
      assert(processes_[i] != nullptr);
      assert(processes_[i]->id() == i + 1 && "processes must be pid-ordered");
      handles_.push_back(processes_[i]);
    }
    runnable_.reserve(processes_.size());
  }

  /// Runs under `adv` until no process is runnable or `max_steps` actions
  /// executed. `crash_budget` is the paper's f (at most m-1 makes sense;
  /// the scheduler enforces whatever is passed).
  template <class Adv>
  run_result run(Adv& adv, usize crash_budget, usize max_steps) {
    if constexpr (std::is_move_constructible_v<Adv> &&
                  std::is_move_assignable_v<Adv>) {
      // Drive a local: its address never escapes the loop, so the optimizer
      // can keep the adversary's state (the PRNG stream) in registers across
      // the opaque hook calls inside step().
      Adv local(std::move(adv));
      const run_result result = loop(local, crash_budget, max_steps);
      adv = std::move(local);
      return result;
    } else {
      return loop(adv, crash_budget, max_steps);
    }
  }

 private:
  template <class Adv>
  [[gnu::always_inline]] run_result loop(Adv& adv, usize crash_budget,
                                         usize max_steps) {
    run_result result;
    rebuild_runnable();
    while (!runnable_.empty() && result.total_steps < max_steps) {
      const sched_view view{handles_, runnable_, result.total_steps,
                            result.crashes, crash_budget};
      const decision d = adv.decide(view);
      Proc* target = processes_[d.pid - 1];
      assert(target->runnable() && "adversary must pick a runnable process");
      if (d.what == decision::kind::crash && result.crashes < crash_budget) {
        target->crash();
        ++result.crashes;
        rebuild_runnable();
        continue;
      }
      target->step();
      ++result.total_steps;
      if (!target->runnable()) rebuild_runnable();
    }
    result.quiescent = runnable_.empty();
    return result;
  }

  void rebuild_runnable() {
    runnable_.clear();
    for (const Proc* p : processes_) {
      if (p->runnable()) runnable_.push_back(p->id());
    }
  }

  std::vector<Proc*> processes_;
  std::vector<automaton*> handles_;  ///< the adversary's omniscient view
  std::vector<process_id> runnable_;
};

/// A defensive per-run action limit for wait-freedom tests: generous enough
/// that no correct execution hits it (Theorem 5.6 implies O(nm log n log m)
/// actions), small enough that a livelock is caught quickly.
[[nodiscard]] inline usize default_step_limit(usize n, usize m) {
  // Theorem 5.6 bounds total work (hence actions) by O(nm log n log m) for
  // beta >= 3m^2; smaller beta can only reduce collisions' job-progress but
  // actions stay within the same envelope in practice. A x64 safety factor
  // keeps false livelock alarms out while still catching real ones fast.
  const std::uint64_t lg_n = clamped_log2(n == 0 ? 1 : n);
  const std::uint64_t lg_m = clamped_log2(m == 0 ? 1 : m);
  return static_cast<usize>(64 * (n + 16) * (m + 1) * lg_n * lg_m);
}

}  // namespace amo::sim
