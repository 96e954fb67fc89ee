// The omniscient on-line adversary of Section 2.1: before every transition
// it inspects the complete state of every process (it "has complete
// knowledge of the algorithm executed by the processes") and decides which
// runnable process takes the next step, or spends one of its f crash
// credits on a process.
//
// The library ships the schedules the paper's analysis cares about:
//   round_robin      — fair lock-step interleaving
//   random           — seeded uniform choice, optional random crashes
//   block            — one process runs a quantum of consecutive actions
//   stale_view       — a leader races ahead alone, then laggards wake with
//                      stale FREE views (maximizes DONE-collisions)
//   announce_crash   — the Theorem 4.4 worst case: crash each of processes
//                      1..m-1 right after its first announce, run process m
//                      solo; yields exactly n-(beta+m-2) jobs performed
//   scripted         — an explicit decision script (recorded traces)
//
// Every class is final with its decide() body in this header: the scheduler
// (sim/scheduler.hpp) is a template over the adversary type, so a run under
// a concrete adversary inlines the decision into its loop and keeps the
// PRNG state in registers. The virtual interface remains for caller-built
// adversaries (tests, trace recording).
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "core/automaton.hpp"
#include "util/fastdiv.hpp"
#include "util/prng.hpp"
#include "util/types.hpp"

namespace amo::sim {

/// What the scheduler exposes to the adversary each round.
struct sched_view {
  /// All processes, indexable by pid-1 (omniscient access).
  std::span<automaton* const> processes;
  /// Ids of currently runnable processes, ascending.
  std::span<const process_id> runnable;
  usize total_steps = 0;
  usize crashes_used = 0;
  usize crash_budget = 0;  ///< f; crashes_used never exceeds this
};

/// One scheduling decision.
struct decision {
  enum class kind : std::uint8_t { step, crash };
  kind what = kind::step;
  process_id pid = 1;  ///< must be runnable
};

class adversary {
 public:
  virtual ~adversary() = default;
  /// Called with at least one runnable process; returns the next decision.
  /// A crash decision is only honored while crashes_used < crash_budget
  /// (the scheduler downgrades an over-budget crash to a step).
  virtual decision decide(const sched_view& v) = 0;
  /// Human-readable name for bench tables.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Fair lock-step rotation over runnable processes.
class round_robin_adversary final : public adversary {
 public:
  decision decide(const sched_view& v) override {
    const process_id pid = v.runnable[cursor_ % v.runnable.size()];
    ++cursor_;
    return {decision::kind::step, pid};
  }
  [[nodiscard]] const char* name() const override { return "round_robin"; }

 private:
  usize cursor_ = 0;
};

/// Uniformly random runnable process each round; with probability
/// crash_num/crash_den (and while budget lasts) crashes it instead.
/// Draws go through bounded_draw, which replays xoshiro256::below exactly
/// with the per-step division replaced by a cached reciprocal.
class random_adversary final : public adversary {
 public:
  explicit random_adversary(std::uint64_t seed, std::uint64_t crash_num = 0,
                            std::uint64_t crash_den = 1000)
      : rng_(seed), crash_num_(crash_num), crash_den_(crash_den) {}

  decision decide(const sched_view& v) override {
    const process_id pid =
        v.runnable[static_cast<usize>(pick_.below(rng_, v.runnable.size()))];
    // The chance draw is consumed only while a crash is possible; the
    // recorded seeded schedules depend on this order.
    if (crash_num_ > 0 && v.crashes_used < v.crash_budget &&
        coin_.below(rng_, crash_den_) < crash_num_) {
      return {decision::kind::crash, pid};
    }
    return {decision::kind::step, pid};
  }
  [[nodiscard]] const char* name() const override { return "random"; }

 private:
  xoshiro256 rng_;
  bounded_draw pick_;  ///< runnable-size draws
  bounded_draw coin_;  ///< crash-chance draws (constant bound crash_den)
  std::uint64_t crash_num_;
  std::uint64_t crash_den_;
};

/// Picks a random runnable process and runs it for `quantum` consecutive
/// actions before re-picking. Large quanta create divergent FREE views.
class block_adversary final : public adversary {
 public:
  block_adversary(std::uint64_t seed, usize quantum)
      : rng_(seed), quantum_(quantum == 0 ? 1 : quantum) {}

  decision decide(const sched_view& v) override {
    // Continue the current quantum if its owner is still runnable.
    if (remaining_ > 0 && current_ != 0 && owner_runnable(v)) {
      --remaining_;
      return {decision::kind::step, current_};
    }
    slot_ = static_cast<usize>(pick_.below(rng_, v.runnable.size()));
    current_ = v.runnable[slot_];
    remaining_ = quantum_ - 1;
    return {decision::kind::step, current_};
  }
  [[nodiscard]] const char* name() const override { return "block"; }

 private:
  /// The owner usually sits where it was picked (the runnable list only
  /// changes when a process stops), so probe that slot before scanning.
  bool owner_runnable(const sched_view& v) {
    if (slot_ < v.runnable.size() && v.runnable[slot_] == current_) return true;
    for (usize i = 0; i < v.runnable.size(); ++i) {
      if (v.runnable[i] == current_) {
        slot_ = i;
        return true;
      }
    }
    return false;
  }

  xoshiro256 rng_;
  bounded_draw pick_;
  usize quantum_;
  process_id current_ = 0;
  usize slot_ = 0;  ///< current_'s index in the runnable list when last seen
  usize remaining_ = 0;
};

/// Lets the lowest-id runnable process execute `leader_actions` actions
/// solo, then rotates through everyone. Laggards then hold maximally stale
/// FREE views: nearly every candidate they pick is already in DONE, which
/// is the collision pattern the work analysis of Section 5 bounds.
class stale_view_adversary final : public adversary {
 public:
  explicit stale_view_adversary(usize leader_actions)
      : leader_actions_(leader_actions) {}

  decision decide(const sched_view& v) override {
    const process_id leader = v.runnable.front();
    if (v.processes[leader - 1]->step_count() < leader_actions_) {
      return {decision::kind::step, leader};
    }
    const process_id pid = v.runnable[cursor_ % v.runnable.size()];
    ++cursor_;
    return {decision::kind::step, pid};
  }
  [[nodiscard]] const char* name() const override { return "stale_view"; }

 private:
  usize leader_actions_;
  usize cursor_ = 0;
};

/// One executed decision: the unit of scripts and recorded traces.
struct trace_event {
  decision::kind what = decision::kind::step;
  process_id pid = 1;

  friend bool operator==(const trace_event&, const trace_event&) = default;
};

/// Replays an explicit decision script — a hand-written interleaving or a
/// recorded sim::trace — then falls back to round-robin so the run still
/// terminates. The workhorse for regression tests that pin down an exact
/// interleaving (see tests/test_kk_two_process.cpp), what the
/// scripted:/replay: names run, and exp::replay's adversary. Entries naming
/// non-runnable processes are skipped (a faithful trace never has any).
class scripted_adversary final : public adversary {
 public:
  explicit scripted_adversary(std::vector<trace_event> script)
      : script_(std::move(script)) {}

  /// Convenience: steps only, given as a pid sequence.
  static scripted_adversary steps(std::vector<process_id> pids);

  decision decide(const sched_view& v) override {
    while (cursor_ < script_.size()) {
      const trace_event e = script_[cursor_];
      ++cursor_;
      for (const process_id r : v.runnable) {
        if (r == e.pid) return {e.what, e.pid};
      }
      // Scripted process already finished/crashed: skip the entry.
      faithful_ = false;
    }
    const process_id pid = v.runnable[fallback_++ % v.runnable.size()];
    return {decision::kind::step, pid};
  }
  [[nodiscard]] const char* name() const override { return "scripted"; }

  /// True iff no script entry has been skipped so far.
  [[nodiscard]] bool faithful() const { return faithful_; }

 private:
  std::vector<trace_event> script_;
  usize cursor_ = 0;
  usize fallback_ = 0;
  bool faithful_ = true;
};

/// The explicit adversarial strategy from the proof of Theorem 4.4: for
/// q = 1..m-1 in turn, run q until it completes its first announce
/// (setNext), then crash it — each crashed process leaves a distinct job
/// stuck in its next-register. Then run process m alone to termination.
/// Process m's TRY always contains the m-1 stuck jobs, so it stops as soon
/// as |FREE \ TRY| < beta, leaving exactly beta+m-2 jobs unperformed.
class announce_crash_adversary final : public adversary {
 public:
  decision decide(const sched_view& v) override {
    const usize m = v.processes.size();
    for (const process_id pid : v.runnable) {
      if (pid == m) continue;  // the survivor runs last
      // Run q until its first announce is in shared memory, then crash it.
      if (v.processes[pid - 1]->announce_count() == 0) {
        return {decision::kind::step, pid};
      }
      if (v.crashes_used < v.crash_budget) {
        return {decision::kind::crash, pid};
      }
      // Out of crash credits (f < m-1): just keep stepping the survivor
      // set; the bound still holds, it is simply not tight.
      return {decision::kind::step, pid};
    }
    return {decision::kind::step, v.runnable.back()};
  }
  [[nodiscard]] const char* name() const override { return "announce_crash"; }
};

/// Every adversary a name can denote, as a value of its concrete type.
using any_adversary =
    std::variant<round_robin_adversary, random_adversary, block_adversary,
                 stale_view_adversary, announce_crash_adversary,
                 scripted_adversary>;

/// The one adversary-name grammar. Recognized names:
///   round_robin, random, random+crash (= random+crash:1/500), block4,
///   block64, stale_view (= stale_view:50000), announce_crash;
///   random+crash:<num>/<den> (den > 0), block:<quantum>,
///   stale_view:<leader_actions>;
///   scripted:<trace> and replay:<trace>, where <trace> is the sim::trace
///   serialization ("s3 s1 c2 ...").
/// Returns nullopt for an unknown name or malformed parameters.
[[nodiscard]] std::optional<any_adversary> parse_adversary(
    std::string_view name, std::uint64_t seed);

/// True when the schedule depends on the seed (random and block families);
/// every other adversary makes the same decisions under any seed.
[[nodiscard]] inline bool seeded(const any_adversary& adv) {
  return std::holds_alternative<random_adversary>(adv) ||
         std::holds_alternative<block_adversary>(adv);
}

/// The standard sweep's adversary names: round_robin, random, random+crash,
/// block4, block64, stale_view.
[[nodiscard]] std::span<const char* const> standard_adversaries();

}  // namespace amo::sim
