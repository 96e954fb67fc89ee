// Fig. 1 of the paper: shared variables, signature and state of KK_beta —
// plus the run configuration knobs this library adds (operating mode for the
// iterated algorithm of Section 6, and a selection-rule hook used by the
// two-process baseline of Kentros et al. [26]).
#pragma once

#include <cstdint>
#include <functional>

#include "util/types.hpp"

namespace amo {

/// STATUS_p (Fig. 1), extended with the IterStepKK termination-flag states
/// of Section 6. Paper name -> here: comp_next, set_next, gather_try,
/// gather_done, check, do -> perform, done -> record, end, stop.
/// flag_poll / flag_raise / flag_gate only occur in the iterated modes:
///  - flag_poll:  read the termination flag before computing a next job
///                (a deviation from Fig. 2; guarantees per-level termination),
///  - flag_raise: write the flag after deciding to terminate,
///  - flag_gate:  the paper's "after a process checks if it is safe to
///                perform a job, the process also checks the termination
///                flag".
enum class kk_status : std::uint8_t {
  flag_poll,
  comp_next,
  flag_raise,
  set_next,
  gather_try,
  gather_done,
  check,
  flag_gate,
  perform,
  record,
  end,
  stop,
};

[[nodiscard]] constexpr const char* to_string(kk_status s) {
  switch (s) {
    case kk_status::flag_poll: return "flag_poll";
    case kk_status::comp_next: return "comp_next";
    case kk_status::flag_raise: return "flag_raise";
    case kk_status::set_next: return "set_next";
    case kk_status::gather_try: return "gather_try";
    case kk_status::gather_done: return "gather_done";
    case kk_status::check: return "check";
    case kk_status::flag_gate: return "flag_gate";
    case kk_status::perform: return "perform";
    case kk_status::record: return "record";
    case kk_status::end: return "end";
    case kk_status::stop: return "stop";
  }
  return "?";
}

/// Operating mode.
///  - plain:        KK_beta exactly as in Figs. 1-2.
///  - iter_step:    IterStepKK (Section 6): termination flag; on exit the
///                  process recomputes FREE/TRY and outputs FREE \ TRY.
///  - wa_iter_step: WA_IterStepKK (Section 7): same, but outputs FREE.
enum class kk_mode : std::uint8_t { plain, iter_step, wa_iter_step };

/// How compNext picks the candidate rank inside FREE \ TRY.
///  - paper_rank: Fig. 2 — split FREE\TRY into m intervals, take the first
///                element of the p-th interval.
///  - two_ends:   odd processes take from the low end, even from the high
///                end; with m = 2 this reconstructs the optimal two-process
///                algorithm of [26] (baseline AO2, effectiveness n-1).
enum class selection_rule : std::uint8_t { paper_rank, two_ends };

struct kk_config {
  process_id pid = 1;        ///< this process's id, 1..m
  usize num_processes = 1;   ///< m
  usize beta = 0;            ///< termination parameter; 0 means beta = m
  kk_mode mode = kk_mode::plain;
  selection_rule rule = selection_rule::paper_rank;
};

/// Observation points. All optional; used by the analysis layer (collision
/// ledger, at-most-once checker) and by tests. `announcer` is the process
/// whose next-register supplied the conflicting job when the collision was
/// detected through TRY (0 when detected through DONE; the performer is then
/// recovered from the perform ledger).
struct kk_hooks {
  std::function<void(process_id p, job_id j)> on_perform;
  std::function<void(process_id p, job_id j)> on_announce;
  std::function<void(process_id p, job_id j, process_id announcer, bool via_done)>
      on_collision;
};

}  // namespace amo
