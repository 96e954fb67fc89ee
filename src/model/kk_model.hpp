// An explicit-state model of the KK_beta system for exhaustive checking.
//
// kk_process is built for execution speed at n in the millions; exhaustive
// exploration instead needs a small, copyable, hashable state. kk_model is
// a faithful re-implementation of the Fig. 2 transition relation (plain
// mode) on packed bitmask state, limited to n <= 10 jobs and m <= 3
// processes. Fidelity to the production automaton is not assumed — it is
// *tested*, by co-simulation on thousands of schedules
// (tests/test_model_check.cpp).
//
// With it, the explorer (model/explorer.hpp) enumerates EVERY reachable
// interleaving — all schedules and all <= f crash placements — and decides:
//   * Lemma 4.1 exhaustively: no reachable state has a duplicate perform;
//   * Theorem 4.4 exhaustively: the minimum job count over all quiescent
//     states equals n - (beta + m - 2) exactly (f = m-1);
//   * livelock-freedom sharply: for the paper's rank rule with beta >= m
//     the transition graph is acyclic; for the two-ends rule with beta = 1
//     it is NOT (the symmetric re-pick cycle), which is precisely why the
//     paper demands beta >= m for termination.
#pragma once

#include <array>
#include <cstdint>

#include "core/kk_state.hpp"
#include "util/types.hpp"

namespace amo::model {

inline constexpr usize max_jobs = 10;
inline constexpr usize max_procs = 3;

/// Bitmask over jobs: bit (j-1) set <=> job j in the set.
using job_mask = std::uint16_t;

struct proc_state {
  kk_status status = kk_status::comp_next;
  std::uint8_t next = 0;  ///< NEXT_p, 0 = undefined
  std::uint8_t q = 1;     ///< Q_p
  bool finalizing = false;  ///< iter modes: inside the final gather pass
  bool has_output = false;  ///< iter modes: terminated normally, output valid
  job_mask free = 0;
  job_mask done = 0;
  job_mask try_ = 0;
  job_mask output = 0;  ///< iter modes: the returned FREE \ TRY (or FREE)
  std::array<std::uint8_t, max_procs> pos{};  ///< POS_p[q], 1-based

  friend bool operator==(const proc_state&, const proc_state&) = default;
};

struct sys_state {
  std::array<std::uint8_t, max_procs> next_reg{};  ///< shared next[]
  std::array<std::array<std::uint8_t, max_jobs>, max_procs> rows{};  ///< done[][]
  std::array<std::uint8_t, max_procs> row_len{};
  std::array<proc_state, max_procs> procs{};
  bool flag = false;           ///< IterStepKK termination flag
  job_mask performed = 0;      ///< jobs with >= 1 do action
  bool duplicate = false;      ///< sticky: some do happened twice
  std::uint8_t crashes = 0;    ///< crash budget spent

  friend bool operator==(const sys_state&, const sys_state&) = default;
};

struct model_config {
  usize n = 4;
  usize m = 2;
  usize beta = 2;
  selection_rule rule = selection_rule::paper_rank;
  kk_mode mode = kk_mode::plain;
  usize crash_budget = 0;
};

/// Lemma 6.2's invariant, checkable on any state: no process that has
/// returned an output set may have a performed job inside it (outputs are
/// "super-jobs nobody performed and nobody can still perform").
bool lemma62_holds(const sys_state& s, const model_config& cfg);

/// Throws std::invalid_argument, naming `who`, unless `cfg` fits the
/// model: n in [1, max_jobs], m in [1, max_procs], beta >= 1 and at most
/// m - 1 crashes (the paper's f <= m - 1). Every explorer calls it first,
/// in every build type — a config outside the model would write past the
/// fixed-size state arrays or check a system the paper does not define.
void check_config(const model_config& cfg, const char* who);

/// Initial state: FREE = J for everyone, all registers 0.
sys_state initial_state(const model_config& cfg);

/// True while process p (1-based) has an enabled action.
bool runnable(const sys_state& s, const model_config& cfg, process_id p);

/// True when no process is runnable (all end/stop).
bool quiescent(const sys_state& s, const model_config& cfg);

/// Executes process p's single enabled action. Precondition: runnable.
sys_state step(const sys_state& s, const model_config& cfg, process_id p);

/// The environment's stop_p. Precondition: runnable(p) and budget left.
sys_state crash(const sys_state& s, const model_config& cfg, process_id p);

/// Number of distinct jobs performed (Do(alpha) of Definition 2.1).
usize jobs_performed(const sys_state& s);

/// A reachable sys_state in 43 bytes instead of 96, for the states that
/// wait in the POR frontier. pack keeps only the 338 bits a reachable
/// state can set: 4 per job id, row entry, row length and row position,
/// 10 per job mask, 2 for q and for the crash count, 1 per flag. POS_p[p]
/// is not stored: a process never reads or writes its own row position
/// (its own row length is row_len), so it keeps initial_state's value.
struct packed_state {
  std::array<std::uint8_t, 43> bytes{};
};

packed_state pack(const sys_state& s);

/// The inverse of pack for a state reachable under `cfg`: equal to the
/// packed state (cfg.m restores the unstored POS_p[p]).
sys_state unpack(const packed_state& p, const model_config& cfg);

/// 128-bit fingerprint for visited-state dedup: two independent 64-bit
/// hashes of the canonical encoding. Two distinct states merge only if both
/// halves collide, with probability ~ |states|^2 / 2^129 over a search.
struct fingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(const fingerprint&, const fingerprint&) = default;
};

fingerprint fingerprint_of(const sys_state& s, const model_config& cfg);

struct fingerprint_hash {
  usize operator()(const fingerprint& f) const {
    return static_cast<usize>(f.a ^ (f.b * 0x9e3779b97f4a7c15ull));
  }
};

}  // namespace amo::model
