// exp::run_replica_block — one pool task per replicated cell.
//
// A sweep cell is run_spec × R deterministic replicas. The sweep runs the
// replicas of a batchable cell as one block on one worker; per-replica
// reports — including every charged op count — are bit-identical to
// running replica_spec(cell, r) through exp::run, which is what
// tests/test_batch_parity.cpp pins down. docs/batched_kernel.md has the
// determinism argument.
//
// Two schedule classes, chosen from the adversary's seed dependence
// (sim::seeded on the parsed name):
//
//  - replicate: schedules that ignore their seed (round_robin, stale_view,
//    announce_crash, scripted:/replay:) make every replica of a cell the
//    *same* execution — the only per-replica report field is the echoed
//    seed. The block runs one pass and replicates the report, patching
//    rep.seed per replica. Provably identical, R× cheaper.
//  - seeded: seed-dependent schedules (random, random+crash[:n/d],
//    block4/64, block:q) run each replica through exp::run, one after
//    another on the block's worker.
//
// Anything else — unknown adversary names, trace recording, non-sim memory,
// the iterative/baseline families — is not batchable; the sweep runs it
// one pool task per replica (exp/sweep.cpp), which preserves the scalar
// path's exact throw behavior.
#pragma once

#include <span>
#include <vector>

#include "exp/spec.hpp"

namespace amo::exp {

/// How a cell's replicas execute as a block.
enum class batch_class : std::uint8_t {
  not_batchable,  ///< one pool task per replica
  replicate,      ///< seed-independent schedule: run once, replicate report
  seeded,         ///< seed-dependent schedule: each replica through exp::run
};

/// Classifies a cell. Conservative by construction: only kk/ao2 ×
/// scheduled × sim specs with no trace recording and a name
/// sim::parse_adversary accepts are batchable; everything else runs one
/// pool task per replica.
[[nodiscard]] batch_class classify_batch(const run_spec& cell);

[[nodiscard]] inline bool batchable(const run_spec& cell) {
  return classify_batch(cell) != batch_class::not_batchable;
}

/// Runs the given replicas of `cell` (indices into [0, resolved_replicas),
/// strictly ascending — shard slices hand in strided subsets) as one block.
/// Returns one report per requested replica, in order, each bit-identical
/// (except wall_seconds) to run(replica_spec(cell, r)).
/// Preconditions: classify_batch(cell) != not_batchable, replicas nonempty.
/// Throws exactly when the scalar engine would (spec-level errors are
/// replica-independent).
[[nodiscard]] std::vector<run_report> run_replica_block(
    const run_spec& cell, std::span<const usize> replicas);

}  // namespace amo::exp
