// exp::run_replica_block — the batched replica engine.
//
// A sweep cell is run_spec × R deterministic replicas; the scalar path runs
// R independent engine passes that differ only in the adversary seed. This
// engine runs a whole block of replicas of one cell as one pool task. Per-
// replica reports — including every charged op count — are bit-identical
// to running replica_spec(cell, r) through exp::run, which is what
// tests/test_batch_parity.cpp pins down. docs/batched_kernel.md walks
// through the layout, the charge accounting and the determinism argument.
//
// Two execution strategies, chosen from the adversary's seed dependence
// (sim::seeded on the parsed name):
//
//  - replicate: schedules that ignore their seed (round_robin, stale_view,
//    announce_crash, scripted:/replay:) make every replica of a cell the
//    *same* execution — the only per-replica report field is the echoed
//    seed. The engine runs one scalar pass and replicates the report,
//    patching rep.seed per replica. Provably identical, R× cheaper.
//  - lanes: seeded schedules (random, random+crash[:n/d], block4/64,
//    block:q) run each replica lane through the scalar engine's own code —
//    the same templated scheduler loop and adversary — with the FREE sets
//    of every lane in one lane-major SoA arena (sets/lane_free_set.hpp)
//    allocated and initialized in one sweep.
//
// Anything else — unknown adversary names, trace recording, non-sim memory,
// non-bitset free sets, the iterative/baseline families — is not batchable;
// callers fall back to the scalar engine (exp/sweep.cpp does this per
// cell), which preserves the scalar path's exact throw behavior.
#pragma once

#include <span>
#include <vector>

#include "exp/spec.hpp"

namespace amo::exp {

/// batch_options::batch_replicas value meaning "as wide as the replica
/// block": no cap, the default everywhere (CLI --batch-replicas=auto).
inline constexpr usize batch_auto = ~usize{0};

/// Execution option — NOT part of run_spec: batching never changes results,
/// so it does not participate in spec identity, grid fingerprints, or
/// record formats. 0 disables batching (scalar reference path), N caps the
/// lane width at N (blocks split into chunks of at most N replicas).
struct batch_options {
  usize batch_replicas = batch_auto;
};

/// How the batched engine would execute a cell's replicas.
enum class batch_class : std::uint8_t {
  not_batchable,  ///< run each replica through the scalar engine
  replicate,      ///< seed-independent schedule: run once, replicate report
  lanes,          ///< seeded schedule: multi-lane kernel
};

/// Classifies a cell for the batched engine. Conservative by construction:
/// only kk/ao2 × scheduled × sim × bitset specs with no trace recording and
/// a name sim::parse_adversary accepts are batchable; everything else falls
/// back to the scalar engine.
[[nodiscard]] batch_class classify_batch(const run_spec& cell);

[[nodiscard]] inline bool batchable(const run_spec& cell) {
  return classify_batch(cell) != batch_class::not_batchable;
}

/// Runs the given replicas of `cell` (indices into [0, resolved_replicas),
/// strictly ascending — shard slices hand in strided subsets) in one
/// batched pass. Returns one report per requested replica, in order, each
/// bit-identical (except wall_seconds) to run(replica_spec(cell, r)).
/// Preconditions: classify_batch(cell) != not_batchable, replicas nonempty.
/// Throws exactly when the scalar engine would (spec-level errors are
/// replica-independent).
[[nodiscard]] std::vector<run_report> run_replica_block(
    const run_spec& cell, std::span<const usize> replicas);

}  // namespace amo::exp
