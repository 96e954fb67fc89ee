// Partial-order-reduced exploration over kk_model: persistent-set +
// sleep-set search (Godefroid; Flanagan–Godefroid DPOR) on the same
// transition relation explore() enumerates brute-force.
//
// Most interleavings of an AMO run are Mazurkiewicz-equivalent: steps of
// different processes commute unless they touch the same shared variable
// (a next_reg handoff, the same done-row, the flag word, the performed
// set). explore_por() classifies every enabled action by its read/write
// footprint, expands only a reduced subset at each state — a single
// "invisible" process action when one exists (crashes of that process
// are postponed past it), the full enabled set otherwise — and prunes
// commuting siblings with sleep sets. Fingerprint dedup and cycle
// detection are kept, so the explore_result verdicts (duplicate_found,
// lemma62_violated, cycle_found, min/max effectiveness over quiescent
// states) are exactly those of the brute-force search, at a fraction of
// the states. See docs/model_checking.md for the independence relation
// and the soundness argument.
//
// The frontier is explored breadth-first in layers, each fanned out over
// an optional svc::worker_pool: fixed-size blocks expand the states, a
// fixed number of fingerprint shards of the visited table dedup and merge
// the arrivals (each shard in global arrival order), and the blocks lay
// out the next layer. Every count, verdict and por_stats field is
// bit-identical at any pool size (the house invariant, extended to the
// checker; asserted in tests/test_model_por.cpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "model/explorer.hpp"

namespace amo::svc {
class worker_pool;
}  // namespace amo::svc

namespace amo::model {

struct por_options {
  model_config cfg;
  /// Abort (result.complete = false) after visiting this many states.
  /// At most 2^26 = 67,108,864 (the visited table's per-shard node id
  /// space); explore_por throws std::invalid_argument above that.
  usize max_states = 20'000'000;
  /// Frontier parallelism; nullptr (or a 1-worker pool) explores serially.
  /// The pool must not be running another batch on the calling thread
  /// (i.e. do not call from inside a pool task).
  svc::worker_pool* pool = nullptr;
};

/// Reduction-side observability, deterministic at any pool size.
struct por_stats {
  usize singleton_states = 0;  ///< states expanded via an invisible action
  usize full_states = 0;       ///< states that needed the full enabled set
  usize sleep_pruned = 0;      ///< transitions skipped by sleep sets
  usize resumed_states = 0;    ///< re-expansions after a sleep-set shrink
  usize peak_frontier = 0;     ///< widest BFS layer
  usize layers = 0;            ///< frontier depth (== result.max_depth)
  usize cycle_roots = 0;       ///< retreating edges: the cycle check's roots
  usize cycle_reached = 0;     ///< nodes the rooted cycle check visited
  /// Bytes allocated, when the search ends, for the visited table (slots,
  /// node pages and their pointers, layer marks, resumed lists), the edge
  /// list and the cycle roots. Deterministic, like every field here.
  usize stored_bytes = 0;
};

/// Explores the reduced state graph and returns brute-force-identical
/// verdicts: duplicate_found, lemma62_violated, cycle_found and the
/// quiescent min/max effectiveness all match explore() on the same config
/// (every pruned terminal has an explored verdict-equivalent twin; the
/// checked predicates are sticky). states/transitions/quiescent_states
/// count the reduced graph and are <= / typically orders below the full
/// ones. max_depth reports BFS layers, not the DFS path length.
explore_result explore_por(const por_options& opt);
explore_result explore_por(const por_options& opt, por_stats& stats);

namespace detail {

/// The cycle check explore_por runs on its stored graph, exposed for
/// synthetic-graph tests.
///
/// Number the nodes by birth layer: the BFS layer whose merge created
/// them. An edge is *retreating* when its target was born no later than
/// its source. Birth layers cannot rise strictly around a cycle, so every
/// cycle contains a retreating edge, and its target is a root of the
/// check.
[[nodiscard]] constexpr bool retreating(std::uint32_t from_born,
                                        std::uint32_t to_born) {
  return to_born <= from_born;
}

/// Directed edges between node ids, in blocks: explore_por allocates one
/// exactly-sized block per BFS layer, so the list never regrows or copies.
using edge_blocks =
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>;

struct cycle_search {
  bool found = false;
  usize reached = 0;  ///< nodes the search coloured before it returned
};

/// Directed-cycle check over the edges of `blocks`, between dense ids below
/// `nodes`: an iterative 3-colour DFS on a CSR adjacency (each node's edges
/// in block order), started only from `roots`. The blocks are consumed:
/// each is released as soon as its edges are in the CSR. Colours are shared
/// across roots, so the search is exact over the part of the graph the
/// roots reach: it finds a cycle iff one passes through a node reachable
/// from some root (the first such node coloured is an ancestor of every
/// other node on its cycle, and the cycle's last edge leads back to it
/// while it is still on the path). With every
/// retreating edge's target among the roots, that is iff the graph has a
/// cycle. No roots: no cycle, and no CSR is built.
cycle_search has_cycle(std::uint32_t nodes, edge_blocks&& blocks,
                       const std::vector<std::uint32_t>& roots);

}  // namespace detail

}  // namespace amo::model
