// Differential validation of the partial-order-reduced explorer against
// the brute-force one, plus the determinism and sentinel contracts.
//
// explore_por() prunes Mazurkiewicz-equivalent interleavings, so its
// states/transitions/quiescent counts describe a smaller graph — but every
// VERDICT the checker exists for must be bit-identical to explore() on the
// same config: duplicate_found, cycle_found, lemma62_violated, and the
// min/max effectiveness over quiescent states (every pruned terminal has
// an explored verdict-equivalent twin). These tests assert exactly that,
// over the brute-force-feasible grid, all three kk_modes, both selection
// rules, and a seeded batch of random small configs — and that the POR
// result (counts included) is bit-identical at any worker-pool size.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "model/dpor.hpp"
#include "model/explorer.hpp"
#include "svc/worker_pool.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

using model::explore;
using model::explore_options;
using model::explore_por;
using model::explore_result;
using model::por_options;
using model::por_stats;

model::model_config make_cfg(usize n, usize m, usize beta, usize f,
                             selection_rule rule, kk_mode mode) {
  model::model_config cfg;
  cfg.n = n;
  cfg.m = m;
  cfg.beta = beta;
  cfg.crash_budget = f;
  cfg.rule = rule;
  cfg.mode = mode;
  return cfg;
}

/// The contract under test: identical verdicts over a reduced graph.
void expect_equivalent(const explore_result& brute, const explore_result& por,
                       const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(brute.complete, por.complete);
  EXPECT_EQ(brute.duplicate_found, por.duplicate_found);
  EXPECT_EQ(brute.cycle_found, por.cycle_found);
  EXPECT_EQ(brute.lemma62_violated, por.lemma62_violated);
  EXPECT_EQ(brute.min_effectiveness, por.min_effectiveness);
  EXPECT_EQ(brute.max_effectiveness, por.max_effectiveness);
  // The reduced graph is a subgraph reaching a subset of the terminals —
  // never more of either, and never zero terminals when brute has some.
  EXPECT_LE(por.states, brute.states);
  EXPECT_LE(por.transitions, brute.transitions);
  EXPECT_LE(por.quiescent_states, brute.quiescent_states);
  EXPECT_EQ(por.quiescent_states > 0, brute.quiescent_states > 0);
}

class PorDifferential
    : public ::testing::TestWithParam<
          std::tuple<usize, usize, usize, usize, selection_rule, kk_mode>> {};

TEST_P(PorDifferential, VerdictsMatchBruteForce) {
  const auto [n, m, beta, f, rule, mode] = GetParam();
  explore_options bo;
  bo.cfg = make_cfg(n, m, beta, f, rule, mode);
  const explore_result brute = explore(bo);
  ASSERT_TRUE(brute.complete);

  por_options po;
  po.cfg = bo.cfg;
  const explore_result por = explore_por(po);
  expect_equivalent(brute, por, "grid");
}

INSTANTIATE_TEST_SUITE_P(
    PaperRank, PorDifferential,
    ::testing::Values(
        // plain mode, the Theorem 4.4 operating points
        std::make_tuple(2, 2, 2, 1, selection_rule::paper_rank, kk_mode::plain),
        std::make_tuple(3, 2, 2, 1, selection_rule::paper_rank, kk_mode::plain),
        std::make_tuple(4, 2, 2, 1, selection_rule::paper_rank, kk_mode::plain),
        std::make_tuple(5, 2, 2, 1, selection_rule::paper_rank, kk_mode::plain),
        std::make_tuple(4, 2, 2, 0, selection_rule::paper_rank, kk_mode::plain),
        std::make_tuple(4, 2, 3, 1, selection_rule::paper_rank, kk_mode::plain),
        std::make_tuple(3, 3, 3, 2, selection_rule::paper_rank, kk_mode::plain),
        std::make_tuple(4, 3, 3, 2, selection_rule::paper_rank, kk_mode::plain),
        std::make_tuple(3, 3, 3, 0, selection_rule::paper_rank, kk_mode::plain),
        // iterative / write-all iterative (lemma 6.2 live here)
        std::make_tuple(3, 2, 2, 1, selection_rule::paper_rank,
                        kk_mode::iter_step),
        std::make_tuple(4, 2, 2, 1, selection_rule::paper_rank,
                        kk_mode::iter_step),
        std::make_tuple(3, 3, 3, 2, selection_rule::paper_rank,
                        kk_mode::iter_step),
        std::make_tuple(3, 2, 2, 1, selection_rule::paper_rank,
                        kk_mode::wa_iter_step),
        std::make_tuple(4, 2, 2, 1, selection_rule::paper_rank,
                        kk_mode::wa_iter_step),
        std::make_tuple(3, 3, 3, 1, selection_rule::paper_rank,
                        kk_mode::wa_iter_step)));

INSTANTIATE_TEST_SUITE_P(
    // two_ends with beta = 1 livelocks (the re-pick cycle): cycle_found
    // must survive the reduction.
    TwoEnds, PorDifferential,
    ::testing::Values(
        std::make_tuple(4, 2, 1, 1, selection_rule::two_ends, kk_mode::plain),
        std::make_tuple(2, 3, 1, 0, selection_rule::two_ends, kk_mode::plain),
        std::make_tuple(3, 3, 1, 1, selection_rule::two_ends, kk_mode::plain)));

TEST(PorDifferential, RandomizedSmallConfigs) {
  xoshiro256 rng(0xd09u);
  for (int i = 0; i < 24; ++i) {
    const usize m = static_cast<usize>(rng.between(2, 3));
    const usize n = static_cast<usize>(rng.between(2, m == 3 ? 3 : 5));
    const usize beta = static_cast<usize>(rng.between(1, m));
    const usize f = static_cast<usize>(rng.below(m));
    const selection_rule rule =
        rng.chance(1, 4) ? selection_rule::two_ends : selection_rule::paper_rank;
    const kk_mode mode = m == 3 ? kk_mode::plain
                         : rng.chance(1, 3)
                             ? kk_mode::iter_step
                             : rng.chance(1, 2) ? kk_mode::wa_iter_step
                                                : kk_mode::plain;
    explore_options bo;
    bo.cfg = make_cfg(n, m, beta, f, rule, mode);
    bo.max_states = 4'000'000;
    const explore_result brute = explore(bo);
    if (!brute.complete) continue;  // brute capped: nothing to compare against

    por_options po;
    po.cfg = bo.cfg;
    po.max_states = 4'000'000;
    const explore_result por = explore_por(po);
    expect_equivalent(brute, por,
                      "random n=" + std::to_string(n) + " m=" +
                          std::to_string(m) + " beta=" + std::to_string(beta) +
                          " f=" + std::to_string(f));
  }
}

TEST(PorPack, RoundTripsEveryReachableState) {
  // The frontier stores packed states: every state the brute-force search
  // reaches must unpack to itself. The configs reach crashes, full rows of
  // job 10, flag raises and both kinds of output.
  const model::model_config cfgs[] = {
      make_cfg(3, 3, 3, 2, selection_rule::paper_rank, kk_mode::plain),
      make_cfg(10, 1, 1, 0, selection_rule::paper_rank, kk_mode::plain),
      make_cfg(5, 2, 2, 1, selection_rule::two_ends, kk_mode::plain),
      make_cfg(4, 2, 2, 1, selection_rule::paper_rank, kk_mode::iter_step),
      make_cfg(4, 2, 2, 1, selection_rule::paper_rank, kk_mode::wa_iter_step)};
  for (const model::model_config& cfg : cfgs) {
    SCOPED_TRACE("n=" + std::to_string(cfg.n) + " m=" + std::to_string(cfg.m) +
                 " mode=" + std::to_string(static_cast<int>(cfg.mode)));
    std::unordered_set<model::fingerprint, model::fingerprint_hash> seen;
    std::vector<model::sys_state> todo{model::initial_state(cfg)};
    seen.insert(model::fingerprint_of(todo.back(), cfg));
    usize mismatches = 0;
    bool flag = false;
    bool outputs = false;
    bool crashes = false;
    while (!todo.empty()) {
      const model::sys_state s = todo.back();
      todo.pop_back();
      if (!(model::unpack(model::pack(s), cfg) == s)) ++mismatches;
      flag = flag || s.flag;
      outputs = outputs || s.procs[0].has_output;
      crashes = crashes || s.crashes > 0;
      for (process_id p = 1; p <= cfg.m; ++p) {
        if (!model::runnable(s, cfg, p)) continue;
        model::sys_state next[2] = {model::step(s, cfg, p), s};
        const bool crash = s.crashes < cfg.crash_budget;
        if (crash) next[1] = model::crash(s, cfg, p);
        for (usize k = 0; k < (crash ? 2u : 1u); ++k) {
          if (seen.insert(model::fingerprint_of(next[k], cfg)).second) {
            todo.push_back(next[k]);
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
    explore_options bo;
    bo.cfg = cfg;
    EXPECT_EQ(seen.size(), explore(bo).states);  // the same state set
    EXPECT_EQ(flag, cfg.mode != kk_mode::plain);
    EXPECT_EQ(outputs, cfg.mode != kk_mode::plain);
    EXPECT_EQ(crashes, cfg.crash_budget > 0);
  }

  // No reachable state sets duplicate or holds every field at its widest;
  // the packing must keep those bits too.
  const model::model_config cfg =
      make_cfg(10, 3, 3, 2, selection_rule::paper_rank, kk_mode::iter_step);
  model::sys_state wide = model::initial_state(cfg);
  for (usize p = 0; p < model::max_procs; ++p) {
    wide.next_reg[p] = 10;
    wide.row_len[p] = 10;
    wide.rows[p].fill(10);
    model::proc_state& ps = wide.procs[p];
    ps.status = kk_status::stop;
    ps.next = 10;
    ps.q = 3;
    ps.finalizing = ps.has_output = true;
    ps.free = ps.done = ps.try_ = ps.output = 0x3ff;
    for (usize q = 0; q < model::max_procs; ++q) {
      if (q != p) ps.pos[q] = 11;
    }
  }
  wide.flag = wide.duplicate = true;
  wide.performed = 0x3ff;
  wide.crashes = 2;
  EXPECT_TRUE(model::unpack(model::pack(wide), cfg) == wide);
}

TEST(PorDeterminism, BitIdenticalAtAnyPoolSize) {
  struct input {
    const char* label;
    por_options opt;
    bool cycles = false;   ///< expected cycle_found
    bool resumes = false;  ///< reaches the sleep-set resumption path
    const explore_result* pinned = nullptr;  ///< exact serial counts
  };
  por_options plain;
  plain.cfg = make_cfg(4, 3, 3, 2, selection_rule::paper_rank, kk_mode::plain);
  // Flag raises, Lemma 6.2 outputs and sleep-set resumptions.
  por_options iter;
  iter.cfg = make_cfg(5, 2, 2, 1, selection_rule::paper_rank,
                      kk_mode::iter_step);
  // The livelock: cycle_found must survive the node-key remap.
  por_options livelock;
  livelock.cfg = make_cfg(2, 3, 1, 0, selection_rule::two_ends, kk_mode::plain);
  // Capped mid-layer: the cut must fall at the max_states-th new state in
  // global arrival order, so every count is pinned (a cut anywhere else
  // shifts transitions and quiescent_states).
  por_options capped;
  capped.cfg = make_cfg(5, 3, 3, 2, selection_rule::paper_rank, kk_mode::plain);
  capped.max_states = 100'000;
  explore_result capped_counts;
  capped_counts.complete = false;
  capped_counts.states = 100'000;
  capped_counts.transitions = 101'369;
  capped_counts.quiescent_states = 1'360;
  capped_counts.min_effectiveness = 1;
  capped_counts.max_effectiveness = 3;

  const input inputs[] = {
      {"plain n4m3f2", plain, false, false, nullptr},
      {"iter_step n5m2f1", iter, false, true, nullptr},
      {"two_ends livelock n2m3b1", livelock, true, true, nullptr},
      {"capped n5m3f2 at 100k", capped, false, true, &capped_counts}};

  for (const input& in : inputs) {
    SCOPED_TRACE(in.label);
    por_stats serial_stats;
    const explore_result base = explore_por(in.opt, serial_stats);
    EXPECT_EQ(base.cycle_found, in.cycles);
    EXPECT_EQ(serial_stats.resumed_states > 0, in.resumes);
    if (in.pinned != nullptr) {
      EXPECT_EQ(base.complete, in.pinned->complete);
      EXPECT_EQ(base.states, in.pinned->states);
      EXPECT_EQ(base.transitions, in.pinned->transitions);
      EXPECT_EQ(base.quiescent_states, in.pinned->quiescent_states);
      EXPECT_EQ(base.min_effectiveness, in.pinned->min_effectiveness);
      EXPECT_EQ(base.max_effectiveness, in.pinned->max_effectiveness);
    }

    // workers = 0 resolves to hardware_concurrency.
    for (const usize workers : {usize{1}, usize{2}, usize{0}}) {
      svc::worker_pool pool(workers);
      por_options opt = in.opt;
      opt.pool = &pool;
      por_stats stats;
      const explore_result r = explore_por(opt, stats);
      SCOPED_TRACE("workers=" + std::to_string(pool.size()));
      EXPECT_EQ(base.complete, r.complete);
      EXPECT_EQ(base.states, r.states);
      EXPECT_EQ(base.transitions, r.transitions);
      EXPECT_EQ(base.duplicate_found, r.duplicate_found);
      EXPECT_EQ(base.cycle_found, r.cycle_found);
      EXPECT_EQ(base.lemma62_violated, r.lemma62_violated);
      EXPECT_EQ(base.quiescent_states, r.quiescent_states);
      EXPECT_EQ(base.min_effectiveness, r.min_effectiveness);
      EXPECT_EQ(base.max_effectiveness, r.max_effectiveness);
      EXPECT_EQ(base.max_depth, r.max_depth);
      // The reduction-side stats are part of the determinism contract too.
      EXPECT_EQ(serial_stats.singleton_states, stats.singleton_states);
      EXPECT_EQ(serial_stats.full_states, stats.full_states);
      EXPECT_EQ(serial_stats.sleep_pruned, stats.sleep_pruned);
      EXPECT_EQ(serial_stats.resumed_states, stats.resumed_states);
      EXPECT_EQ(serial_stats.peak_frontier, stats.peak_frontier);
      EXPECT_EQ(serial_stats.layers, stats.layers);
      EXPECT_EQ(serial_stats.cycle_roots, stats.cycle_roots);
      EXPECT_EQ(serial_stats.cycle_reached, stats.cycle_reached);
      EXPECT_EQ(serial_stats.stored_bytes, stats.stored_bytes);
    }
  }
}

TEST(PorGolden, CountsAndStatsArePinned) {
  // Every explore_result and por_stats field of three complete searches,
  // pinned: a change to what the search keeps per edge or how the cycle
  // check builds its adjacency must not move a single count, serially or
  // on a pool. Only the livelock finds a cycle, and only there does
  // cycle_reached depend on the order the DFS takes each node's edges.
  struct golden {
    const char* label;
    model::model_config cfg;
    explore_result r;
    por_stats s;
    usize max_bytes_per_state = 0;  ///< stored_bytes bound; 0 = none
  };
  golden paper{"paper_rank n5m3b3f2",
               make_cfg(5, 3, 3, 2, selection_rule::paper_rank, kk_mode::plain),
               {},
               {}};
  paper.r.states = 614'727;
  paper.r.transitions = 623'451;
  paper.r.quiescent_states = 53'473;
  paper.r.min_effectiveness = 1;
  paper.r.max_effectiveness = 5;
  paper.s.singleton_states = 394'635;
  paper.s.full_states = 166'627;
  paper.s.sleep_pruned = 291'139;
  paper.s.resumed_states = 8;
  paper.s.peak_frontier = 23'582;
  paper.s.layers = 74;
  paper.s.cycle_roots = 195;
  paper.s.cycle_reached = 42'984;
  paper.s.stored_bytes = 19'830'532;
  // The e2e check_por instance. The visited table stores each node's
  // 16-byte fingerprint and sleep set once, behind a 4-byte slot; with the
  // edge list that is 32.26 bytes per state. A per-node 4-byte queue stamp
  // made it 36.27, and a table that keeps the fingerprint in 24-byte slots
  // needs 63.
  paper.max_bytes_per_state = 33;
  golden ends{"two_ends n4m3b2f1",
              make_cfg(4, 3, 2, 1, selection_rule::two_ends, kk_mode::plain),
              {},
              {}};
  ends.r.states = 369'703;
  ends.r.transitions = 376'573;
  ends.r.quiescent_states = 18'145;
  ends.r.min_effectiveness = 1;
  ends.r.max_effectiveness = 4;
  ends.s.singleton_states = 250'783;
  ends.s.full_states = 100'833;
  ends.s.sleep_pruned = 168'856;
  ends.s.resumed_states = 58;
  ends.s.peak_frontier = 16'981;
  ends.s.layers = 72;
  ends.s.cycle_roots = 99;
  ends.s.cycle_reached = 18'866;
  ends.s.stored_bytes = 11'528'692;
  golden livelock{
      "two_ends n2m3b1f0",
      make_cfg(2, 3, 1, 0, selection_rule::two_ends, kk_mode::plain),
      {},
      {}};
  livelock.r.cycle_found = true;
  livelock.r.states = 60'185;
  livelock.r.transitions = 65'087;
  livelock.r.quiescent_states = 683;
  livelock.r.min_effectiveness = 0;
  livelock.r.max_effectiveness = 2;
  livelock.s.singleton_states = 41'019;
  livelock.s.full_states = 19'342;
  livelock.s.sleep_pruned = 28'575;
  livelock.s.resumed_states = 859;
  livelock.s.peak_frontier = 1'818;
  livelock.s.layers = 115;
  livelock.s.cycle_roots = 1'497;
  livelock.s.cycle_reached = 17'213;
  livelock.s.stored_bytes = 2'154'968;

  svc::worker_pool pool(3);
  for (const golden& g : {paper, ends, livelock}) {
    for (svc::worker_pool* on : {static_cast<svc::worker_pool*>(nullptr),
                                 &pool}) {
      SCOPED_TRACE(std::string(g.label) +
                   (on == nullptr ? " serial" : " pool 3"));
      por_options opt;
      opt.cfg = g.cfg;
      opt.pool = on;
      por_stats s;
      const explore_result r = explore_por(opt, s);
      EXPECT_TRUE(r.complete);
      EXPECT_FALSE(r.duplicate_found);
      EXPECT_EQ(r.cycle_found, g.r.cycle_found);
      EXPECT_FALSE(r.lemma62_violated);
      EXPECT_EQ(r.states, g.r.states);
      EXPECT_EQ(r.transitions, g.r.transitions);
      EXPECT_EQ(r.quiescent_states, g.r.quiescent_states);
      EXPECT_EQ(r.min_effectiveness, g.r.min_effectiveness);
      EXPECT_EQ(r.max_effectiveness, g.r.max_effectiveness);
      EXPECT_EQ(r.max_depth, g.s.layers);
      EXPECT_EQ(s.singleton_states, g.s.singleton_states);
      EXPECT_EQ(s.full_states, g.s.full_states);
      EXPECT_EQ(s.sleep_pruned, g.s.sleep_pruned);
      EXPECT_EQ(s.resumed_states, g.s.resumed_states);
      EXPECT_EQ(s.peak_frontier, g.s.peak_frontier);
      EXPECT_EQ(s.layers, g.s.layers);
      EXPECT_EQ(s.cycle_roots, g.s.cycle_roots);
      EXPECT_EQ(s.cycle_reached, g.s.cycle_reached);
      EXPECT_EQ(s.stored_bytes, g.s.stored_bytes);
      if (g.max_bytes_per_state != 0) {
        EXPECT_LE(s.stored_bytes, g.max_bytes_per_state * r.states);
      }
    }
  }
}

TEST(PorCycleCheck, CappedLivelockFlipsAtTheExactCut) {
  // The two-ends livelock closes its first cycle with the 34,347th state:
  // one state earlier the stored graph is acyclic. The capped layer's
  // retreating edges must root the check, or the cycle at the cut is
  // missed.
  por_options opt;
  opt.cfg = make_cfg(2, 3, 1, 0, selection_rule::two_ends, kk_mode::plain);
  for (const auto& [cap, cycles] :
       {std::pair<usize, bool>{34'346, false}, {34'347, true}}) {
    SCOPED_TRACE("max_states=" + std::to_string(cap));
    opt.max_states = cap;
    opt.pool = nullptr;
    const explore_result serial = explore_por(opt);
    EXPECT_FALSE(serial.complete);
    EXPECT_EQ(serial.states, cap);
    EXPECT_EQ(serial.cycle_found, cycles);
    for (const usize workers : {usize{1}, usize{2}, usize{0}}) {
      svc::worker_pool pool(workers);
      opt.pool = &pool;
      SCOPED_TRACE("workers=" + std::to_string(pool.size()));
      EXPECT_EQ(explore_por(opt).cycle_found, cycles);
    }
  }
}

/// The rooted check as explore_por runs it, on a synthetic graph whose
/// node i was born in layer born[i]: every retreating edge roots the DFS.
model::detail::cycle_search rooted_check(
    const std::vector<std::uint32_t>& born,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  std::vector<std::uint32_t> roots;
  for (const auto& [from, to] : edges) {
    if (model::detail::retreating(born[from], born[to])) roots.push_back(to);
  }
  // Two blocks, split mid-list: the check reads (and releases) every block.
  const auto mid = edges.begin() + static_cast<std::ptrdiff_t>(edges.size() / 2);
  model::detail::edge_blocks blocks{{edges.begin(), mid}, {mid, edges.end()}};
  return model::detail::has_cycle(static_cast<std::uint32_t>(born.size()),
                                  std::move(blocks), roots);
}

TEST(PorCycleCheck, RootedAtRetreatingEdges) {
  // A self-loop retreats onto its own layer.
  EXPECT_TRUE(rooted_check({0, 1}, {{0, 1}, {1, 1}}).found);
  // A 2-cycle between two nodes born in the same layer: both edges
  // retreat only because equal birth layers count.
  EXPECT_TRUE(
      rooted_check({0, 1, 1}, {{0, 1}, {0, 2}, {1, 2}, {2, 1}}).found);
  // A DAG with cross edges into earlier layers: roots, but no cycle. The
  // search reaches only what the roots reach.
  const model::detail::cycle_search dag = rooted_check(
      {0, 1, 1, 2, 2, 3, 1}, {{0, 1},
                              {0, 2},
                              {0, 6},
                              {1, 3},
                              {2, 4},
                              {3, 2},
                              {3, 4},
                              {4, 5},
                              {5, 6}});
  EXPECT_FALSE(dag.found);
  EXPECT_EQ(dag.reached, 4u);  // 2, 4, 5, 6
  // No retreating edge: no cycle, and nothing visited.
  const model::detail::cycle_search tree =
      rooted_check({0, 1, 1, 2}, {{0, 1}, {0, 2}, {2, 3}, {1, 3}});
  EXPECT_FALSE(tree.found);
  EXPECT_EQ(tree.reached, 0u);
}

TEST(PorCycleCheck, SuccessorsAreVisitedInArrivalOrder) {
  // Root r = 0 has edges r->x (x = 1 starts the chain 1, 3, 4, 5, 6) and
  // r->y (y = 2), with y->r closing a cycle. In arrival order the DFS walks
  // the whole chain before it takes r->y: r, the 5 chain nodes and y are
  // coloured. A check that reversed r's successors would find the cycle
  // after colouring r and y only.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{
      {0, 1}, {0, 2}, {1, 3}, {3, 4}, {4, 5}, {5, 6}, {2, 0}};
  const model::detail::cycle_search order =
      rooted_check({0, 1, 1, 2, 3, 4, 5}, edges);
  EXPECT_TRUE(order.found);
  EXPECT_EQ(order.reached, 7u);
  // The same graph with r's edges in different blocks: the order holds
  // across blocks too.
  const model::detail::cycle_search split = rooted_check(
      {0, 1, 1, 2, 3, 4, 5},
      {{0, 1}, {1, 3}, {3, 4}, {0, 2}, {4, 5}, {5, 6}, {2, 0}});
  EXPECT_TRUE(split.found);
  EXPECT_EQ(split.reached, 7u);
}

TEST(PorSentinel, CappedRunReportsZeroMinEffectiveness) {
  // Regression for the ~usize{0} running-minimum leak: a run capped before
  // reaching any quiescent state must report min_effectiveness == 0, for
  // both explorers.
  const auto cfg =
      make_cfg(5, 3, 3, 2, selection_rule::paper_rank, kk_mode::plain);

  explore_options bo;
  bo.cfg = cfg;
  bo.max_states = 10;
  const explore_result brute = explore(bo);
  EXPECT_FALSE(brute.complete);
  EXPECT_EQ(brute.quiescent_states, 0u);
  EXPECT_EQ(brute.min_effectiveness, 0u);

  por_options po;
  po.cfg = cfg;
  po.max_states = 10;
  const explore_result por = explore_por(po);
  EXPECT_FALSE(por.complete);
  EXPECT_EQ(por.quiescent_states, 0u);
  EXPECT_EQ(por.min_effectiveness, 0u);

  // Capped mid-layer after quiescent states were reached: the true
  // minimum, neither the sentinel nor 0, at any pool size.
  po.max_states = 100'000;
  for (const usize workers : {usize{1}, usize{2}, usize{0}}) {
    svc::worker_pool pool(workers);
    po.pool = &pool;
    const explore_result r = explore_por(po);
    SCOPED_TRACE("workers=" + std::to_string(pool.size()));
    EXPECT_FALSE(r.complete);
    EXPECT_EQ(r.quiescent_states, 1'360u);
    EXPECT_EQ(r.min_effectiveness, 1u);
  }
}

TEST(PorLimits, OutOfModelConfigsThrow) {
  // kk_model's state arrays hold max_procs processes and max_jobs jobs,
  // and the paper's KK_beta needs beta >= 1 and at most f <= m - 1
  // crashes. A config outside the model is refused in every build type
  // (this test runs in Release too) — before this, a Release build wrote
  // past the arrays (n5m4f3 segfaulted, n11m2 "completed").
  struct bad_cfg {
    usize n, m, beta, f;
    const char* field;
  };
  for (const bad_cfg& c :
       {bad_cfg{4, 0, 1, 0, "m = 0"}, bad_cfg{5, 4, 4, 1, "m = 4"},
        bad_cfg{0, 2, 2, 1, "n = 0"}, bad_cfg{11, 2, 2, 1, "n = 11"},
        bad_cfg{4, 2, 0, 1, "beta = 0"},
        bad_cfg{4, 2, 2, 2, "crash_budget = 2 is outside the model [0, 1]"},
        bad_cfg{3, 3, 3, 3, "crash_budget = 3 is outside the model [0, 2]"}}) {
    const model::model_config cfg = make_cfg(c.n, c.m, c.beta, c.f,
                                      selection_rule::paper_rank,
                                      kk_mode::plain);
    SCOPED_TRACE(c.field);
    por_options po;
    po.cfg = cfg;
    explore_options eo;
    eo.cfg = cfg;
    for (const char* who : {"explore_por", "explore"}) {
      try {
        if (std::string(who) == "explore") {
          explore(eo);
        } else {
          explore_por(po);
        }
        ADD_FAILURE() << who << " accepted an out-of-model config";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind(std::string(who) + ": ", 0), 0u) << what;
        EXPECT_NE(what.find(c.field), std::string::npos) << what;
      }
    }
  }
}

TEST(PorLimits, MaxStatesAboveTheNodeKeySpaceThrows) {
  // Node keys pack a 6-bit shard and a 26-bit local id; the bound is
  // checked in every build type, not by an assert.
  por_options opt;
  opt.cfg = make_cfg(2, 2, 2, 1, selection_rule::paper_rank, kk_mode::plain);
  opt.max_states = (usize{1} << 26) + 1;
  try {
    explore_por(opt);
    ADD_FAILURE() << "max_states above the limit was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("67108864"), std::string::npos)
        << e.what();
  }
  opt.max_states = usize{1} << 26;
  EXPECT_TRUE(explore_por(opt).complete);
}

}  // namespace
}  // namespace amo
