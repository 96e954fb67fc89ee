// Differential parity for per-cell replica blocks (exp/batch.hpp): every
// batchable algo family × the adversary zoo must produce per-replica
// run_reports bit-identical (exp::equivalent, which includes every charged
// op count) to the scalar engine, for consecutive and strided replica
// subsets alike; sweep aggregates must stay byte-identical across pool
// sizes and shard counts. Also pins the exact Lemire modulo
// (util/fastdiv.hpp) the seeded adversaries draw through against hardware %.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "exp/batch.hpp"
#include "exp/engine.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "svc/worker_pool.hpp"
#include "util/fastdiv.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

exp::run_spec kk_cell(const std::string& adv, usize n, usize m,
                      usize crash_budget, usize replicas,
                      std::uint64_t seed = 11) {
  exp::run_spec s;
  s.label = "parity/" + adv;
  s.algo = exp::algo_family::kk;
  s.n = n;
  s.m = m;
  s.crash_budget = crash_budget;
  s.replicas = replicas;
  s.adversary = {adv, seed};
  return s;
}

/// The scalar reference: each replica through exp::run independently.
std::vector<exp::run_report> scalar_reports(const exp::run_spec& cell,
                                            const std::vector<usize>& reps) {
  std::vector<exp::run_report> out;
  out.reserve(reps.size());
  for (const usize r : reps) out.push_back(exp::run(exp::replica_spec(cell, r)));
  return out;
}

void expect_block_matches_scalar(const exp::run_spec& cell,
                                 const std::vector<usize>& reps) {
  const std::vector<exp::run_report> expected = scalar_reports(cell, reps);
  const std::vector<exp::run_report> got =
      exp::run_replica_block(cell, reps);
  ASSERT_EQ(got.size(), expected.size()) << cell.label;
  for (usize i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(exp::equivalent(expected[i], got[i]))
        << cell.label << " replica " << reps[i];
    EXPECT_EQ(got[i].seed, expected[i].seed) << cell.label;
  }
}

TEST(FastMod, ExactAgainstHardwareRemainder) {
  xoshiro256 rng(2024);
  std::vector<std::uint64_t> divisors = {2,  3,   4,   5,    6,    7,   8,
                                         9,  10,  12,  16,   31,   64,  100,
                                         63, 127, 129, 1000, 4096, 65537};
  divisors.push_back(std::numeric_limits<std::uint64_t>::max());
  divisors.push_back(std::numeric_limits<std::uint64_t>::max() - 1);
  divisors.push_back(std::uint64_t{1} << 63);
  for (const std::uint64_t d : divisors) {
    const fastmod64 fm = fastmod64::for_divisor(d);
    // Edge numerators plus a random spray across the 64-bit range.
    std::vector<std::uint64_t> xs = {0, 1, d - 1, d, d + 1, ~std::uint64_t{0},
                                     ~std::uint64_t{0} - 1};
    for (int i = 0; i < 2000; ++i) xs.push_back(rng());
    for (const std::uint64_t x : xs) {
      ASSERT_EQ(fm.mod(x), x % d) << "x=" << x << " d=" << d;
    }
  }
  // d <= 1 encodes "no modulo": everything maps to 0, matching x % 1.
  EXPECT_EQ(fastmod64::for_divisor(1).mod(12345u), 0u);
}

TEST(FastMod, BoundedDrawReplicatesBelowStream) {
  // Two generators from the same seed: one drained through the cached-
  // reciprocal path, one through xoshiro256::below. Values AND consumption
  // must match, including across bound changes and bound <= 1 no-draws.
  xoshiro256 a(99);
  xoshiro256 b(99);
  bounded_draw draw;
  xoshiro256 bound_src(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bound = bound_src() % 300;  // includes 0 and 1
    ASSERT_EQ(draw.below(a, bound), b.below(bound)) << "i=" << i;
  }
  ASSERT_EQ(a(), b());  // streams still in lockstep at the end
}

TEST(BatchClassify, GateMatchesTheEngineContract) {
  using exp::batch_class;
  const auto cls = [](exp::run_spec s) { return exp::classify_batch(s); };
  exp::run_spec base = kk_cell("random", 64, 3, 0, 4);
  EXPECT_EQ(cls(base), batch_class::seeded);
  EXPECT_EQ(cls(kk_cell("random+crash", 64, 3, 2, 4)), batch_class::seeded);
  EXPECT_EQ(cls(kk_cell("random+crash:3/100", 64, 3, 2, 4)),
            batch_class::seeded);
  EXPECT_EQ(cls(kk_cell("block4", 64, 3, 0, 4)), batch_class::seeded);
  EXPECT_EQ(cls(kk_cell("block:7", 64, 3, 0, 4)), batch_class::seeded);
  EXPECT_EQ(cls(kk_cell("round_robin", 64, 3, 0, 4)), batch_class::replicate);
  EXPECT_EQ(cls(kk_cell("stale_view", 64, 3, 0, 4)), batch_class::replicate);
  EXPECT_EQ(cls(kk_cell("stale_view:100", 64, 3, 0, 4)),
            batch_class::replicate);
  EXPECT_EQ(cls(kk_cell("announce_crash", 64, 3, 2, 4)),
            batch_class::replicate);
  EXPECT_EQ(cls(kk_cell("scripted:s1 s2 s3", 64, 3, 0, 4)),
            batch_class::replicate);

  // Fallback triggers: unknown names, malformed parameters, non-sim memory,
  // trace recording, non-kk families, ao2 with m != 2.
  EXPECT_EQ(cls(kk_cell("no_such_adversary", 64, 3, 0, 4)),
            batch_class::not_batchable);
  EXPECT_EQ(cls(kk_cell("random+crash:3/0", 64, 3, 0, 4)),
            batch_class::not_batchable);
  EXPECT_EQ(cls(kk_cell("block:x", 64, 3, 0, 4)), batch_class::not_batchable);
  exp::run_spec traced = base;
  traced.record_trace = true;
  EXPECT_EQ(cls(traced), batch_class::not_batchable);
  exp::run_spec atomic = base;
  atomic.memory = exp::memory_kind::atomic;
  EXPECT_EQ(cls(atomic), batch_class::not_batchable);
  exp::run_spec iter = base;
  iter.algo = exp::algo_family::iterative;
  EXPECT_EQ(cls(iter), batch_class::not_batchable);
  exp::run_spec ao2 = base;
  ao2.algo = exp::algo_family::ao2;
  EXPECT_EQ(cls(ao2), batch_class::not_batchable);  // m == 3
  ao2.m = 2;
  EXPECT_EQ(cls(ao2), batch_class::seeded);
  exp::run_spec threads = base;
  threads.driver = exp::driver_kind::os_threads;
  EXPECT_EQ(cls(threads), batch_class::not_batchable);
}

TEST(BatchParity, AdversaryZooAcrossWidths) {
  // Every batchable schedule class, at widths 2, 7, and R (full block).
  const std::vector<std::string> zoo = {
      "round_robin",   "random",       "random+crash", "random+crash:3/100",
      "block4",        "block64",      "block:7",      "stale_view",
      "stale_view:64", "announce_crash"};
  for (const std::string& adv : zoo) {
    const exp::run_spec cell = kk_cell(adv, 129, 3, 2, 9, 23);
    for (const usize width : {usize{2}, usize{7}, usize{9}}) {
      std::vector<usize> reps(width);
      for (usize i = 0; i < width; ++i) reps[i] = i;
      expect_block_matches_scalar(cell, reps);
    }
  }
}

TEST(BatchParity, Ao2AndScriptedAndBigM) {
  // ao2 (the normalized two-process building block).
  exp::run_spec ao2 = kk_cell("random", 80, 2, 1, 6, 5);
  ao2.algo = exp::algo_family::ao2;
  expect_block_matches_scalar(ao2, {0, 1, 2, 3, 4, 5});

  // A scripted prefix (replicate path with a fallback tail).
  const exp::run_spec scripted =
      kk_cell("scripted:s1 s1 s2 c3 s2 s1", 40, 3, 1, 4, 9);
  expect_block_matches_scalar(scripted, {0, 1, 2, 3});

  // m >= 32 engages the word-parallel TRY paths inside every replica.
  const exp::run_spec wide = kk_cell("random", 300, 33, 4, 4, 31);
  expect_block_matches_scalar(wide, {0, 1, 2, 3});
  const exp::run_spec wide_blocks = kk_cell("block64", 300, 33, 0, 3, 31);
  expect_block_matches_scalar(wide_blocks, {0, 1, 2});
}

TEST(BatchParity, StridedReplicaSubsets) {
  // Shard slices hand the block non-consecutive replica indices; replicas
  // are independent streams, so any ascending subset must match its scalar
  // runs.
  const exp::run_spec cell = kk_cell("random+crash", 129, 3, 2, 12, 77);
  expect_block_matches_scalar(cell, {0, 3, 6, 9});
  expect_block_matches_scalar(cell, {1, 4, 7, 10});
  expect_block_matches_scalar(cell, {2, 5, 11});
  const exp::run_spec rr = kk_cell("round_robin", 129, 3, 0, 12, 77);
  expect_block_matches_scalar(rr, {0, 5, 10});
}

/// Mixed grid for the byte-identity sweeps: batchable seeded + seedless
/// cells, a non-batchable iterative cell, and an ao2 cell.
std::vector<exp::run_spec> parity_grid() {
  std::vector<exp::run_spec> cells;
  cells.push_back(kk_cell("random", 129, 3, 2, 5));
  cells.push_back(kk_cell("random+crash", 129, 3, 2, 3));
  cells.push_back(kk_cell("round_robin", 129, 3, 0, 4));
  cells.push_back(kk_cell("block4", 96, 4, 0, 2));
  exp::run_spec ao2 = kk_cell("random", 64, 2, 1, 3);
  ao2.algo = exp::algo_family::ao2;
  cells.push_back(ao2);
  exp::run_spec iter;
  iter.label = "parity/iterative";
  iter.algo = exp::algo_family::iterative;
  iter.n = 120;
  iter.m = 3;
  iter.eps_inv = 2;
  iter.replicas = 2;
  iter.adversary = {"random", 7};
  cells.push_back(iter);
  return cells;
}

std::string aggregate_json(const exp::sweep_result& swept,
                           const std::vector<exp::run_spec>& cells) {
  exp::json_writer json;
  exp::add_cell_records(json, swept, exp::grid_fingerprint(cells),
                        /*include_timing=*/false);
  return json.dump();
}

/// The scalar reference sweep: every unit through exp::run on the caller,
/// folded exactly as exp::sweep folds.
std::string scalar_json(const std::vector<exp::run_spec>& cells) {
  exp::sweep_result swept;
  for (const exp::run_spec& c : cells) {
    exp::cell_report cr;
    cr.first = swept.reports.size();
    cr.replicas = exp::resolved_replicas(c);
    for (usize r = 0; r < cr.replicas; ++r) {
      swept.reports.push_back(exp::run(exp::replica_spec(c, r)));
    }
    cr.stats = exp::fold_replicas(std::span<const exp::run_report>(
        swept.reports.data() + cr.first, cr.replicas));
    swept.cells.push_back(cr);
  }
  return aggregate_json(swept, cells);
}

std::string sweep_json(const std::vector<exp::run_spec>& cells,
                       usize pool_size) {
  return aggregate_json(exp::sweep(cells, exp::sweep_options{pool_size}), cells);
}

TEST(BatchSweep, ByteIdenticalToScalarRunsAcrossPoolSizes) {
  const std::vector<exp::run_spec> cells = parity_grid();
  const std::string ref = scalar_json(cells);
  for (const usize pool : {usize{1}, usize{2}, usize{0}}) {
    EXPECT_EQ(ref, sweep_json(cells, pool)) << "pool " << pool;
  }
}

TEST(BatchSweep, ShardedUnitsMergeByteIdentically) {
  const std::vector<exp::run_spec> cells = parity_grid();
  const std::string reference = scalar_json(cells);
  svc::worker_pool pool(2);
  for (const usize k : {usize{2}, usize{3}, usize{5}}) {
    std::vector<std::vector<exp::record>> shards;
    for (usize i = 0; i < k; ++i) {
      const std::vector<exp::unit_ref> units =
          exp::shard_units(cells, {i, k});
      const exp::unit_run_result ur = exp::run_units(cells, units, pool);
      exp::json_writer json;
      exp::add_unit_records(json, ur.reports, units, exp::unit_count(cells),
                            cells.size(), exp::grid_fingerprint(cells),
                            /*include_timing=*/false);
      exp::parse_result parsed = exp::parse_records(json.dump());
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      shards.push_back(std::move(parsed.records));
    }
    const exp::merge_result merged = exp::merge_shards(shards);
    ASSERT_TRUE(merged.ok()) << "k = " << k << ": " << merged.error;
    EXPECT_EQ(exp::render_records(merged.records), reference) << "k = " << k;
  }
}

TEST(BatchSweep, ThrowingCellStillFailsAndOthersComplete) {
  // A batchable grid with one bad cell: the block throw must surface after
  // the drain exactly like the scalar sweep contract.
  std::vector<exp::run_spec> cells = parity_grid();
  cells.push_back(kk_cell("no_such_adversary", 32, 2, 0, 3));
  EXPECT_THROW(exp::sweep(cells, exp::sweep_options{1}), std::invalid_argument);
  // Malformed parameterized name inside a *replicated* class throws too.
  std::vector<exp::run_spec> bad_script = {
      kk_cell("scripted:not a trace", 32, 2, 0, 3)};
  EXPECT_THROW(exp::sweep(bad_script, exp::sweep_options{1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace amo
