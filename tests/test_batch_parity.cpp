// Differential parity for the batched replica engine (exp/batch.hpp): every
// batchable algo family × the adversary zoo × several batch widths must
// produce per-replica run_reports bit-identical (exp::equivalent, which
// includes every charged op count) to the scalar engine, for consecutive and
// strided replica subsets alike; sweep aggregates must stay byte-identical
// across pool sizes, batch widths, and shard counts with batching on. Also
// pins the two arithmetic substitutions the lane kernel rides on: exact
// Lemire modulo (util/fastdiv.hpp) against hardware %, and the SoA lane
// FREE set (sets/lane_free_set.hpp) against bitset_rank_set including the
// charge stream.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "exp/batch.hpp"
#include "exp/engine.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "sets/bitset_rank_set.hpp"
#include "sets/lane_free_set.hpp"
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

TEST(LaneFreeSet, MatchesBitsetRankSetIncludingCharges) {
  // Drive one arena lane and a bitset_rank_set through an identical random
  // op mix; results and the charged op stream must agree exactly.
  for (const job_id universe : {job_id{1}, job_id{63}, job_id{64}, job_id{65},
                               job_id{129}, job_id{1000}, job_id{4096}}) {
    lane_free_arena arena(universe, 3);
    lane_free_set lane = arena.view(1);  // middle lane: stride is exercised
    bitset_rank_set ref = bitset_rank_set::full(universe);
    op_counter lane_oc;
    op_counter ref_oc;
    lane.set_counter(&lane_oc);
    ref.set_counter(&ref_oc);
    ASSERT_EQ(lane.size(), ref.size());
    ASSERT_EQ(lane.universe(), ref.universe());

    xoshiro256 rng(universe * 7 + 1);
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.below(5);
      const job_id x = static_cast<job_id>(rng.below(universe + 2));  // 0..u+1
      switch (op) {
        case 0:
          ASSERT_EQ(lane.contains(x), ref.contains(x));
          break;
        case 1:
          if (x >= 1 && x <= universe) {
            ASSERT_EQ(lane.insert(x), ref.insert(x));
          }
          break;
        case 2:
          ASSERT_EQ(lane.erase(x), ref.erase(x));
          break;
        case 3:
          if (ref.size() > 0) {
            const usize k = static_cast<usize>(rng.below(ref.size())) + 1;
            ASSERT_EQ(lane.select(k), ref.select(k));
          }
          break;
        case 4:
          ASSERT_EQ(lane.rank_le(x), ref.rank_le(x));
          break;
      }
      ASSERT_EQ(lane.size(), ref.size());
      ASSERT_EQ(lane_oc, ref_oc) << "universe " << universe << " step " << step;
    }
    EXPECT_EQ(lane.to_vector(), ref.to_vector());
    // Word surface agrees too (the word-parallel FREE \ TRY paths read it).
    ASSERT_EQ(lane.num_words(), ref.num_words());
    for (usize w = 0; w < ref.num_words(); ++w) {
      ASSERT_EQ(lane.word(w), ref.word(w));
    }
    // Neighbor lanes were never touched: still the full universe.
    EXPECT_EQ(arena.view(0).size(), static_cast<usize>(universe));
    EXPECT_EQ(arena.view(2).size(), static_cast<usize>(universe));
  }
}

TEST(BatchClassify, GateMatchesTheEngineContract) {
  using exp::batch_class;
  const auto cls = [](exp::run_spec s) { return exp::classify_batch(s); };
  exp::run_spec base = kk_cell("random", 64, 3, 0, 4);
  EXPECT_EQ(cls(base), batch_class::lanes);
  EXPECT_EQ(cls(kk_cell("random+crash", 64, 3, 2, 4)), batch_class::lanes);
  EXPECT_EQ(cls(kk_cell("random+crash:3/100", 64, 3, 2, 4)),
            batch_class::lanes);
  EXPECT_EQ(cls(kk_cell("block4", 64, 3, 0, 4)), batch_class::lanes);
  EXPECT_EQ(cls(kk_cell("block:7", 64, 3, 0, 4)), batch_class::lanes);
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
  EXPECT_EQ(cls(ao2), batch_class::lanes);
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

  // m >= 32 engages the word-parallel TRY paths inside every lane.
  const exp::run_spec wide = kk_cell("random", 300, 33, 4, 4, 31);
  expect_block_matches_scalar(wide, {0, 1, 2, 3});
  const exp::run_spec wide_blocks = kk_cell("block64", 300, 33, 0, 3, 31);
  expect_block_matches_scalar(wide_blocks, {0, 1, 2});
}

TEST(BatchParity, StridedReplicaSubsets) {
  // Shard slices hand the block non-consecutive replica indices; lanes are
  // independent streams, so any ascending subset must match its scalar runs.
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

std::string aggregate_json(const std::vector<exp::run_spec>& cells,
                           usize pool_size, const exp::batch_options& batch) {
  exp::sweep_options opt;
  opt.pool_size = pool_size;
  const exp::sweep_result swept = exp::sweep(cells, opt, batch);
  exp::json_writer json;
  exp::add_cell_records(json, swept, exp::grid_fingerprint(cells),
                        /*include_timing=*/false);
  return json.dump();
}

TEST(BatchSweep, ByteIdenticalAcrossPoolSizesAndWidths) {
  const std::vector<exp::run_spec> cells = parity_grid();
  // Scalar serial run is the reference.
  const std::string ref = aggregate_json(cells, 1, {.batch_replicas = 0});
  for (const usize pool : {usize{1}, usize{2}, usize{0}}) {
    for (const usize width :
         {usize{0}, usize{1}, usize{2}, usize{3}, exp::batch_auto}) {
      EXPECT_EQ(ref, aggregate_json(cells, pool, {.batch_replicas = width}))
          << "pool " << pool << " width " << width;
    }
  }
}

TEST(BatchSweep, ShardedUnitsMergeByteIdenticallyWithBatchingOn) {
  const std::vector<exp::run_spec> cells = parity_grid();
  const std::string reference = aggregate_json(cells, 1, {.batch_replicas = 0});
  svc::worker_pool pool(2);
  for (const usize k : {usize{2}, usize{3}, usize{5}}) {
    std::vector<std::vector<exp::record>> shards;
    for (usize i = 0; i < k; ++i) {
      const std::vector<exp::unit_ref> units =
          exp::shard_units(cells, {i, k});
      const exp::unit_run_result ur =
          exp::run_units(cells, units, pool, exp::batch_options{});
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
