// The distribution layer's contracts: shard references parse strictly,
// merge(shards) is byte-identical to the unsharded sweep, and the merge
// refuses duplicates, gaps, mixed grids, out-of-order sources and index
// fields no usize holds. (The unit partition's coverage is pinned in
// test_exp_replicas.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "merge_arrays.hpp"
#include "svc/worker_pool.hpp"

namespace amo {
namespace {

TEST(Shard, ParseAcceptsCanonicalForms) {
  exp::shard_ref s;
  ASSERT_TRUE(exp::parse_shard("0/3", s));
  EXPECT_EQ(s.index, 0u);
  EXPECT_EQ(s.count, 3u);
  ASSERT_TRUE(exp::parse_shard("2/3", s));
  EXPECT_EQ(s.index, 2u);
  ASSERT_TRUE(exp::parse_shard("0/1", s));
  EXPECT_EQ(exp::to_string(s), "0/1");
}

TEST(Shard, ParseRejectsMalformedInput) {
  exp::shard_ref s{7, 9};
  for (const char* bad : {"3/3", "4/3", "a/3", "1/0", "1", "1/", "/3", "",
                          "1/2/3", "-1/3", "1/b", " 1/3"}) {
    EXPECT_FALSE(exp::parse_shard(bad, s)) << bad;
    // A failed parse must leave the output untouched.
    EXPECT_EQ(s.index, 7u) << bad;
    EXPECT_EQ(s.count, 9u) << bad;
  }
}

// --- merge: byte-identity against the unsharded sweep ---

/// A small all-scheduled grid mixing algorithm families (deterministic:
/// every cell is a pure function of its spec).
std::vector<exp::run_spec> small_grid() {
  std::vector<exp::run_spec> cells;
  for (const char* adv : {"round_robin", "random", "stale_view"}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      exp::run_spec s;
      s.label = std::string("grid/") + adv;
      s.algo = exp::algo_family::kk;
      s.n = 129;
      s.m = 3;
      s.crash_budget = 1;
      s.adversary = {adv, seed};
      cells.push_back(std::move(s));
    }
  }
  exp::run_spec iter;
  iter.label = "grid/iterative";
  iter.algo = exp::algo_family::iterative;
  iter.n = 200;
  iter.m = 3;
  iter.eps_inv = 2;
  iter.adversary = {"random", 7};
  cells.push_back(iter);
  exp::run_spec tas;
  tas.label = "grid/tas";
  tas.algo = exp::algo_family::tas;
  tas.n = 100;
  tas.m = 2;
  tas.adversary = {"round_robin", 1};
  cells.push_back(tas);
  return cells;
}

/// The unsharded reference: the aggregate cell records `amo_lab sweep
/// --no-timing --out` writes for the whole grid.
std::string aggregate_json(const std::vector<exp::run_spec>& grid) {
  exp::sweep_options opt;
  opt.pool_size = 1;
  const exp::sweep_result swept = exp::sweep(grid, opt);
  exp::json_writer json;
  exp::cell_record_rows(swept, exp::grid_fingerprint(grid),
                        exp::json_rows(json),
                        /*include_timing=*/false);
  return json.dump();
}

/// Shard `ref` of the grid, in the exact format `amo_lab sweep --shard
/// --no-timing --out` writes: one unit record per owned (cell, replica).
std::string shard_json(const std::vector<exp::run_spec>& grid,
                       exp::shard_ref ref) {
  svc::worker_pool pool(1);
  const std::vector<exp::unit_ref> units = exp::shard_units(grid, ref);
  const exp::unit_run_result ur = exp::run_units(grid, units, pool);
  exp::json_writer json;
  exp::unit_record_rows(ur.reports, units, exp::unit_count(grid),
                        grid.size(), exp::grid_fingerprint(grid),
                        exp::json_rows(json),
                        /*include_timing=*/false);
  return json.dump();
}

TEST(Merge, ShardsRecombineByteIdentical) {
  const std::vector<exp::run_spec> grid = small_grid();
  const std::string reference = aggregate_json(grid);

  for (const usize k : {usize{1}, usize{2}, usize{3}, usize{5}, usize{16}}) {
    std::vector<std::vector<exp::record>> shards;
    for (usize i = 0; i < k; ++i) {
      const std::string doc = shard_json(grid, exp::shard_ref{i, k});
      exp::parse_result parsed = exp::parse_records(doc);
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      shards.push_back(std::move(parsed.records));
    }
    const exp::merge_result merged = merge_arrays(shards);
    ASSERT_TRUE(merged.ok()) << merged.error;
    EXPECT_EQ(exp::render_records(merged.records), reference) << "k = " << k;
  }
}

/// Shards of the grid, parsed — the valid starting point the failure tests
/// then corrupt.
std::vector<std::vector<exp::record>> parsed_shards(
    const std::vector<exp::run_spec>& grid, usize k) {
  std::vector<std::vector<exp::record>> shards;
  for (usize i = 0; i < k; ++i) {
    exp::parse_result parsed =
        exp::parse_records(shard_json(grid, exp::shard_ref{i, k}));
    shards.push_back(std::move(parsed.records));
  }
  return shards;
}

TEST(Merge, ShardOrderDoesNotMatter) {
  // Every order of the sources folds to the same bytes. Inside one source
  // the records must ascend: a reversed or rotated shard is refused, never
  // sorted.
  const std::vector<exp::run_spec> grid = small_grid();
  const std::string reference = aggregate_json(grid);
  const std::vector<std::vector<exp::record>> shards = parsed_shards(grid, 3);
  std::vector<usize> order = {0, 1, 2};
  do {
    std::vector<std::vector<exp::record>> permuted;
    for (const usize i : order) permuted.push_back(shards[i]);
    const exp::merge_result merged = merge_arrays(std::move(permuted));
    ASSERT_TRUE(merged.ok()) << merged.error;
    EXPECT_EQ(exp::render_records(merged.records), reference);
  } while (std::next_permutation(order.begin(), order.end()));

  for (const bool rotate : {false, true}) {
    std::vector<std::vector<exp::record>> bad = shards;
    ASSERT_GT(bad[0].size(), 1u);
    if (rotate) {
      std::rotate(bad[2].begin(), bad[2].begin() + 1, bad[2].end());
    } else {
      std::reverse(bad[0].begin(), bad[0].end());
    }
    const exp::merge_result merged = merge_arrays(std::move(bad));
    EXPECT_FALSE(merged.ok()) << "rotate = " << rotate;
    EXPECT_NE(merged.error.find("records out of order"), std::string::npos)
        << merged.error;
  }
}

TEST(Merge, DetectsDuplicateUnit) {
  const std::vector<exp::run_spec> grid = small_grid();
  std::vector<std::vector<exp::record>> shards = parsed_shards(grid, 3);
  shards.push_back({shards[0][0]});  // one unit delivered twice
  const exp::merge_result merged = merge_arrays(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("duplicate unit"), std::string::npos)
      << merged.error;
}

TEST(Merge, DetectsCoverageGap) {
  const std::vector<exp::run_spec> grid = small_grid();
  std::vector<std::vector<exp::record>> shards = parsed_shards(grid, 3);
  shards[1].erase(shards[1].begin());  // lose one unit
  const exp::merge_result merged = merge_arrays(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("coverage gap"), std::string::npos)
      << merged.error;
}

TEST(Merge, DetectsMixedGrids) {
  const std::vector<exp::run_spec> grid = small_grid();
  std::vector<std::vector<exp::record>> shards = parsed_shards(grid, 2);
  // A shard of a differently-sized grid: cells_total disagrees.
  const std::vector<exp::run_spec> other(grid.begin(), grid.begin() + 3);
  exp::parse_result parsed =
      exp::parse_records(shard_json(other, exp::shard_ref{0, 1}));
  shards.push_back(std::move(parsed.records));
  const exp::merge_result merged = merge_arrays(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("cells_total"), std::string::npos)
      << merged.error;
}

TEST(Merge, DetectsDifferentGridsOfEqualSize) {
  // Same cell count, different specs: cells_total agrees, so only the grid
  // fingerprint can tell the shards apart.
  const std::vector<exp::run_spec> grid = small_grid();
  std::vector<exp::run_spec> other = grid;
  other[0].adversary.seed += 1000;
  ASSERT_NE(exp::grid_fingerprint(grid), exp::grid_fingerprint(other));

  std::vector<std::vector<exp::record>> shards = parsed_shards(grid, 2);
  exp::parse_result foreign =
      exp::parse_records(shard_json(other, exp::shard_ref{1, 2}));
  ASSERT_TRUE(foreign.ok()) << foreign.error;
  shards[1] = std::move(foreign.records);

  const exp::merge_result merged = merge_arrays(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("grid fingerprint"), std::string::npos)
      << merged.error;
}

TEST(Merge, RejectsRecordsWithoutCellIndex) {
  exp::parse_result parsed =
      exp::parse_records("[\n  {\"scenario\": \"x\", \"work\": 3}\n]\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const exp::merge_result merged = merge_arrays({parsed.records});
  EXPECT_FALSE(merged.ok());
}

/// `doc` with the value of the first `"key": ` field replaced by `token`.
std::string respell(std::string doc, const char* key, const char* token) {
  const std::string field = std::string("\"") + key + "\": ";
  const usize at = doc.find(field) + field.size();
  doc.replace(at, doc.find_first_of(",}", at) - at, token);
  return doc;
}

TEST(Merge, OutOfRangeIndexSpellingsAreRefused) {
  // 1e30, 2^64 and 1e999 (which the lexer clamps to inf) are integral
  // doubles no usize holds. Casting them is undefined behaviour (it read
  // them as 0, so a record claiming unit 1e30 merged as unit 0); every
  // index field must refuse them instead.
  const std::vector<exp::run_spec> grid = small_grid();
  const std::string shard1 = shard_json(grid, exp::shard_ref{1, 2});
  for (const char* key :
       {"unit", "units_total", "cell", "cells_total", "replica", "replicas"}) {
    for (const char* token : {"1e30", "18446744073709551616", "1e999"}) {
      SCOPED_TRACE(std::string(key) + " = " + token);
      std::vector<std::vector<exp::record>> shards;
      for (const std::string& doc :
           {respell(shard_json(grid, exp::shard_ref{0, 2}), key, token),
            shard1}) {
        exp::parse_result parsed = exp::parse_records(doc);
        ASSERT_TRUE(parsed.ok()) << parsed.error;
        shards.push_back(std::move(parsed.records));
      }
      const exp::merge_result merged = merge_arrays(std::move(shards));
      EXPECT_FALSE(merged.ok());
      EXPECT_NE(merged.error.find("record without integer"),
                std::string::npos)
          << merged.error;
    }
  }
}

TEST(Merge, EmptyShardListYieldsEmptyDocument) {
  const exp::merge_result merged = merge_arrays({});
  ASSERT_TRUE(merged.ok()) << merged.error;
  EXPECT_TRUE(merged.records.empty());
}

}  // namespace
}  // namespace amo
