// The replica layer's contracts: per-replica seeds are a pure function of
// (base seed, replica index) — stable under cell reordering and resharding
// — replica 0 reproduces the single-run engine exactly, aggregate JSON is
// byte-identical across pool sizes and across shard+merge at replica
// granularity, and exp::fold_cell, the one aggregate fold, is the
// documented deterministic function of the replica values.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/stats.hpp"
#include "exp/sweep.hpp"
#include "merge_arrays.hpp"

namespace amo {
namespace {

/// A small all-scheduled grid with mixed replica counts.
std::vector<exp::run_spec> replica_grid() {
  std::vector<exp::run_spec> cells;
  const struct {
    const char* adv;
    usize replicas;
  } rows[] = {{"random", 5}, {"random+crash", 3}, {"round_robin", 1},
              {"stale_view", 4}};
  for (const auto& row : rows) {
    exp::run_spec s;
    s.label = std::string("replicas/") + row.adv;
    s.algo = exp::algo_family::kk;
    s.n = 129;
    s.m = 3;
    s.crash_budget = 2;
    s.replicas = row.replicas;
    s.adversary = {row.adv, 11};
    cells.push_back(std::move(s));
  }
  exp::run_spec iter;
  iter.label = "replicas/iterative";
  iter.algo = exp::algo_family::iterative;
  iter.n = 200;
  iter.m = 3;
  iter.eps_inv = 2;
  iter.replicas = 2;
  iter.adversary = {"random", 7};
  cells.push_back(iter);
  return cells;
}

/// The aggregate JSON of a full sweep at the given pool size.
std::string aggregate_json(const std::vector<exp::run_spec>& cells,
                           usize pool_size) {
  exp::sweep_options opt;
  opt.pool_size = pool_size;
  const exp::sweep_result swept = exp::sweep(cells, opt);
  exp::json_writer json;
  exp::cell_record_rows(swept, exp::grid_fingerprint(cells),
                        exp::json_rows(json),
                        /*include_timing=*/false);
  return json.dump();
}

/// The per-unit JSON of shard s — exactly what `amo_lab sweep --shard`
/// emits under --no-timing.
std::string shard_json(const std::vector<exp::run_spec>& cells,
                       const exp::shard_ref& s) {
  const std::vector<exp::unit_ref> units = exp::shard_units(cells, s);
  std::vector<exp::run_report> reports;
  reports.reserve(units.size());
  for (const exp::unit_ref& u : units) {
    reports.push_back(exp::run(exp::replica_spec(cells[u.cell], u.replica)));
  }
  exp::json_writer json;
  exp::unit_record_rows(reports, units, exp::unit_count(cells),
                        cells.size(), exp::grid_fingerprint(cells),
                        exp::json_rows(json),
                        /*include_timing=*/false);
  return json.dump();
}

TEST(ReplicaSeeds, ReplicaZeroKeepsTheBaseSeed) {
  for (const std::uint64_t base : {0ull, 1ull, 42ull, ~0ull}) {
    EXPECT_EQ(exp::replica_seed(base, 0), base);
  }
}

TEST(ReplicaSeeds, DerivedSeedsAreDistinctAndPositionIndependent) {
  // Stability under reordering is by construction — the seed depends only
  // on (base, r) — so replica specs of a shuffled grid equal the originals.
  std::vector<exp::run_spec> grid = replica_grid();
  std::vector<exp::run_spec> shuffled = grid;
  std::reverse(shuffled.begin(), shuffled.end());
  for (usize i = 0; i < grid.size(); ++i) {
    const exp::run_spec& a = grid[i];
    const exp::run_spec& b = shuffled[shuffled.size() - 1 - i];
    for (usize r = 0; r < exp::resolved_replicas(a); ++r) {
      EXPECT_EQ(exp::replica_spec(a, r).adversary.seed,
                exp::replica_spec(b, r).adversary.seed)
          << a.label << " replica " << r;
    }
  }
  // Distinctness across a wide replica range for a few bases.
  for (const std::uint64_t base : {1ull, 7919ull}) {
    std::vector<std::uint64_t> seeds;
    for (usize r = 0; r < 64; ++r) seeds.push_back(exp::replica_seed(base, r));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
        << "collision for base " << base;
  }
}

TEST(ReplicaSweep, ReplicaZeroReproducesTheSingleRunEngine) {
  // replicas = 1 must preserve the pre-replica per-run metrics exactly:
  // the lone replica runs under the unmodified base seed.
  for (const exp::run_spec& cell : replica_grid()) {
    exp::run_spec single = cell;
    single.replicas = 1;
    const exp::run_report direct = exp::run(single);
    const exp::sweep_result swept = exp::sweep({cell});
    ASSERT_EQ(swept.cells.size(), 1u);
    EXPECT_TRUE(exp::equivalent(direct, swept.reports[swept.cells[0].first]))
        << cell.label;
  }
}

TEST(ReplicaSweep, UnitsStealAcrossThePoolByteIdentically) {
  const std::vector<exp::run_spec> cells = replica_grid();
  const std::string ref = aggregate_json(cells, 1);
  EXPECT_EQ(ref, aggregate_json(cells, 2));
  EXPECT_EQ(ref, aggregate_json(cells, 0));  // hardware_concurrency
}

TEST(ReplicaSweep, FlattenedReportsMatchDirectReplicaRuns) {
  const std::vector<exp::run_spec> cells = replica_grid();
  exp::sweep_options opt;
  opt.pool_size = 4;
  const exp::sweep_result swept = exp::sweep(cells, opt);
  ASSERT_EQ(swept.cells.size(), cells.size());
  usize total = 0;
  for (usize i = 0; i < cells.size(); ++i) {
    const exp::cell_report& cr = swept.cells[i];
    ASSERT_EQ(cr.replicas, exp::resolved_replicas(cells[i]));
    for (usize r = 0; r < cr.replicas; ++r) {
      const exp::run_report direct = exp::run(exp::replica_spec(cells[i], r));
      EXPECT_TRUE(exp::equivalent(direct, swept.reports[cr.first + r]))
          << cells[i].label << " replica " << r;
      EXPECT_EQ(swept.reports[cr.first + r].seed,
                exp::replica_seed(cells[i].adversary.seed, r));
    }
    total += cr.replicas;
  }
  EXPECT_EQ(swept.reports.size(), total);
  EXPECT_EQ(total, exp::unit_count(cells));
}

TEST(ReplicaShard, UnitPartitionCoversEveryReplicaExactlyOnce) {
  const std::vector<exp::run_spec> cells = replica_grid();
  const usize total = exp::unit_count(cells);
  ASSERT_EQ(total, 15u);
  // k = 16 and 41 exceed the unit count: the shards past it own nothing.
  for (const usize k : {usize{1}, usize{2}, usize{3}, usize{5}, usize{16},
                        usize{41}}) {
    std::vector<usize> seen(total, 0);
    for (usize i = 0; i < k; ++i) {
      const std::vector<exp::unit_ref> owned = exp::shard_units(cells, {i, k});
      EXPECT_EQ(owned.size(), i < total ? (total - i - 1) / k + 1 : 0u)
          << "shard " << i << "/" << k;
      for (usize pos = 0; pos < owned.size(); ++pos) {
        const exp::unit_ref& u = owned[pos];
        ASSERT_LT(u.unit, total);
        ASSERT_LT(u.cell, cells.size());
        ASSERT_LT(u.replica, u.cell_replicas);
        EXPECT_EQ(u.cell_replicas, exp::resolved_replicas(cells[u.cell]));
        if (pos > 0) {
          EXPECT_GT(u.unit, owned[pos - 1].unit) << "shards are ascending";
        }
        ++seen[u.unit];
      }
    }
    for (usize u = 0; u < total; ++u) {
      EXPECT_EQ(seen[u], 1u) << "unit " << u << " k " << k;
    }
  }
  // An empty grid has no units for any shard to own.
  for (const usize k : {usize{1}, usize{3}}) {
    for (usize i = 0; i < k; ++i) {
      EXPECT_TRUE(exp::shard_units({}, {i, k}).empty()) << i << "/" << k;
    }
  }
}

TEST(ReplicaMerge, ShardsRefoldIntoByteIdenticalAggregates) {
  const std::vector<exp::run_spec> cells = replica_grid();
  const std::string reference = aggregate_json(cells, 1);
  for (const usize k : {usize{1}, usize{2}, usize{3}, usize{5}, usize{16}}) {
    std::vector<std::vector<exp::record>> shards;
    for (usize i = 0; i < k; ++i) {
      exp::parse_result parsed =
          exp::parse_records(shard_json(cells, {i, k}));
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      shards.push_back(std::move(parsed.records));
    }
    const exp::merge_result merged = merge_arrays(shards);
    ASSERT_TRUE(merged.ok()) << "k = " << k << ": " << merged.error;
    EXPECT_EQ(merged.units_total, exp::unit_count(cells));
    EXPECT_EQ(exp::render_records(merged.records), reference) << "k = " << k;
  }
}

TEST(ReplicaMerge, MissingReplicaIsACoverageGap) {
  const std::vector<exp::run_spec> cells = replica_grid();
  std::vector<std::vector<exp::record>> shards;
  for (usize i = 0; i < 3; ++i) {
    exp::parse_result parsed = exp::parse_records(shard_json(cells, {i, 3}));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    shards.push_back(std::move(parsed.records));
  }
  shards[1].erase(shards[1].begin());  // lose one unit
  const exp::merge_result merged = merge_arrays(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("coverage gap"), std::string::npos)
      << merged.error;

  // And a unit delivered twice is a duplicate.
  shards[1] = shards[0];
  const exp::merge_result dup = merge_arrays(shards);
  EXPECT_FALSE(dup.ok());
  EXPECT_NE(dup.error.find("duplicate unit"), std::string::npos) << dup.error;
}

TEST(ReplicaMerge, GridlessUnitRecordsMergeToValidParseableOutput) {
  // Foreign unit files may omit the grid fingerprint; the merged aggregate
  // must then simply omit it too — never emit an empty value token — and
  // its in-memory fields must carry decoded values agreeing with their
  // tokens (a re-merge reads .number, a diff or render the token).
  const char* doc =
      "[\n"
      "  {\"unit\": 0, \"units_total\": 2, \"cell\": 0, \"cells_total\": 1, "
      "\"replica\": 0, \"replicas\": 2, \"effectiveness\": 5, \"work\": 10, "
      "\"collisions\": 0, \"steps\": 3, \"at_most_once\": true, "
      "\"quiescent\": true, \"wa_complete\": false, \"duplicate\": 0},\n"
      "  {\"unit\": 1, \"units_total\": 2, \"cell\": 0, \"cells_total\": 1, "
      "\"replica\": 1, \"replicas\": 2, \"effectiveness\": 7, \"work\": 12, "
      "\"collisions\": 1, \"steps\": 4, \"at_most_once\": false, "
      "\"quiescent\": true, \"wa_complete\": false, \"duplicate\": 9}\n"
      "]\n";
  exp::parse_result parsed = exp::parse_records(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const exp::merge_result merged = merge_arrays({parsed.records});
  ASSERT_TRUE(merged.ok()) << merged.error;
  ASSERT_EQ(merged.records.size(), 1u);
  EXPECT_EQ(merged.records[0].find("grid"), nullptr);

  // The rendered output must re-parse (the old bug: an empty grid token).
  const exp::parse_result reparsed =
      exp::parse_records(exp::render_records(merged.records));
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;

  // Decoded values agree with the tokens on folded/synthesized fields.
  const exp::record& agg = merged.records[0];
  const exp::record_field* mean = agg.find("effectiveness_mean");
  ASSERT_NE(mean, nullptr);
  EXPECT_EQ(mean->number, 6.0);
  EXPECT_EQ(exp::token_of(*mean), "6");
  const exp::record_field* dup = agg.find("duplicate");
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->number, 9.0);
  EXPECT_EQ(exp::token_of(*dup), "9");
  const exp::record_field* amo = agg.find("at_most_once");
  ASSERT_NE(amo, nullptr);
  EXPECT_FALSE(amo->truth);  // any-replica violation folds in
  EXPECT_EQ(exp::token_of(*amo), "false");
}

TEST(ReplicaStats, SummarizeIsTheDocumentedFold) {
  const exp::metric_summary s = exp::summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  // population stddev of {1,2,3,4} = sqrt(1.25)
  EXPECT_NEAR(s.stddev, 1.118033988749895, 1e-12);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);  // nearest rank: ceil(4*0.50) = 2nd
  EXPECT_DOUBLE_EQ(s.p95, 4.0);  // ceil(4*0.95) = 4th
  const exp::metric_summary one = exp::summarize({7.0});
  EXPECT_DOUBLE_EQ(one.min, 7.0);
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p95, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
}

/// Field `key` of `rec`; a test failure, and a null field, when absent.
const exp::record_field& field_of(const exp::record& rec, const char* key) {
  static const exp::record_field missing;
  const exp::record_field* f = rec.find(key);
  EXPECT_NE(f, nullptr) << key;
  return f != nullptr ? *f : missing;
}

/// fold_cell over `rows` rows of schema `columns`, collected into a record.
exp::record fold_to_record(usize rows, const std::vector<std::string>& columns,
                           const exp::cell_at& at) {
  exp::record agg;
  std::string error;
  EXPECT_TRUE(exp::fold_cell(
      rows, columns, at,
      [&](std::string_view key, const exp::value_view& v) {
        exp::assign(agg.fields.emplace_back(), key, v);
      },
      error))
      << error;
  return agg;
}

/// One cell's unit rows folded two ways — as the typed rows the report
/// layer builds, and as the records parsed back from their JSON — which
/// must give the same aggregate, token for token.
exp::record fold_both_ways(const std::vector<exp::run_report>& reports,
                           const std::vector<exp::unit_ref>& units,
                           std::uint64_t grid, bool timing) {
  exp::record_table typed;
  exp::json_writer json;
  exp::unit_record_rows(
      reports, units, units.size(), 1, grid,
      [&](const exp::record_table& group) {
        typed = group;
        json.add(group);
        return true;
      },
      timing);
  const exp::record via_typed = fold_to_record(
      typed.rows.size(), typed.keys,
      [&](usize r, usize c) { return exp::view_of(typed.rows[r][c]); });

  const exp::parse_result parsed = exp::parse_records(json.dump());
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  std::vector<std::string> keys;
  for (const exp::record_field& f : parsed.records.at(0).fields) {
    keys.push_back(f.key);
  }
  const exp::record via_records = fold_to_record(
      parsed.records.size(), keys, [&](usize r, usize c) {
        return exp::view_of(parsed.records[r].fields[c]);
      });
  EXPECT_EQ(exp::render_records({via_typed}),
            exp::render_records({via_records}));
  return via_records;
}

TEST(ReplicaStats, FoldCellIsTheDocumentedAggregate) {
  // Three replicas of one cell, folded by hand: replica 1 breaks safety
  // and quiescence and names duplicate 17, replica 2 names duplicate 5
  // and leaves Write-All incomplete.
  std::vector<exp::run_report> reports(3);
  const usize effectiveness[] = {10, 4, 7};
  const double wall[] = {0.5, 0.25, 0.125};
  for (usize r = 0; r < reports.size(); ++r) {
    reports[r].label = "fold";
    reports[r].n = 12;
    reports[r].effectiveness = effectiveness[r];
    reports[r].wall_seconds = wall[r];
    reports[r].wa_complete = true;
  }
  reports[1].at_most_once = false;
  reports[1].quiescent = false;
  reports[1].duplicate = 17;
  reports[2].duplicate = 5;
  reports[2].wa_complete = false;
  const std::vector<exp::unit_ref> units = {
      {0, 0, 0, 3}, {1, 0, 1, 3}, {2, 0, 2, 3}};

  for (const bool timing : {true, false}) {
    const exp::record agg = fold_both_ways(reports, units, 0x1234, timing);

    EXPECT_EQ(agg.fields.front().key, "cell");
    EXPECT_EQ(field_of(agg, "replicas").number, 3.0);
    EXPECT_EQ(agg.find("unit"), nullptr);
    EXPECT_EQ(agg.find("replica"), nullptr);
    EXPECT_FALSE(field_of(agg, "at_most_once").truth);
    EXPECT_FALSE(field_of(agg, "quiescent").truth);
    EXPECT_FALSE(field_of(agg, "wa_complete").truth);
    // The first non-zero duplicate in replica order.
    EXPECT_EQ(exp::token_of(field_of(agg, "duplicate")), "17");
    // The base replica's own draw passes through.
    EXPECT_EQ(field_of(agg, "effectiveness").number, 10.0);
    EXPECT_EQ(field_of(agg, "effectiveness_min").number, 4.0);
    EXPECT_EQ(field_of(agg, "effectiveness_mean").number, 7.0);
    EXPECT_EQ(field_of(agg, "effectiveness_max").number, 10.0);
    // Nearest rank: ceil(3 * 0.50) = 2nd and ceil(3 * 0.95) = 3rd.
    EXPECT_EQ(field_of(agg, "effectiveness_p50").number, 7.0);
    EXPECT_EQ(field_of(agg, "effectiveness_p95").number, 10.0);
    if (timing) {
      EXPECT_EQ(agg.fields.back().key, "wall_seconds");
      EXPECT_EQ(field_of(agg, "wall_seconds").number, 0.875);
    } else {
      EXPECT_EQ(agg.find("wall_seconds"), nullptr);
    }
  }

  // Every replica safe: the flags stay true and duplicate reads 0.
  std::vector<exp::run_report> good(2);
  for (exp::run_report& r : good) r.wa_complete = true;
  const exp::record agg =
      fold_both_ways(good, {{0, 0, 0, 2}, {1, 0, 1, 2}}, 0, false);
  EXPECT_TRUE(field_of(agg, "at_most_once").truth);
  EXPECT_TRUE(field_of(agg, "quiescent").truth);
  EXPECT_TRUE(field_of(agg, "wa_complete").truth);
  EXPECT_EQ(exp::token_of(field_of(agg, "duplicate")), "0");
}

}  // namespace
}  // namespace amo
