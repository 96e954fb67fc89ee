// The sweep's one replica rule (exp/batch.hpp): a cell whose schedule
// ignores its seed runs once and its report is copied into every replica's
// slot; every other unit is its own pool task. For every scheduled algo
// family × every seedless adversary, plus one seeded row per family, each
// replica's report out of exp::sweep (pool sizes 1 and 3) and out of
// strided shard slices must match exp::run on that replica alone, field
// for field (exp::equivalent, which includes every charged op count, plus
// the echoed label, adversary, seed and trace). Aggregates stay
// byte-identical across pool sizes and shard counts, and a throwing cell
// fails the sweep without stopping the others. Also pins the exact Lemire
// modulo (util/fastdiv.hpp) the seeded adversaries draw through against
// hardware %.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/batch.hpp"
#include "exp/engine.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "merge_arrays.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_read.hpp"
#include "svc/worker_pool.hpp"
#include "util/fastdiv.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

using exp::algo_family;

exp::run_spec cell(algo_family algo, const std::string& adv, usize replicas,
                   std::uint64_t seed = 11) {
  exp::run_spec s;
  s.label = std::string("parity/") + exp::to_string(algo) + "/" + adv;
  s.algo = algo;
  s.n = 96;
  s.m = algo == algo_family::ao2 ? 2 : 3;
  s.eps_inv = 2;
  s.crash_budget = 1;
  s.replicas = replicas;
  s.adversary = {adv, seed};
  return s;
}

/// Every algo family a scheduled sweep runs (model_explore_por aside).
constexpr algo_family kFamilies[] = {
    algo_family::kk,         algo_family::ao2,
    algo_family::iterative,  algo_family::wa_iterative,
    algo_family::tas,        algo_family::wa_trivial,
    algo_family::wa_split_scan, algo_family::wa_progress_tree};

/// Every adversary whose schedule ignores its seed.
const std::vector<std::string> kSeedless = {
    "round_robin", "stale_view:40", "announce_crash",
    "scripted:s1 s2 c2 s1 s1 s2", "replay:s2 s1 s1 c1"};

/// Every family × every seedless adversary, one seeded row per family, and
/// two seedless cells the rule does not look at: a traced one and one over
/// atomic registers.
std::vector<exp::run_spec> family_grid() {
  std::vector<exp::run_spec> cells;
  std::uint64_t seed = 11;
  for (const algo_family f : kFamilies) {
    for (const std::string& adv : kSeedless) cells.push_back(cell(f, adv, 4, ++seed));
    cells.push_back(cell(f, "random+crash:1/20", 3, ++seed));
  }
  exp::run_spec traced = cell(algo_family::kk, "round_robin", 3);
  traced.record_trace = true;
  cells.push_back(traced);
  exp::run_spec atomic = cell(algo_family::iterative, "stale_view:40", 3);
  atomic.memory = exp::memory_kind::atomic;
  cells.push_back(atomic);
  return cells;
}

/// The reference: each replica of each cell through exp::run alone.
std::vector<std::vector<exp::run_report>> run_each(
    const std::vector<exp::run_spec>& cells) {
  std::vector<std::vector<exp::run_report>> out(cells.size());
  for (usize c = 0; c < cells.size(); ++c) {
    for (usize r = 0; r < exp::resolved_replicas(cells[c]); ++r) {
      out[c].push_back(exp::run(exp::replica_spec(cells[c], r)));
    }
  }
  return out;
}

void expect_same(const exp::run_report& want, const exp::run_report& got,
                 const std::string& where) {
  EXPECT_TRUE(exp::equivalent(want, got)) << where;
  EXPECT_EQ(got.label, want.label) << where;
  EXPECT_EQ(got.adversary, want.adversary) << where;
  EXPECT_EQ(got.seed, want.seed) << where;
  EXPECT_EQ(got.trace, want.trace) << where;
}

/// Units each cell ran, read off the sweep's spans: a "unit" span is one
/// replica, a "replica_block" span one run for `replicas` of them.
struct span_tally {
  std::vector<usize> units;   ///< per cell
  std::vector<usize> blocks;  ///< per cell
};

span_tally tally_spans(obs::session& s, usize cells) {
  span_tally t{std::vector<usize>(cells), std::vector<usize>(cells)};
  const obs::trace_parse_result parsed =
      obs::parse_trace(obs::export_json(s.sink()));
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  for (const obs::trace_event& e : parsed.events) {
    if (e.ph != 'X' || e.cat != "sweep") continue;
    usize c = cells;
    usize replicas = 1;
    for (const auto& [key, value] : e.args) {
      if (key == "cell") c = std::stoul(value);
      if (key == "replicas") replicas = std::stoul(value);
    }
    if (c >= cells) continue;
    t.units[c] += replicas;
    t.blocks[c] += e.name == "replica_block";
  }
  return t;
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

TEST(BatchRule, OnlySeedIndependentScheduledCellsAreBatchable) {
  for (const exp::run_spec& c : family_grid()) {
    EXPECT_EQ(exp::batchable(c), c.adversary.name.rfind("random", 0) != 0)
        << c.label;
  }
  exp::run_spec threads = cell(algo_family::kk, "round_robin", 4);
  threads.driver = exp::driver_kind::os_threads;
  EXPECT_FALSE(exp::batchable(threads));
  exp::run_spec por = cell(algo_family::model_explore_por, "round_robin", 4);
  por.n = 4;
  EXPECT_FALSE(exp::batchable(por));
  EXPECT_FALSE(exp::batchable(cell(algo_family::kk, "no_such_adversary", 4)));
  EXPECT_FALSE(exp::batchable(cell(algo_family::kk, "block:x", 4)));
  EXPECT_FALSE(exp::batchable(cell(algo_family::kk, "block4", 4)));
}

TEST(BatchRule, EveryFamilyMatchesRunPerReplica) {
  const std::vector<exp::run_spec> cells = family_grid();
  const std::vector<std::vector<exp::run_report>> want = run_each(cells);
  for (const usize workers : {usize{1}, usize{3}}) {
    svc::worker_pool pool(workers);
    const std::string at = " pool " + std::to_string(workers);
    obs::session s;
    ASSERT_TRUE(s.installed());
    const exp::sweep_result swept = exp::sweep(cells, pool);
    for (usize c = 0; c < cells.size(); ++c) {
      for (usize r = 0; r < swept.cells[c].replicas; ++r) {
        expect_same(want[c][r], swept.reports[swept.cells[c].first + r],
                    cells[c].label + " replica " + std::to_string(r) + at);
      }
    }
    // The rule itself: a batchable cell is one run, every other replica
    // its own task.
    const span_tally t = tally_spans(s, cells.size());
    for (usize c = 0; c < cells.size(); ++c) {
      EXPECT_EQ(t.units[c], exp::resolved_replicas(cells[c])) << cells[c].label;
      EXPECT_EQ(t.blocks[c], exp::batchable(cells[c]) ? 1u : 0u)
          << cells[c].label;
    }
    // Strided shard slices hand the rule non-consecutive replica indices.
    for (const usize k : {usize{2}, usize{3}}) {
      for (usize i = 0; i < k; ++i) {
        const std::vector<exp::unit_ref> units = exp::shard_units(cells, {i, k});
        const exp::unit_run_result ur = exp::run_units(cells, units, pool);
        for (usize u = 0; u < units.size(); ++u) {
          expect_same(want[units[u].cell][units[u].replica], ur.reports[u],
                      cells[units[u].cell].label + " replica " +
                          std::to_string(units[u].replica) + " shard " +
                          std::to_string(i) + "/" + std::to_string(k) + at);
        }
      }
    }
  }
}

std::string aggregate_json(const exp::sweep_result& swept,
                           const std::vector<exp::run_spec>& cells) {
  exp::json_writer json;
  exp::cell_record_rows(swept, exp::grid_fingerprint(cells),
                        exp::json_rows(json),
                        /*include_timing=*/false);
  return json.dump();
}

/// The reference sweep: every unit through exp::run on the caller, laid
/// out as exp::sweep lays out its reports.
std::string run_each_json(const std::vector<exp::run_spec>& cells) {
  exp::sweep_result swept;
  for (std::vector<exp::run_report>& reports : run_each(cells)) {
    exp::cell_report cr;
    cr.first = swept.reports.size();
    cr.replicas = reports.size();
    for (exp::run_report& r : reports) swept.reports.push_back(std::move(r));
    swept.cells.push_back(cr);
  }
  return aggregate_json(swept, cells);
}

TEST(BatchSweep, ByteIdenticalToScalarRunsAcrossPoolSizes) {
  const std::vector<exp::run_spec> cells = family_grid();
  const std::string ref = run_each_json(cells);
  for (const usize pool : {usize{1}, usize{2}, usize{0}}) {
    EXPECT_EQ(ref, aggregate_json(exp::sweep(cells, exp::sweep_options{pool}),
                                  cells))
        << "pool " << pool;
  }
}

TEST(BatchSweep, ShardedUnitsMergeByteIdentically) {
  const std::vector<exp::run_spec> cells = family_grid();
  const std::string reference = run_each_json(cells);
  svc::worker_pool pool(2);
  for (const usize k : {usize{2}, usize{3}, usize{5}}) {
    std::vector<std::vector<exp::record>> shards;
    for (usize i = 0; i < k; ++i) {
      const std::vector<exp::unit_ref> units =
          exp::shard_units(cells, {i, k});
      const exp::unit_run_result ur = exp::run_units(cells, units, pool);
      exp::json_writer json;
      exp::unit_record_rows(ur.reports, units, exp::unit_count(cells),
                            cells.size(), exp::grid_fingerprint(cells),
                            exp::json_rows(json),
                            /*include_timing=*/false);
      exp::parse_result parsed = exp::parse_records(json.dump());
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      shards.push_back(std::move(parsed.records));
    }
    const exp::merge_result merged = merge_arrays(shards);
    ASSERT_TRUE(merged.ok()) << "k = " << k << ": " << merged.error;
    EXPECT_EQ(exp::render_records(merged.records), reference) << "k = " << k;
  }
}

TEST(BatchSweep, ThrowingCellStillFailsAndOthersComplete) {
  // Each bad cell goes first, so the serial sweep meets its throw before
  // any other cell: the throw must surface after the drain with exp::run's
  // message, and every cell must still have run. The ao2 cell at m = 3 is
  // batchable (its adversary ignores the seed), so its one run throws for
  // all four replicas.
  exp::run_spec ao2 = cell(algo_family::ao2, "round_robin", 4);
  ao2.m = 3;
  const std::vector<exp::run_spec> bad_cells = {
      cell(algo_family::kk, "no_such_adversary", 3),
      cell(algo_family::kk, "scripted:not a trace", 3), ao2};
  for (const exp::run_spec& bad : bad_cells) {
    std::string want;
    try {
      (void)exp::run(exp::replica_spec(bad, 0));
    } catch (const std::invalid_argument& e) {
      want = e.what();
    }
    ASSERT_FALSE(want.empty()) << bad.label;
    std::vector<exp::run_spec> cells = family_grid();
    cells.insert(cells.begin(), bad);
    for (const usize workers : {usize{1}, usize{3}}) {
      svc::worker_pool pool(workers);
      obs::session s;
      ASSERT_TRUE(s.installed());
      std::string got;
      try {
        (void)exp::sweep(cells, pool);
      } catch (const std::invalid_argument& e) {
        got = e.what();
      }
      EXPECT_EQ(got, want) << bad.label << " pool " << workers;
      const span_tally t = tally_spans(s, cells.size());
      for (usize c = 0; c < cells.size(); ++c) {
        EXPECT_EQ(t.units[c], exp::resolved_replicas(cells[c]))
            << cells[c].label << " pool " << workers;
      }
    }
  }
}

}  // namespace
}  // namespace amo
