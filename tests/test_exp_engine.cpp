// The unified experiment engine (src/exp/): spec resolution, adversary
// construction by name, cross-backend agreement, trace record/replay
// round-trips, the escaping-correct JSON writer, and the scenario registry
// (including the Theorem 4.4 announce_crash entry with its required
// crash_budget = m-1).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "analysis/bounds.hpp"
#include "exp/engine.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"

namespace amo {
namespace {

exp::run_spec small_kk(const std::string& adversary, std::uint64_t seed = 1) {
  exp::run_spec s;
  s.algo = exp::algo_family::kk;
  s.n = 300;
  s.m = 3;
  s.adversary = {adversary, seed};
  return s;
}

TEST(ExpEngine, SameSpecSameReport) {
  const exp::run_spec spec = small_kk("random+crash:1/200", 42);
  const exp::run_report a = exp::run(spec);
  const exp::run_report b = exp::run(spec);
  EXPECT_TRUE(exp::equivalent(a, b));
}

TEST(ExpEngine, DegenerateUniverseRunsVacuously) {
  // n == 0 / m == 0 are valid specs; the engine returns a trivially
  // quiescent report instead of throwing.
  for (const auto& [n, m] : {std::pair<usize, usize>{0, 3}, {300, 0}}) {
    exp::run_spec s = small_kk("round_robin");
    s.n = n;
    s.m = m;
    const exp::run_report r = exp::run(s);
    EXPECT_TRUE(r.quiescent);
    EXPECT_TRUE(r.at_most_once);
    EXPECT_EQ(r.effectiveness, 0u);
    EXPECT_EQ(r.total_steps, 0u);
  }
}

TEST(ExpEngine, UnknownAdversaryThrows) {
  exp::run_spec spec = small_kk("no_such_schedule");
  EXPECT_THROW((void)exp::run(spec), std::invalid_argument);
}

TEST(ExpEngine, ParameterizedAdversaryNames) {
  EXPECT_TRUE(sim::parse_adversary("block:7", 1).has_value());
  EXPECT_TRUE(sim::parse_adversary("stale_view:1000", 1).has_value());
  EXPECT_TRUE(sim::parse_adversary("random+crash:1/100", 1).has_value());
  EXPECT_TRUE(sim::parse_adversary("replay:s1 c2", 1).has_value());
  EXPECT_FALSE(sim::parse_adversary("block:", 1).has_value());
  EXPECT_FALSE(sim::parse_adversary("block:99999999999999999999", 1).has_value());
  EXPECT_FALSE(sim::parse_adversary("random+crash:1/", 1).has_value());
  EXPECT_FALSE(sim::parse_adversary("random+crash:1/0", 1).has_value());
  EXPECT_FALSE(sim::parse_adversary("replay:junk here", 1).has_value());
}

TEST(ExpEngine, AdversaryGrammarClassifiesSeedDependence) {
  for (const char* name : {"random", "random+crash", "random+crash:3/7",
                           "block4", "block64", "block:9"}) {
    const auto adv = sim::parse_adversary(name, 1);
    ASSERT_TRUE(adv.has_value()) << name;
    EXPECT_TRUE(sim::seeded(*adv)) << name;
  }
  for (const char* name : {"round_robin", "stale_view", "stale_view:3",
                           "announce_crash", "scripted:s1", "replay:s2"}) {
    const auto adv = sim::parse_adversary(name, 1);
    ASSERT_TRUE(adv.has_value()) << name;
    EXPECT_FALSE(sim::seeded(*adv)) << name;
  }
  // Every standard name is in the grammar.
  for (const char* name : sim::standard_adversaries()) {
    EXPECT_TRUE(sim::parse_adversary(name, 7).has_value()) << name;
  }
}

TEST(ExpEngine, AtomicBackendMatchesSimUnderSameSchedule) {
  // The scheduled driver over atomic_memory executes the identical
  // deterministic interleaving as over sim_memory; outcome and charged work
  // must agree (the memory backends share the cost model).
  exp::run_spec spec = small_kk("round_robin");
  const exp::run_report sim_run = exp::run(spec);
  spec.memory = exp::memory_kind::atomic;
  const exp::run_report atomic_run = exp::run(spec);
  EXPECT_EQ(sim_run.effectiveness, atomic_run.effectiveness);
  EXPECT_EQ(sim_run.total_steps, atomic_run.total_steps);
  EXPECT_EQ(sim_run.total_work.total(), atomic_run.total_work.total());
  EXPECT_EQ(sim_run.total_collisions, atomic_run.total_collisions);
}

TEST(ExpEngine, ParameterizedAdversaryNamesEchoVerbatim) {
  // The parameters are identity, so block:5 is not shortened to block.
  const exp::run_report r = exp::run(small_kk("block:5", 9));
  EXPECT_EQ(r.adversary, "block:5");
  EXPECT_TRUE(r.at_most_once);
}

TEST(ExpEngine, OsThreadsDriverStaysSafe) {
  exp::run_spec spec;
  spec.algo = exp::algo_family::kk;
  spec.driver = exp::driver_kind::os_threads;
  spec.n = 2000;
  spec.m = 4;
  const exp::run_report r = exp::run(spec);
  EXPECT_TRUE(r.at_most_once);
  EXPECT_EQ(r.memory, exp::memory_kind::atomic);  // coerced
  EXPECT_EQ(r.terminated + r.crashes, 4u);
  EXPECT_GE(r.effectiveness, bounds::kk_effectiveness(2000, 4, 4));
}

TEST(ExpEngine, OsThreadsCrashPlanHonored) {
  exp::run_spec spec;
  spec.algo = exp::algo_family::kk;
  spec.driver = exp::driver_kind::os_threads;
  spec.n = 1000;
  spec.m = 4;
  spec.crashes.what = exp::crash_spec::kind::after_first_announce;
  spec.crashes.count = 3;
  const exp::run_report r = exp::run(spec);
  EXPECT_TRUE(r.at_most_once);
  EXPECT_EQ(r.crashes, 3u);
  EXPECT_EQ(r.terminated, 1u);
}

// --- trace record + replay (the exp::run_options::record_trace satellite) ---

TEST(ExpEngine, RecordedTraceReplaysToIdenticalReport) {
  exp::run_spec spec = small_kk("random+crash:1/150", 7);
  spec.crash_budget = 2;
  spec.record_trace = true;
  const exp::run_report original = exp::run(spec);
  ASSERT_FALSE(original.trace.empty());

  const exp::run_report replayed = exp::replay(spec, original.trace);
  EXPECT_TRUE(exp::equivalent(original, replayed));
  // The replay is re-recorded; a faithful replay reproduces the decision
  // sequence byte for byte.
  EXPECT_EQ(original.trace, replayed.trace);
}

TEST(ExpEngine, ReplayAdversaryNameRoundTrips) {
  exp::run_spec spec = small_kk("random", 13);
  spec.record_trace = true;
  const exp::run_report original = exp::run(spec);

  exp::run_spec replay_spec = spec;
  replay_spec.record_trace = false;
  replay_spec.adversary.name = "replay:" + original.trace.serialize();
  const exp::run_report replayed = exp::run(replay_spec);
  EXPECT_TRUE(exp::equivalent(original, replayed));
  EXPECT_EQ(replayed.adversary, "replay");  // echoed without the payload
}

TEST(ExpEngine, IterativeTraceReplay) {
  exp::run_spec spec;
  spec.algo = exp::algo_family::iterative;
  spec.n = 600;
  spec.m = 3;
  spec.eps_inv = 2;
  spec.adversary = {"block:9", 3};
  spec.record_trace = true;
  const exp::run_report original = exp::run(spec);
  const exp::run_report replayed = exp::replay(spec, original.trace);
  EXPECT_TRUE(exp::equivalent(original, replayed));
}

// --- JSON writer escaping (the benchx::json_report::str fix) ---

TEST(ExpReport, JsonStringEscapesControlCharacters) {
  using W = exp::json_writer;
  EXPECT_EQ(W::str("plain"), "\"plain\"");
  EXPECT_EQ(W::str("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(W::str("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(W::str("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(W::str("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(W::str("cr\rhere"), "\"cr\\rhere\"");
  EXPECT_EQ(W::str(std::string("nul") + '\x01' + "byte"), "\"nul\\u0001byte\"");
  EXPECT_EQ(W::str(std::string(1, '\x1f')), "\"\\u001f\"");
}

TEST(ExpReport, UnitRowsOmitTimingOnRequest) {
  const std::vector<exp::run_report> reports{exp::run(small_kk("round_robin"))};
  const std::vector<exp::unit_ref> units{{0, 0, 0, 1}};
  const auto keys_of = [&](bool include_timing) {
    std::vector<std::string> keys;
    EXPECT_TRUE(exp::unit_record_rows(
        reports, units, 1, 1, 0,
        [&keys](const exp::record_table& group) {
          EXPECT_EQ(group.rows.size(), 1u);
          EXPECT_EQ(group.rows.front().size(), group.keys.size());
          keys = group.keys;
          return true;
        },
        include_timing));
    return keys;
  };
  std::vector<std::string> with = keys_of(true);
  const std::vector<std::string> without = keys_of(false);
  // include_timing=false drops exactly wall_seconds, and nothing else.
  const auto wall = std::find(with.begin(), with.end(), "wall_seconds");
  ASSERT_NE(wall, with.end());
  with.erase(wall);
  EXPECT_EQ(with, without);
}

// --- scenario registry ---

TEST(ExpRegistry, NamesAreUniqueAndResolvable) {
  std::set<std::string> names;
  for (const exp::scenario& s : exp::scenario_registry()) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_EQ(exp::find_scenario(s.name), &s);
  }
  EXPECT_EQ(exp::find_scenario("definitely/not_registered"), nullptr);
  EXPECT_THROW((void)exp::scenario_cells("nope", {}), std::invalid_argument);
}

TEST(ExpRegistry, EveryScenarioExpandsAndRunsSafely) {
  exp::scenario_params p;
  p.n = 200;
  p.m = 3;
  p.eps_inv = 1;
  p.seeds = 1;
  const std::vector<exp::run_spec> cells = exp::all_scenario_cells(p);
  ASSERT_GE(cells.size(), exp::scenario_registry().size());
  const exp::sweep_result result = exp::sweep(cells);
  for (usize i = 0; i < result.reports.size(); ++i) {
    EXPECT_TRUE(result.reports[i].at_most_once)
        << cells[i].label << " duplicate " << result.reports[i].duplicate;
  }
}

TEST(ExpRegistry, AnnounceCrashScenarioIsTight) {
  // The Theorem 4.4 worst case is a standard registry entry with the
  // required crash budget f = m-1; its measured effectiveness must land
  // exactly on n - (beta + m - 2).
  exp::scenario_params p;
  p.n = 1024;
  p.m = 4;
  const std::vector<exp::run_spec> cells =
      exp::scenario_cells("kk/announce_crash", p);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].crash_budget, p.m - 1);
  EXPECT_EQ(cells[0].adversary.name, "announce_crash");
  const exp::run_report r = exp::run(cells[0]);
  EXPECT_EQ(r.effectiveness, bounds::kk_effectiveness(p.n, p.m, p.m));
  EXPECT_EQ(r.crashes, p.m - 1);
}

// --- baseline and model families ---

TEST(ExpEngine, Ao2IsTwoEndsKkAtBetaOne) {
  // algo_family::ao2 is KK_beta with the two-ends rule at beta = 1, m = 2:
  // same adversary, same seed, same effectiveness and charged work.
  for (const std::uint64_t seed : {1ull, 5ull}) {
    exp::run_spec s;
    s.algo = exp::algo_family::ao2;
    s.n = 500;
    s.m = 2;
    s.crash_budget = 1;
    s.adversary = {"random+crash:1/100", seed};
    const exp::run_report r = exp::run(s);

    exp::run_spec kk = s;
    kk.algo = exp::algo_family::kk;
    kk.beta = 1;
    kk.rule = selection_rule::two_ends;
    const exp::run_report two_ends = exp::run(kk);
    EXPECT_EQ(r.effectiveness, two_ends.effectiveness) << "seed " << seed;
    EXPECT_EQ(r.total_work.total(), two_ends.total_work.total());
    EXPECT_TRUE(r.at_most_once);
    EXPECT_EQ(r.beta, 1u);  // the engine resolves ao2's required beta
  }
  // AO2 is inherently two-process — including for degenerate universes,
  // which must not slip past validation as vacuous successes.
  for (const usize bad_m : {usize{3}, usize{0}}) {
    exp::run_spec bad;
    bad.algo = exp::algo_family::ao2;
    bad.n = 100;
    bad.m = bad_m;
    EXPECT_THROW((void)exp::run(bad), std::invalid_argument) << bad_m;
  }
}

TEST(ExpEngine, TasBaselinePerformsEverythingWhenCrashFree) {
  exp::run_spec s;
  s.algo = exp::algo_family::tas;
  s.n = 400;
  s.m = 4;
  s.adversary = {"random", 3};
  const exp::run_report r = exp::run(s);
  EXPECT_TRUE(r.at_most_once);  // TAS claiming is trivially at-most-once
  EXPECT_EQ(r.effectiveness, s.n);  // with RMW nothing is lost (f = 0)
  EXPECT_TRUE(r.quiescent);
  EXPECT_EQ(r.terminated, s.m);
  EXPECT_GT(r.total_work.total(), 0u);
}

TEST(ExpEngine, TasBaselineRunsOnOsThreads) {
  // The TAS board is std::atomic by construction, so it is the one baseline
  // family that also runs under the real-thread driver.
  exp::run_spec s;
  s.algo = exp::algo_family::tas;
  s.driver = exp::driver_kind::os_threads;
  s.n = 1000;
  s.m = 4;
  const exp::run_report r = exp::run(s);
  EXPECT_TRUE(r.at_most_once);
  EXPECT_EQ(r.effectiveness, s.n);
  EXPECT_EQ(r.terminated, s.m);
  EXPECT_EQ(r.memory, exp::memory_kind::atomic);  // coerced for threads
  EXPECT_EQ(r.total_steps, r.total_work.actions);

  // Crashing all but one thread after its first claim loses at most one
  // claimed-but-unperformed job per crashed thread. A thread that starts
  // after the others have claimed every job never claims, so it terminates
  // instead of crashing: the crash count is timing-dependent.
  exp::run_spec crashy = s;
  crashy.crashes.what = exp::crash_spec::kind::after_first_announce;
  crashy.crashes.count = s.m - 1;
  const exp::run_report c = exp::run(crashy);
  EXPECT_TRUE(c.at_most_once);
  EXPECT_LE(c.crashes, s.m - 1);
  EXPECT_EQ(c.crashes + c.terminated, s.m);
  EXPECT_GE(c.effectiveness, crashy.n - c.crashes);
}

TEST(ExpEngine, TasCrashAfterFirstClaimIsExactUnderScheduledDriver) {
  // The after_first_announce pattern as a fixed schedule: processes
  // 1..m-1 each win one claim (their first step) and crash before
  // performing it, so exactly m-1 crashes lose exactly m-1 jobs.
  exp::run_spec s;
  s.algo = exp::algo_family::tas;
  s.n = 1000;
  s.m = 4;
  s.crash_budget = s.m - 1;
  s.adversary = {"scripted:s1 c1 s2 c2 s3 c3", 1};
  const exp::run_report c = exp::run(s);
  EXPECT_TRUE(c.at_most_once);
  EXPECT_EQ(c.crashes, s.m - 1);
  EXPECT_EQ(c.terminated, 1u);
  EXPECT_EQ(c.effectiveness, s.n - (s.m - 1));
  EXPECT_TRUE(c.quiescent);
}

TEST(ExpEngine, WriteAllBaselinesCompleteCrashFree) {
  for (const exp::algo_family algo :
       {exp::algo_family::wa_trivial, exp::algo_family::wa_split_scan,
        exp::algo_family::wa_progress_tree}) {
    exp::run_spec s;
    s.algo = algo;
    s.n = 300;
    s.m = 3;
    s.adversary = {"round_robin", 1};
    const exp::run_report r = exp::run(s);
    EXPECT_TRUE(r.quiescent) << exp::to_string(algo);
    EXPECT_TRUE(r.wa_complete) << exp::to_string(algo);
    EXPECT_EQ(r.wa_written, s.n) << exp::to_string(algo);
    EXPECT_GE(r.total_work.total(), s.n) << exp::to_string(algo);
  }
  // wa_trivial's work ceiling is exactly m writes per cell plus the final
  // terminated-check action per process — and every one of those m*n
  // writes is a (legal) do-action, so perform_events records them all.
  exp::run_spec triv;
  triv.algo = exp::algo_family::wa_trivial;
  triv.n = 128;
  triv.m = 4;
  triv.adversary = {"round_robin", 1};
  const exp::run_report tr = exp::run(triv);
  EXPECT_GE(tr.total_work.actions, triv.n * triv.m);
  EXPECT_EQ(tr.perform_events, triv.n * triv.m);
  EXPECT_EQ(tr.effectiveness, triv.n);
}

TEST(ExpEngine, WriteAllSplitScanSurvivesCrashes) {
  // One survivor suffices: f = m-1 random crashes, completion must hold.
  exp::run_spec s;
  s.algo = exp::algo_family::wa_split_scan;
  s.n = 200;
  s.m = 4;
  s.crash_budget = 3;
  s.adversary = {"random+crash:1/50", 11};
  const exp::run_report r = exp::run(s);
  EXPECT_TRUE(r.quiescent);
  EXPECT_TRUE(r.wa_complete);
  EXPECT_EQ(r.wa_written, s.n);
}

TEST(ExpEngine, ModelExploreProvesTheorem44OnTinyInstances) {
  exp::run_spec s;
  s.algo = exp::algo_family::model_explore_por;
  s.n = 5;
  s.m = 2;
  s.beta = 2;
  s.crash_budget = 1;  // f = m-1
  const exp::run_report r = exp::run(s);
  EXPECT_TRUE(r.at_most_once);       // Lemma 4.1, over EVERY execution
  EXPECT_TRUE(r.quiescent);          // fully explored, acyclic
  EXPECT_EQ(r.adversary, "exhaustive");
  // Theorem 4.4: min effectiveness over all quiescent states is exactly
  // n - (beta + m - 2).
  EXPECT_EQ(r.effectiveness, s.n - (s.beta + s.m - 2));
  EXPECT_GT(r.total_steps, 0u);            // transitions
  EXPECT_GT(r.total_work.local_ops, 0u);   // states visited
  EXPECT_GT(r.terminated, 0u);             // quiescent states

  // Size guard: the packed model handles n <= 10, m <= 3 only.
  exp::run_spec big = s;
  big.n = 64;
  EXPECT_THROW((void)exp::run(big), std::invalid_argument);
  // And it is a scheduled-driver family — checked even for degenerate
  // universes (validation precedes the n == 0 shortcut).
  for (const usize n : {s.n, usize{0}}) {
    exp::run_spec threads = s;
    threads.n = n;
    threads.driver = exp::driver_kind::os_threads;
    EXPECT_THROW((void)exp::run(threads), std::invalid_argument) << n;
  }
}

TEST(ExpRegistry, TraceReplayScenarioReproduces) {
  exp::scenario_params p;
  p.n = 400;
  p.m = 3;
  const std::vector<exp::run_spec> cells =
      exp::scenario_cells("kk/trace_replay", p);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].adversary.name.starts_with("replay:"));
  const exp::run_report r = exp::run(cells[0]);
  EXPECT_TRUE(r.at_most_once);
  EXPECT_TRUE(r.quiescent);
}

}  // namespace
}  // namespace amo
