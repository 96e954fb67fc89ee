// Trace record/replay: serialization round-trips, and — the property that
// matters — replaying a recorded schedule reproduces the execution exactly
// (same effectiveness, same step counts, same per-process statistics).
#include <gtest/gtest.h>

#include "exp/engine.hpp"
#include "sim/trace.hpp"

namespace amo {
namespace {

TEST(Trace, SerializeParseRoundTrip) {
  sim::trace t;
  t.append({sim::decision::kind::step, 3});
  t.append({sim::decision::kind::crash, 1});
  t.append({sim::decision::kind::step, 12});
  EXPECT_EQ(t.serialize(), "s3 c1 s12");

  sim::trace parsed;
  ASSERT_TRUE(sim::trace::parse("s3 c1 s12", parsed));
  EXPECT_EQ(parsed, t);
}

TEST(Trace, ParseRejectsMalformed) {
  sim::trace out;
  EXPECT_FALSE(sim::trace::parse("x3", out));
  EXPECT_FALSE(sim::trace::parse("s", out));
  EXPECT_FALSE(sim::trace::parse("s0", out));
  EXPECT_FALSE(sim::trace::parse("3s", out));
  EXPECT_FALSE(sim::trace::parse("s4294967297", out));
  EXPECT_FALSE(sim::trace::parse("s18446744073709551617", out));
  EXPECT_TRUE(sim::trace::parse("", out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(sim::trace::parse("  s1   c2  ", out));
  EXPECT_EQ(out.size(), 2u);
}

TEST(Trace, PrefixTruncates) {
  sim::trace t;
  for (process_id p = 1; p <= 5; ++p) t.append({sim::decision::kind::step, p});
  const sim::trace pre = t.prefix(3);
  EXPECT_EQ(pre.size(), 3u);
  EXPECT_EQ(pre.events()[2].pid, 3u);
  EXPECT_EQ(t.prefix(99).size(), 5u);
}

TEST(Trace, ReplayReproducesExecutionExactly) {
  for (const std::uint64_t seed : {5ull, 17ull, 41ull}) {
    exp::run_spec opt;
    opt.n = 600;
    opt.m = 4;
    opt.crash_budget = 2;

    sim::trace recorded;
    sim::random_adversary inner(seed, 1, 300);
    sim::recording_adversary rec(inner, recorded);
    const auto original = exp::run(opt, rec);
    ASSERT_TRUE(original.quiescent);
    ASSERT_GT(recorded.size(), 0u);

    sim::scripted_adversary rep(recorded.events());
    const auto replayed = exp::run(opt, rep);
    EXPECT_TRUE(rep.faithful());
    EXPECT_EQ(replayed.effectiveness, original.effectiveness);
    EXPECT_EQ(replayed.total_steps, original.total_steps);
    EXPECT_EQ(replayed.crashes, original.crashes);
    EXPECT_EQ(replayed.total_collisions, original.total_collisions);
    ASSERT_EQ(replayed.per_process.size(), original.per_process.size());
    for (usize i = 0; i < original.per_process.size(); ++i) {
      EXPECT_EQ(replayed.per_process[i].performs, original.per_process[i].performs);
      EXPECT_EQ(replayed.per_process[i].announces,
                original.per_process[i].announces);
      EXPECT_EQ(replayed.per_process[i].work.total(),
                original.per_process[i].work.total());
    }
  }
}

TEST(Trace, SerializedReplayAlsoReproduces) {
  exp::run_spec opt;
  opt.n = 200;
  opt.m = 3;

  sim::trace recorded;
  sim::random_adversary inner(7);
  sim::recording_adversary rec(inner, recorded);
  const auto original = exp::run(opt, rec);

  // Through the text form, as a bug report would travel.
  sim::trace parsed;
  ASSERT_TRUE(sim::trace::parse(recorded.serialize(), parsed));
  EXPECT_EQ(parsed, recorded);

  sim::scripted_adversary rep(parsed.events());
  const auto replayed = exp::run(opt, rep);
  EXPECT_TRUE(rep.faithful());
  EXPECT_EQ(replayed.effectiveness, original.effectiveness);
  EXPECT_EQ(replayed.total_steps, original.total_steps);
}

TEST(Trace, RecordingCapturesDowngradedCrashes) {
  // A crash-hungry adversary with a tiny budget: requests beyond the budget
  // must be recorded as steps, so replay's crash count matches execution.
  exp::run_spec opt;
  opt.n = 150;
  opt.m = 3;
  opt.crash_budget = 1;

  sim::trace recorded;
  sim::random_adversary inner(9, 1, 10);  // tries to crash constantly
  sim::recording_adversary rec(inner, recorded);
  const auto original = exp::run(opt, rec);
  EXPECT_EQ(original.crashes, 1u);

  usize recorded_crashes = 0;
  for (const auto& e : recorded.events()) {
    recorded_crashes += e.what == sim::decision::kind::crash ? 1 : 0;
  }
  EXPECT_EQ(recorded_crashes, 1u);

  sim::scripted_adversary rep(recorded.events());
  const auto replayed = exp::run(opt, rep);
  EXPECT_EQ(replayed.crashes, 1u);
  EXPECT_EQ(replayed.effectiveness, original.effectiveness);
}

TEST(Trace, ReplayReproducesIterativeRuns) {
  // The composed IterativeKK automaton is also deterministic given the
  // schedule: record under a random adversary, replay, compare.
  exp::run_spec opt;
  opt.algo = exp::algo_family::iterative;
  opt.n = 3000;
  opt.m = 3;
  opt.eps_inv = 2;
  opt.crash_budget = 1;

  sim::trace recorded;
  sim::random_adversary inner(31, 1, 500);
  sim::recording_adversary rec(inner, recorded);
  const auto original = exp::run(opt, rec);
  ASSERT_TRUE(original.quiescent);

  sim::scripted_adversary rep(recorded.events());
  const auto replayed = exp::run(opt, rep);
  EXPECT_TRUE(rep.faithful());
  EXPECT_EQ(replayed.effectiveness, original.effectiveness);
  EXPECT_EQ(replayed.total_steps, original.total_steps);
  EXPECT_EQ(replayed.crashes, original.crashes);
  EXPECT_EQ(replayed.total_work.total(), original.total_work.total());
  EXPECT_EQ(replayed.total_collisions, original.total_collisions);
}

TEST(Trace, PrefixReplayRunsPartialExecution) {
  exp::run_spec opt;
  opt.n = 200;
  opt.m = 2;

  sim::trace recorded;
  sim::round_robin_adversary inner;
  sim::recording_adversary rec(inner, recorded);
  const auto original = exp::run(opt, rec);

  // Replay only half the schedule, then bounded fallback: the run is a
  // legal execution and performs no more than the original.
  sim::scripted_adversary rep(recorded.prefix(recorded.size() / 2).events());
  exp::run_spec bounded = opt;
  const auto replayed = exp::run(bounded, rep);
  EXPECT_TRUE(replayed.at_most_once);
  EXPECT_LE(replayed.effectiveness, original.effectiveness + opt.n);
  EXPECT_TRUE(replayed.quiescent);
}

}  // namespace
}  // namespace amo
