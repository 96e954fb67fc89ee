// Configuration fuzzing: several hundred randomly drawn (n, m, beta, rule,
// adversary, crash-budget) combinations, including degenerate corners the
// fixed grids skip (n == m, beta far above n, single process, beta < m).
// Invariants checked on every draw:
//   * at-most-once, always (any beta, any rule — Lemma 4.1);
//   * for beta >= m: quiescence and the Lemma 4.2 effectiveness floor;
//   * accounting identities (writes == announces + records, perform events
//     == distinct jobs).
// Each seed's draws are built as exp::run_spec cells and executed as one
// exp::sweep batch on the work-stealing pool — fuzzing the engine and the
// pool together.
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

exp::run_spec draw(xoshiro256& rng) {
  exp::run_spec d;
  d.algo = exp::algo_family::kk;
  d.m = static_cast<usize>(rng.between(1, 12));
  d.n = static_cast<usize>(rng.between(d.m, 2000));
  switch (rng.below(4)) {
    case 0: d.beta = 0; break;                                    // = m
    case 1: d.beta = static_cast<usize>(rng.between(1, d.m)); break;
    case 2: d.beta = 3 * d.m * d.m; break;
    default: d.beta = static_cast<usize>(rng.between(1, 2 * d.n + 2));
  }
  d.rule = rng.chance(1, 4) ? selection_rule::two_ends
                            : selection_rule::paper_rank;
  d.crash_budget = static_cast<usize>(rng.below(d.m));
  d.adversary.name =
      sim::standard_adversaries()[rng.below(sim::standard_adversaries().size())];
  d.adversary.seed = rng();
  // Bounded run: beta < m (or two_ends with m > 2) may legitimately not
  // terminate; safety must hold on the prefix regardless.
  d.max_steps = 64 * (d.n + 8) * (d.m + 2);
  return d;
}

std::string context(const exp::run_report& r, const exp::run_spec& d) {
  return "n=" + std::to_string(d.n) + " m=" + std::to_string(d.m) +
         " beta=" + std::to_string(d.beta) +
         " rule=" + (d.rule == selection_rule::two_ends ? "two_ends" : "rank") +
         " adv=" + r.adversary + " f=" + std::to_string(d.crash_budget) +
         " seed=" + std::to_string(d.adversary.seed);
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, InvariantsHoldOnRandomConfigurations) {
  xoshiro256 rng(GetParam());
  std::vector<exp::run_spec> cells;
  cells.reserve(60);
  for (int iter = 0; iter < 60; ++iter) cells.push_back(draw(rng));
  const exp::sweep_result result = exp::sweep(cells);

  for (usize i = 0; i < cells.size(); ++i) {
    const exp::run_spec& d = cells[i];
    const exp::run_report& r = result.reports[i];
    const std::string ctx = context(r, d);

    // Safety: unconditional.
    ASSERT_TRUE(r.at_most_once) << ctx << " duplicate=" << r.duplicate;
    EXPECT_EQ(r.perform_events, r.effectiveness) << ctx;

    // Accounting identities.
    usize announces = 0;
    usize records = 0;
    for (const auto& s : r.per_process) {
      announces += s.announces;
      records += s.records;
      EXPECT_LE(s.performs, s.announces) << ctx;
    }
    EXPECT_EQ(r.total_work.shared_writes, announces + records) << ctx;
    // A crash can land between a do and its record, so records trails the
    // perform count by at most the crash count.
    EXPECT_LE(records, r.perform_events) << ctx;
    EXPECT_LE(r.perform_events, records + r.crashes) << ctx;

    // Liveness + effectiveness floor in the guaranteed regime.
    const usize beta = d.beta == 0 ? d.m : d.beta;
    if (beta >= d.m && d.rule == selection_rule::paper_rank) {
      ASSERT_TRUE(r.quiescent) << ctx << " (possible livelock)";
      EXPECT_GE(r.effectiveness, bounds::kk_effectiveness(d.n, d.m, beta))
          << ctx;
    }
    if (r.quiescent) {
      EXPECT_EQ(r.terminated + r.crashes, d.m) << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(0xA11CE, 0xB0B, 0xCAFE, 0xD00D,
                                           0xE66, 0xF00));

class IterativeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IterativeFuzz, InvariantsHoldOnRandomConfigurations) {
  xoshiro256 rng(GetParam());
  std::vector<exp::run_spec> cells;
  cells.reserve(12);
  for (int iter = 0; iter < 12; ++iter) {
    exp::run_spec opt;
    opt.m = static_cast<usize>(rng.between(1, 6));
    opt.n = static_cast<usize>(rng.between(std::max<usize>(opt.m, 10), 6000));
    opt.eps_inv = static_cast<unsigned>(rng.between(1, 4));
    opt.algo = rng.chance(1, 2) ? exp::algo_family::wa_iterative
                                : exp::algo_family::iterative;
    opt.crash_budget = static_cast<usize>(rng.below(opt.m));
    opt.adversary.name = sim::standard_adversaries()[rng.below(6)];
    opt.adversary.seed = rng();
    cells.push_back(std::move(opt));
  }
  const exp::sweep_result result = exp::sweep(cells);

  for (usize i = 0; i < cells.size(); ++i) {
    const exp::run_spec& opt = cells[i];
    const exp::run_report& r = result.reports[i];
    const bool write_all = opt.algo == exp::algo_family::wa_iterative;
    const std::string ctx = "n=" + std::to_string(opt.n) +
                            " m=" + std::to_string(opt.m) + " eps_inv=" +
                            std::to_string(opt.eps_inv) +
                            (write_all ? " wa" : " amo") +
                            " f=" + std::to_string(opt.crash_budget);

    ASSERT_TRUE(r.quiescent) << ctx;
    if (write_all) {
      if (r.crashes < opt.m) {
        EXPECT_TRUE(r.wa_complete)
            << ctx << " wrote " << r.wa_written << "/" << opt.n;
      }
    } else {
      ASSERT_TRUE(r.at_most_once) << ctx << " duplicate=" << r.duplicate;
      EXPECT_EQ(r.perform_events, r.effectiveness) << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IterativeFuzz,
                         ::testing::Values(0x1111, 0x2222, 0x3333, 0x4444));

}  // namespace
}  // namespace amo
