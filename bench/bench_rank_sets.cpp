// Experiment E10 (ablation) — the FREE-set representation: the paper
// prescribes "a red-black tree or some variant of B-tree"; libamo offers
// three O(log n) structures. Micro-benchmarks of the hot operations
// (select, rank_le, erase, rank_excluding — the compNext/gatherDone inner
// loops) plus an end-to-end KK_beta run per structure.
//
// Every benchmark attaches an op_counter, as kk_process always does: the
// paper's work accounting is part of the hot path, so its cost belongs in
// the measurement.
//
// Output: the usual console table plus machine-readable JSON. Unless the
// caller passes --benchmark_out themselves, results land in
// BENCH_rank_sets.json next to the binary.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/engine.hpp"
#include "sets/bitset_rank_set.hpp"
#include "sets/fenwick_rank_set.hpp"
#include "sets/ostree.hpp"
#include "sets/rank_select.hpp"
#include "util/prng.hpp"

#if __has_include("sets/word_ops.hpp")
#include "sets/word_ops.hpp"
#define AMO_BENCH_HAS_WORD_OPS 1
#endif

namespace {

using namespace amo;

/// Binds the TRY shadow bitmap when the try_set supports it (newer API);
/// no-op against the plain sorted-vector try_set. Templated so the member
/// probe stays dependent and compiles against either API.
template <class T = try_set>
void maybe_bind_shadow(T& t, job_id universe) {
  if constexpr (requires(T& s) { s.bind_universe(universe); }) {
    t.bind_universe(universe);
  }
}

/// A TRY overlay of `count` jobs. Clustered mirrors the real access pattern
/// (interval-splitting announcements land near each other); spread is the
/// adversarial one.
try_set make_try(job_id universe, usize count, bool clustered, xoshiro256& rng) {
  try_set t;
  maybe_bind_shadow(t, universe);
  if (clustered) {
    const job_id base = static_cast<job_id>(rng.between(1, universe - count));
    for (usize i = 0; i < count; ++i) {
      t.insert(base + static_cast<job_id>(i), static_cast<process_id>(i % 8 + 1));
    }
  } else {
    while (t.size() < count) {
      t.insert(static_cast<job_id>(rng.between(1, universe)),
               static_cast<process_id>(rng.between(1, 8)));
    }
  }
  return t;
}

/// Pregenerated query stream so the timed loops measure the operation, not
/// the RNG.
std::vector<usize> random_ranks(usize bound, usize count, std::uint64_t seed) {
  xoshiro256 rng(seed);
  std::vector<usize> out(count);
  for (auto& v : out) v = rng.below(bound) + 1;
  return out;
}

template <class S>
void BM_Select(benchmark::State& state) {
  const job_id universe = static_cast<job_id>(state.range(0));
  op_counter oc;
  S s = S::full(universe);
  s.set_counter(&oc);
  const std::vector<usize> ks = random_ranks(s.size(), 4096, 42);
  usize i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.select(ks[i]));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["charged_ops"] =
      benchmark::Counter(static_cast<double>(oc.local_ops),
                         benchmark::Counter::kAvgIterations);
}

template <class S>
void BM_RankLe(benchmark::State& state) {
  const job_id universe = static_cast<job_id>(state.range(0));
  op_counter oc;
  S s = S::full(universe);
  s.set_counter(&oc);
  const std::vector<usize> xs = random_ranks(universe, 4096, 43);
  usize i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.rank_le(static_cast<job_id>(xs[i])));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["charged_ops"] =
      benchmark::Counter(static_cast<double>(oc.local_ops),
                         benchmark::Counter::kAvgIterations);
}

/// The compNext kernel: size_excluding + rank_excluding against a TRY
/// overlay of m-1 = 15 entries. range(1) selects the overlay shape.
template <class S>
void BM_RankExcluding(benchmark::State& state) {
  const job_id universe = static_cast<job_id>(state.range(0));
  const bool clustered = state.range(1) == 0;
  op_counter oc;
  S s = S::full(universe);
  s.set_counter(&oc);
  xoshiro256 rng(44);
  try_set t = make_try(universe, 15, clustered, rng);
  t.set_counter(&oc);
  const std::vector<usize> is =
      random_ranks(size_excluding(s, t, nullptr), 4096, 45);
  usize i = 0;
  for (auto _ : state) {
    const usize avail = size_excluding(s, t, &oc);
    benchmark::DoNotOptimize(avail);
    benchmark::DoNotOptimize(rank_excluding(s, t, is[i], &oc));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["charged_ops"] =
      benchmark::Counter(static_cast<double>(oc.local_ops),
                         benchmark::Counter::kAvgIterations);
}

template <class S>
void BM_EraseSelect(benchmark::State& state) {
  const job_id universe = static_cast<job_id>(state.range(0));
  op_counter oc;
  xoshiro256 rng(42);
  for (auto _ : state) {
    state.PauseTiming();
    S s = S::full(universe);
    s.set_counter(&oc);
    state.ResumeTiming();
    // Erase half the universe interleaved with selects — the KK access mix.
    for (usize i = 0; i < universe / 2; ++i) {
      const usize sz = s.size();
      const job_id victim = s.select(rng.below(sz) + 1);
      s.erase(victim);
      benchmark::DoNotOptimize(s.rank_le(victim));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(universe / 2));
}

template <class S>
constexpr exp::free_set_kind free_set_of() {
  if constexpr (std::is_same_v<S, ostree>) return exp::free_set_kind::ostree;
  if constexpr (std::is_same_v<S, fenwick_rank_set>) {
    return exp::free_set_kind::fenwick;
  }
  return exp::free_set_kind::bitset;
}

template <class S>
void BM_EndToEndKk(benchmark::State& state) {
  exp::run_spec spec;
  spec.free_set = free_set_of<S>();
  spec.n = static_cast<usize>(state.range(0));
  spec.m = 8;
  const usize n = spec.n;
  for (auto _ : state) {
    const exp::run_report r = exp::run(spec);
    if (!r.at_most_once) state.SkipWithError("duplicate");
    benchmark::DoNotOptimize(r.effectiveness);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

#ifdef AMO_BENCH_HAS_WORD_OPS
/// Same as BM_Select over bitset_rank_set, but with the portable (SWAR)
/// in-word select forced, to quantify what PDEP specifically buys.
void BM_SelectPortable(benchmark::State& state) {
  bits::force_portable_select(true);
  BM_Select<bitset_rank_set>(state);
  bits::force_portable_select(false);
}
#endif

}  // namespace

BENCHMARK_TEMPLATE(BM_Select, ostree)->Arg(1 << 20);
BENCHMARK_TEMPLATE(BM_Select, fenwick_rank_set)->Arg(1 << 20);
BENCHMARK_TEMPLATE(BM_Select, bitset_rank_set)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20)
    ->Arg(1 << 22);
#ifdef AMO_BENCH_HAS_WORD_OPS
BENCHMARK(BM_SelectPortable)->Arg(1 << 20);
#endif

BENCHMARK_TEMPLATE(BM_RankLe, ostree)->Arg(1 << 20);
BENCHMARK_TEMPLATE(BM_RankLe, fenwick_rank_set)->Arg(1 << 20);
BENCHMARK_TEMPLATE(BM_RankLe, bitset_rank_set)->Arg(1 << 17)->Arg(1 << 20);

BENCHMARK_TEMPLATE(BM_RankExcluding, ostree)->Args({1 << 20, 0})->Args({1 << 20, 1});
BENCHMARK_TEMPLATE(BM_RankExcluding, bitset_rank_set)
    ->Args({1 << 17, 0})
    ->Args({1 << 17, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

BENCHMARK_TEMPLATE(BM_EraseSelect, ostree)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK_TEMPLATE(BM_EraseSelect, fenwick_rank_set)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK_TEMPLATE(BM_EraseSelect, bitset_rank_set)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

BENCHMARK_TEMPLATE(BM_EndToEndKk, ostree)->Arg(1 << 14)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_EndToEndKk, fenwick_rank_set)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_EndToEndKk, bitset_rank_set)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // Default to writing JSON alongside the console table; an explicit
  // --benchmark_out on the command line wins.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_rank_sets.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
