// The FREE set's hot operations. The paper keeps FREE in "a red-black tree
// or some variant of B-tree"; libamo keeps it in bitset_rank_set and
// charges the tree's O(log n) cost through the op_counter instead. These
// micro-benchmarks time select, rank_le, erase and rank_excluding (the
// compNext/gatherDone inner loops), plus one end-to-end KK_beta run.
//
// Every benchmark attaches an op_counter, as kk_process always does: the
// paper's work accounting is part of the hot path, so its cost belongs in
// the measurement. The `charged_ops` counters are that cost model and must
// not drift across perf-only changes.
//
// Output: the usual console table plus machine-readable JSON. Unless the
// caller passes --benchmark_out themselves, results land in
// BENCH_rank_sets.json in the working directory. The JSON context carries
// `amo_build_type`, libamo's CMake build type (Google Benchmark's own
// `library_build_type` describes the benchmark library, not libamo).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "sets/bitset_rank_set.hpp"
#include "sets/rank_select.hpp"
#include "sets/word_ops.hpp"
#include "util/prng.hpp"

namespace {

using namespace amo;

/// A TRY overlay of `count` jobs. Clustered mirrors the real access pattern
/// (interval-splitting announcements land near each other); spread is the
/// adversarial one.
try_set make_try(job_id universe, usize count, bool clustered, xoshiro256& rng) {
  try_set t;
  t.bind_universe(universe);
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

void BM_EndToEndKk(benchmark::State& state) {
  exp::run_spec spec;
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

/// Same as BM_Select over bitset_rank_set, but with the portable (SWAR)
/// in-word select forced, to quantify what PDEP specifically buys.
void BM_SelectPortable(benchmark::State& state) {
  bits::force_portable_select(true);
  BM_Select<bitset_rank_set>(state);
  bits::force_portable_select(false);
}

}  // namespace

BENCHMARK_TEMPLATE(BM_Select, bitset_rank_set)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20)
    ->Arg(1 << 22);
BENCHMARK(BM_SelectPortable)->Arg(1 << 20);

BENCHMARK_TEMPLATE(BM_RankLe, bitset_rank_set)->Arg(1 << 17)->Arg(1 << 20);

BENCHMARK_TEMPLATE(BM_RankExcluding, bitset_rank_set)
    ->Args({1 << 17, 0})
    ->Args({1 << 17, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

BENCHMARK_TEMPLATE(BM_EraseSelect, bitset_rank_set)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

BENCHMARK(BM_EndToEndKk)->Arg(1 << 14)->Unit(benchmark::kMillisecond);

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
  benchmark::AddCustomContext("amo_build_type", AMO_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
