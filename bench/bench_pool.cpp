// Pool amortization — the service-mode claim: a long-lived
// svc::worker_pool amortizes thread startup across many small sweeps,
// where the PR 2 engine paid a full spawn+join per exp::sweep call.
//
// The bench runs N small sweeps three ways — per-sweep spawn (the
// sweep_options path, a fresh transient pool each time), one persistent
// pool reused for all N, and the serial pool=1 reference — verifies all
// three produce bit-identical reports (the determinism contract is
// pool-lifetime-independent), and records wall clocks per sweep size. The
// smaller the sweep, the larger the spawn share: that slope is the number
// `amo_lab serve`/`batch` exist to flatten.
//
// The serve_burst row is the job-level half: the 32-job burst of the
// end-to-end serve_stream workload (bench/e2e) through svc::serve at pool 3,
// whose window keeps up to three jobs' batches on the workers at once,
// against the same burst at pool 1 (one job at a time). It records jobs/s
// both ways, the workers' busy share (traced unit time over wall x pool)
// and whether the stream and every .amoc file are bit-identical.
//
// BENCH_pool.json uses the shared flat schema (docs/json_schema.md):
// "scenario" is the identity axis, timing fields are diff-ignored, and
// bit_identical / duplicates gate in the CI `amo_lab diff` step.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "exp/sweep.hpp"
#include "obs/stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_read.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"
#include "util/fileio.hpp"
#include "util/prng.hpp"

namespace {

using namespace amo;

constexpr usize kPool = 4;  ///< fixed: comparable numbers on any host
constexpr int kReps = 3;    ///< min-of-reps vs 1-core CI noise

std::vector<exp::run_spec> small_sweep(usize cells, std::uint64_t salt) {
  std::vector<exp::run_spec> out;
  out.reserve(cells);
  for (usize c = 0; c < cells; ++c) {
    exp::run_spec s;
    s.label = "pool/cell";
    s.algo = exp::algo_family::kk;
    s.n = 64;
    s.m = 3;
    s.beta = 3;
    s.adversary = {"random", salt * 131 + c + 1};
    out.push_back(std::move(s));
  }
  return out;
}

struct mode_result {
  double seconds = 0.0;
  std::vector<exp::run_report> reports;  ///< concatenated, sweep order
};

template <typename RunSweep>
mode_result run_mode(const std::vector<std::vector<exp::run_spec>>& sweeps,
                     RunSweep&& run_sweep) {
  mode_result best;
  for (int rep = 0; rep < kReps; ++rep) {
    mode_result cur;
    stopwatch clock;
    for (const std::vector<exp::run_spec>& cells : sweeps) {
      exp::sweep_result r = run_sweep(cells);
      cur.reports.insert(cur.reports.end(),
                         std::make_move_iterator(r.reports.begin()),
                         std::make_move_iterator(r.reports.end()));
    }
    cur.seconds = clock.seconds();
    if (rep == 0 || cur.seconds < best.seconds) {
      best.seconds = cur.seconds;
      best.reports = std::move(cur.reports);
    }
  }
  return best;
}

bool all_equivalent(const std::vector<exp::run_report>& a,
                    const std::vector<exp::run_report>& b) {
  if (a.size() != b.size()) return false;
  for (usize i = 0; i < a.size(); ++i) {
    if (!exp::equivalent(a[i], b[i])) return false;
  }
  return true;
}

/// The serve_stream job mix: the scalar families at n=16384 (two seed
/// cells, one unit each) and two batchable kk jobs at n=4096 x 8 replicas.
struct burst_job {
  const char* scenario;
  usize n;
  usize replicas;
};
constexpr burst_job kBurstMix[] = {
    {"iterative/random+crash", 16384, 1}, {"iterative/round_robin", 16384, 1},
    {"wa/random+crash", 16384, 1},        {"baseline/tas", 16384, 1},
    {"baseline/wa_progress_tree", 16384, 1}, {"kk/announce_crash", 16384, 1},
    {"kk/random", 4096, 8},               {"kk/block4", 4096, 8},
};
constexpr usize kBurstPool = 3;  ///< the e2e serve workload's pool
constexpr usize kBurstJobs = 32;

/// Four seeded shuffles of the mix; every fourth job writes `dir`/jobN.amoc
/// (listed in `outs`), the rest stream JSON.
std::string burst_lines(const std::string& dir, std::vector<std::string>& outs) {
  xoshiro256 rng(29);
  std::string lines;
  std::vector<usize> order;
  for (usize i = 0; i < kBurstJobs; ++i) {
    if (order.empty()) {
      for (usize k = 0; k < std::size(kBurstMix); ++k) order.push_back(k);
      shuffle(order, rng);
    }
    const burst_job& b = kBurstMix[order.back()];
    order.pop_back();
    lines += std::string(b.scenario) + " n=" + std::to_string(b.n) +
             " m=8 seed=" + std::to_string(1 + rng.below(1u << 30)) +
             " replicas=" + std::to_string(b.replicas) + " no-timing";
    if (i % 4 == 3) {
      outs.push_back(dir + "/job" + std::to_string(i) + ".amoc");
      lines += " out=" + outs.back();
    }
    lines += "\n";
  }
  return lines;
}

struct burst_result {
  double seconds = 0.0;
  bool ok = false;             ///< every job ran, safe, and wrote its output
  std::string bytes;           ///< the stream, then every .amoc file
  double busy_share = 0.0;     ///< traced runs only
};

/// One svc::serve session of the burst on a fresh pool of `pool_size`.
burst_result serve_burst(usize pool_size, const std::string& lines,
                         const std::vector<std::string>& outs, bool traced) {
  burst_result r;
  std::FILE* stream = std::tmpfile();
  std::FILE* log = std::tmpfile();
  if (stream == nullptr || log == nullptr) return r;
  svc::worker_pool pool(pool_size);
  svc::server_options opt;
  opt.quiet = true;
  opt.stream = stream;
  opt.log = log;
  std::istringstream in(lines);
  std::string trace;
  svc::serve_summary sum;
  {
    std::optional<obs::session> session;
    if (traced) session.emplace();
    stopwatch clock;
    sum = svc::serve(in, pool, opt);
    r.seconds = clock.seconds();
    if (traced) trace = obs::export_json(session->sink());
  }
  r.ok = sum.jobs == kBurstJobs && sum.exit_code() == 0;
  std::rewind(stream);
  char buf[1 << 14];
  for (usize got = 0; (got = std::fread(buf, 1, sizeof buf, stream)) > 0;) {
    r.bytes.append(buf, got);
  }
  std::fclose(stream);
  std::fclose(log);
  for (const std::string& path : outs) {
    std::string file;
    std::string error;
    r.ok = r.ok && read_file(path.c_str(), file, error);
    r.bytes += file;
    std::remove(path.c_str());
  }
  if (traced) {
    const obs::trace_parse_result parsed = obs::parse_trace(trace);
    double unit_us = 0.0;
    for (const obs::stage_stats& st :
         obs::summarize_trace(parsed.events, parsed.dropped).stages) {
      if (st.cat == "sweep" && (st.name == "unit" || st.name == "replica_block")) {
        unit_us += st.total_us;
      }
    }
    r.busy_share = unit_us / (r.seconds * 1e6 * static_cast<double>(pool_size));
  }
  return r;
}

}  // namespace

int main() {
  stopwatch total;
  benchx::print_title(
      "Pool amortization  (per-sweep spawn vs persistent svc::worker_pool)",
      "claim: one resident pool amortizes thread startup across many small\n"
      "sweeps; reports stay bit-identical whatever the pool lifetime");

  const unsigned hc = std::thread::hardware_concurrency();

  struct shape {
    const char* name;
    usize sweeps;
    usize cells;
  };
  const shape shapes[] = {
      {"pool/tiny_1cell", 512, 1},
      {"pool/small_4cells", 256, 4},
      {"pool/medium_16cells", 64, 16},
  };

  benchx::json_report json;
  text_table t({"sweep shape", "sweeps", "cells", "spawn/sweep", "persist/sweep",
                "serial/sweep", "spawn-vs-persist", "identical?"});
  bool all_identical = true;
  usize duplicates = 0;

  for (const shape& sh : shapes) {
    std::vector<std::vector<exp::run_spec>> sweeps;
    sweeps.reserve(sh.sweeps);
    for (usize i = 0; i < sh.sweeps; ++i) {
      sweeps.push_back(small_sweep(sh.cells, i + 1));
    }

    // Per-sweep spawn: the options path constructs a transient pool inside
    // every call — kPool thread spawns + joins per sweep.
    const mode_result spawn = run_mode(sweeps, [](const auto& cells) {
      exp::sweep_options opt;
      opt.pool_size = kPool;
      return exp::sweep(cells, opt);
    });

    // Persistent: one pool for the whole column; spawn cost paid once.
    svc::worker_pool pool(kPool);
    const mode_result persist = run_mode(
        sweeps, [&pool](const auto& cells) { return exp::sweep(cells, pool); });

    // Serial reference: no threads at all, the determinism baseline.
    const mode_result serial = run_mode(sweeps, [](const auto& cells) {
      exp::sweep_options opt;
      opt.pool_size = 1;
      return exp::sweep(cells, opt);
    });

    const bool identical = all_equivalent(spawn.reports, persist.reports) &&
                           all_equivalent(spawn.reports, serial.reports);
    all_identical = all_identical && identical;
    usize shape_duplicates = 0;
    for (const exp::run_report& r : persist.reports) {
      shape_duplicates += r.perform_events - r.effectiveness;
    }
    duplicates += shape_duplicates;

    const double spawn_us = 1e6 * spawn.seconds / sh.sweeps;
    const double persist_us = 1e6 * persist.seconds / sh.sweeps;
    const double serial_us = 1e6 * serial.seconds / sh.sweeps;
    t.add_row({sh.name, fmt_count(sh.sweeps), fmt_count(sh.cells),
               fmt(spawn_us, 1) + "us", fmt(persist_us, 1) + "us",
               fmt(serial_us, 1) + "us",
               benchx::ratio(spawn.seconds, persist.seconds) + "x",
               benchx::yesno(identical)});

    json.add({{"experiment", benchx::json_report::str("E_pool_amortization")},
              {"scenario", benchx::json_report::str(sh.name)},
              {"sweeps", benchx::json_report::num(std::uint64_t{sh.sweeps})},
              {"cells", benchx::json_report::num(std::uint64_t{sh.cells})},
              {"pool", benchx::json_report::num(std::uint64_t{kPool})},
              {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
              {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
              {"spawn_wall_seconds", benchx::json_report::num(spawn.seconds)},
              {"persistent_wall_seconds", benchx::json_report::num(persist.seconds)},
              {"serial_wall_seconds", benchx::json_report::num(serial.seconds)},
              {"speedup", benchx::json_report::num(
                              persist.seconds > 0
                                  ? spawn.seconds / persist.seconds
                                  : 0.0)},
              {"duplicates", benchx::json_report::num(std::uint64_t{shape_duplicates})},
              {"bit_identical", benchx::json_report::boolean(identical)}});
  }

  benchx::print_table(t);
  std::printf("\npool=%zu fixed; spawn-vs-persist > 1x means the persistent "
              "pool wins.\n", kPool);

  // Job-level overlap: serve's window against one job at a time.
  const std::string dir = std::filesystem::temp_directory_path().string();
  std::vector<std::string> outs;
  const std::string lines = burst_lines(dir, outs);
  burst_result windowed;
  burst_result one_at_a_time;
  for (int rep = 0; rep < kReps; ++rep) {
    const burst_result w = serve_burst(kBurstPool, lines, outs, false);
    const burst_result o = serve_burst(1, lines, outs, false);
    if (rep == 0 || w.seconds < windowed.seconds) windowed = w;
    if (rep == 0 || o.seconds < one_at_a_time.seconds) one_at_a_time = o;
  }
  const burst_result traced_burst = serve_burst(kBurstPool, lines, outs, true);
  const bool burst_identical = windowed.ok && one_at_a_time.ok &&
                               traced_burst.ok &&
                               windowed.bytes == one_at_a_time.bytes &&
                               traced_burst.bytes == one_at_a_time.bytes;
  const auto jobs_per_s = [](const burst_result& b) {
    return b.seconds > 0 ? static_cast<double>(kBurstJobs) / b.seconds : 0.0;
  };
  std::printf("\nserve burst (%zu jobs of the serve_stream mix, fastest of "
              "%d): pool %zu %.1f jobs/s, pool 1 %.1f jobs/s (%sx); workers "
              "busy %.2f of the time (traced); stream and .amoc files "
              "bit-identical: %s\n",
              kBurstJobs, kReps, kBurstPool, jobs_per_s(windowed),
              jobs_per_s(one_at_a_time),
              benchx::ratio(one_at_a_time.seconds, windowed.seconds).c_str(),
              traced_burst.busy_share, benchx::yesno(burst_identical).c_str());
  all_identical = all_identical && burst_identical;
  json.add({{"experiment", benchx::json_report::str("E_serve_window")},
            {"scenario", benchx::json_report::str("pool/serve_burst")},
            {"jobs", benchx::json_report::num(std::uint64_t{kBurstJobs})},
            {"pool", benchx::json_report::num(std::uint64_t{kBurstPool})},
            {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
            {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
            {"serve_wall_seconds", benchx::json_report::num(windowed.seconds)},
            {"pool1_wall_seconds",
             benchx::json_report::num(one_at_a_time.seconds)},
            {"jobs_per_second", benchx::json_report::num(jobs_per_s(windowed))},
            {"pool1_jobs_per_second",
             benchx::json_report::num(jobs_per_s(one_at_a_time))},
            {"speedup", benchx::json_report::num(
                            windowed.seconds > 0
                                ? one_at_a_time.seconds / windowed.seconds
                                : 0.0)},
            {"busy_share", benchx::json_report::num(traced_burst.busy_share)},
            {"bit_identical", benchx::json_report::boolean(burst_identical)}});

  // Telemetry-off overhead — the obs house invariant: with no session
  // installed every probe is one branch on a null atomic, so a span +
  // two args + a counter must cost nanoseconds, not microseconds. The
  // 25 ns/probe gate is ~50x headroom over the measured cost on a modern
  // core while still catching an accidental always-on allocation or lock.
  constexpr usize kProbes = usize{1} << 21;
  double off_ns = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    stopwatch clock;
    for (usize i = 0; i < kProbes; ++i) {
      obs::span sp("bench", "noop");
      sp.arg("i", static_cast<std::uint64_t>(i));
      obs::counter("bench", "noop", 1.0);
    }
    const double ns = 1e9 * clock.seconds() / static_cast<double>(kProbes);
    if (rep == 0 || ns < off_ns) off_ns = ns;
  }
  const bool noop_ok = off_ns < 25.0;

  // And the out-of-band half of the invariant: the same sweep with a live
  // telemetry session produces bit-identical reports.
  const std::vector<exp::run_spec> probe_cells = small_sweep(8, 7);
  exp::sweep_options plain_opt;
  plain_opt.pool_size = kPool;
  const exp::sweep_result plain = exp::sweep(probe_cells, plain_opt);
  exp::sweep_result traced;
  {
    obs::session session;
    traced = exp::sweep(probe_cells, plain_opt);
  }
  const bool traced_identical = all_equivalent(plain.reports, traced.reports);

  std::printf("\ntelemetry off: %.2f ns/probe (span + 2 args + counter; "
              "gate < 25 ns) %s\n"
              "telemetry on vs off, same sweep: %s\n",
              off_ns, benchx::yesno(noop_ok).c_str(),
              traced_identical ? "bit-identical" : "MISMATCH");

  json.add({{"experiment", benchx::json_report::str("E_telemetry_overhead")},
            {"scenario", benchx::json_report::str("pool/telemetry_off")},
            {"pool", benchx::json_report::num(std::uint64_t{kPool})},
            {"telemetry_off_ns_per_probe", benchx::json_report::num(off_ns)},
            {"telemetry_off_noop", benchx::json_report::boolean(noop_ok)},
            {"bit_identical", benchx::json_report::boolean(traced_identical)}});
  if (hc <= 1) {
    std::printf("NOTE: single hardware thread — both pooled modes oversubscribe "
                "one core;\nthe spawn-vs-persist ratio still isolates thread "
                "startup cost.\n");
  }

  if (json.write("BENCH_pool.json")) {
    std::printf("[%zu records -> BENCH_pool.json]\n", json.size());
  }
  std::printf("\n[bench_pool done in %.1fs; duplicates %zu, bit-identical %s]\n",
              total.seconds(), duplicates, benchx::yesno(all_identical).c_str());
  return (duplicates == 0 && all_identical && noop_ok && traced_identical)
             ? 0
             : 1;
}
