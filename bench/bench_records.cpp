// Record-format throughput — the raw-scale claim behind .amoc: the
// columnar binary format plus the streaming merge moves MILLIONS of unit
// records through write -> shard -> merge in bounded memory, at a
// fraction of the JSON byte footprint, without ever giving up the
// byte-identity invariant (docs/record_format.md).
//
// Six scenarios:
//   records/stream_1m        1,000,000 synthetic unit records (62,500
//                            cells x 16 replicas, 4 shards) streamed
//                            through exp::colfmt_writer and re-folded by
//                            exp::merge_stream — never more than one
//                            cell's replicas in memory per side. Reports
//                            write/merge records-per-second and
//                            bytes-per-unit/cell for colfmt vs the JSON
//                            rendering of the same records.
//   records/format_parity    20,000 units written as BOTH .amoc and JSON
//                            shards; both merges must render the exact
//                            same aggregate bytes (the cross-format half
//                            of the byte-identity invariant), with the
//                            wall clocks side by side.
//   records/real_grid        a real (small) sweep: shard -> .amoc ->
//                            streaming merge must reproduce the one-shot
//                            sweep's JSON byte-for-byte, and
//                            decode(encode(x)) must reproduce x.
//   records/shard_path       the record layer of a dispatch at the shape
//                            of bench/e2e's dispatch_amoc (3 shards x
//                            8,192 units, n=64, m=4), stage by stage on
//                            real reports: report -> .amoc (each child's
//                            render_output), the parent's streaming
//                            validation of the bytes (verify_shard_bytes,
//                            keeping each image's block index) and the
//                            merge_stream fold over byte sources read in
//                            place through those indexes, plus the merged
//                            file's encode, fastest of 5;
//                            the merged bytes must equal the unsharded
//                            job's .amoc output.
//   records/parent_memory    the dispatcher's parent memory: svc::dispatch
//                            (validate on the launcher threads, merge,
//                            write) over 3 prepared .amoc shards that a
//                            `cp` launch template delivers, at 1x (3 x
//                            8,192 units) and 4x (3 x 32,768 units), each
//                            in its own forked process, reporting its
//                            VmHWM. The bench exits 1 when the peak grows
//                            by more than 1.5x the growth in shard bytes:
//                            decoded records would add ~15x.
//   records/child_memory     a shard child's render memory: shard 0/3 of
//                            the same shape at 1x and 4x, its job run in a
//                            forked child and render_output(colfmt) in a
//                            fork of that, which reports the render's peak
//                            increment. The bench exits 1 when it grows by
//                            more than 1.5x the growth in output bytes: a
//                            whole-shard row table would add ~7x.
//
// BENCH_records.json uses the shared flat schema (docs/json_schema.md):
// "scenario" is the identity axis, bit_identical gates as a safety flag
// in the CI `amo_lab diff` step, and the throughput numbers ride along
// as informational fields (novel names never gate).

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exp/colfmt.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "svc/dispatcher.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"
#include "util/fileio.hpp"

namespace {

using namespace amo;

constexpr usize kShardPathShards = 3;

/// One real unit record to clone: running an actual sharded job gives the
/// full production schema (spec echo, metrics, safety flags), so the
/// synthetic fold below exercises exactly the fields exp::merge_stream
/// folds in production.
exp::record unit_template() {
  svc::job j;
  j.scenarios = {"kk/random"};
  j.params.n = 64;
  j.params.m = 2;
  j.params.seeds = 1;
  j.params.replicas = 2;
  j.scheduled_only = true;
  j.no_timing = true;
  j.have_shard = true;
  j.shard = {0, 2};
  svc::worker_pool pool(1);
  const svc::job_result r = svc::execute_job(j, pool);
  if (!r.ok()) {
    std::fprintf(stderr, "template job failed: %s\n", r.error.c_str());
    std::exit(2);
  }
  const exp::parse_result parsed = exp::parse_records(r.render_json());
  if (!parsed.ok() || parsed.records.empty()) {
    std::fprintf(stderr, "template parse failed: %s\n", parsed.error.c_str());
    std::exit(2);
  }
  return parsed.records.front();
}

void set_u64(exp::record& r, const char* key, std::uint64_t v) {
  for (exp::record_field& f : r.fields) {
    if (f.key != key) continue;
    f.type = exp::record_field::kind::number;
    f.number = static_cast<double>(v);
    f.raw = std::to_string(v);
    f.text.clear();
    return;
  }
}

struct synth_shape {
  usize cells = 0;
  usize replicas = 0;
  usize shards = 0;
  [[nodiscard]] usize units() const { return cells * replicas; }
};

/// The unit records of one cell, cloned off the template with consistent
/// grid indices and deterministically varied metric values (so column
/// min/max and the fold see real variation, not constants).
std::vector<exp::record> synth_cell(const exp::record& tmpl,
                                    const synth_shape& sh, usize cell) {
  std::vector<exp::record> rows;
  rows.reserve(sh.replicas);
  for (usize r = 0; r < sh.replicas; ++r) {
    exp::record rec = tmpl;
    set_u64(rec, "unit", cell * sh.replicas + r);
    set_u64(rec, "units_total", sh.units());
    set_u64(rec, "cell", cell);
    set_u64(rec, "cells_total", sh.cells);
    set_u64(rec, "replica", r);
    set_u64(rec, "replicas", sh.replicas);
    set_u64(rec, "effectiveness", 40 + (cell * 31 + r * 7) % 17);
    set_u64(rec, "steps", 900 + (cell * 13 + r * 5) % 101);
    set_u64(rec, "collisions", (cell + r) % 7);
    rows.push_back(std::move(rec));
  }
  return rows;
}

/// Exact byte length the JSON rendering of `rows` contributes to a whole
/// document: render_records frames a chunk as "[\n" rows "\n]\n" with
/// ",\n" separators, so the rows' own bytes are size - 5 - 2*(count-1).
std::uint64_t json_row_bytes(const std::vector<exp::record>& rows) {
  if (rows.empty()) return 0;
  return exp::render_records(rows).size() - 5 - 2 * (rows.size() - 1);
}

struct stream_stats {
  double write_seconds = 0.0;  ///< colfmt_writer time only
  std::uint64_t colfmt_bytes = 0;
  std::uint64_t json_bytes = 0;  ///< the same records rendered as JSON
  double merge_seconds = 0.0;    ///< full streaming merge wall
  usize aggregates = 0;
  std::uint64_t merged_bytes = 0;
  bool ok = true;
};

std::string shard_path(usize i) {
  return "bench_records_shard" + std::to_string(i) + ".amoc";
}

/// Writes `sh` as .amoc shard files (strided unit partition, like a real
/// dispatch), streams them back through merge_stream into a colfmt_writer,
/// and validates the aggregate count. Bounded memory throughout: one
/// cell's replicas per side.
stream_stats run_stream(const exp::record& tmpl, const synth_shape& sh,
                        bool measure_json_bytes) {
  stream_stats st;
  // Shard by cell block: shard i owns cells [i*per, ...). Any tiling works
  // for the merge as long as each source is index-ascending.
  const usize per = (sh.cells + sh.shards - 1) / sh.shards;
  for (usize s = 0; s < sh.shards; ++s) {
    exp::colfmt_writer w;
    std::string error;
    if (!w.open(shard_path(s).c_str(), error)) {
      std::fprintf(stderr, "bench_records: %s\n", error.c_str());
      st.ok = false;
      return st;
    }
    const usize lo = s * per;
    const usize hi = std::min(sh.cells, lo + per);
    for (usize cell = lo; cell < hi; ++cell) {
      const std::vector<exp::record> rows = synth_cell(tmpl, sh, cell);
      stopwatch clock;
      if (!w.add_chunk(rows, error)) {
        std::fprintf(stderr, "bench_records: %s\n", error.c_str());
        st.ok = false;
        return st;
      }
      st.write_seconds += clock.seconds();
      if (measure_json_bytes) st.json_bytes += json_row_bytes(rows);
    }
    stopwatch clock;
    if (!w.finish(error)) {
      std::fprintf(stderr, "bench_records: %s\n", error.c_str());
      st.ok = false;
      return st;
    }
    st.write_seconds += clock.seconds();
    st.colfmt_bytes += w.bytes_written();
  }
  if (measure_json_bytes && sh.units() > 0) {
    st.json_bytes += 5 + 2 * (sh.units() - 1);  // document framing
  }

  // The streaming fold, shard files -> merged.amoc, cell by cell.
  std::vector<std::unique_ptr<exp::record_source>> sources;
  for (usize s = 0; s < sh.shards; ++s) {
    sources.push_back(exp::make_file_source(shard_path(s)));
  }
  exp::colfmt_writer merged;
  std::string error;
  if (!merged.open("bench_records_merged.amoc", error)) {
    std::fprintf(stderr, "bench_records: %s\n", error.c_str());
    st.ok = false;
    return st;
  }
  stopwatch clock;
  const exp::merge_result r = exp::merge_stream(
      std::move(sources), [&](exp::record&& agg, std::string& serr) {
        ++st.aggregates;
        return merged.add_chunk({std::move(agg)}, serr);
      });
  if (!r.ok() || !merged.finish(error)) {
    std::fprintf(stderr, "bench_records: merge: %s\n",
                 (!r.ok() ? r.error : error).c_str());
    st.ok = false;
    return st;
  }
  st.merge_seconds = clock.seconds();
  st.merged_bytes = merged.bytes_written();
  st.ok = st.aggregates == sh.cells && r.cells_total == sh.cells &&
          r.units_total == sh.units();
  for (usize s = 0; s < sh.shards; ++s) std::remove(shard_path(s).c_str());
  std::remove("bench_records_merged.amoc");
  return st;
}

/// Cross-format parity: the same shards written as JSON and as .amoc must
/// merge to the exact same aggregate bytes.
bool run_parity(const exp::record& tmpl, const synth_shape& sh,
                double& json_seconds, double& colfmt_seconds) {
  std::vector<std::string> paths;
  for (usize s = 0; s < sh.shards; ++s) {
    std::vector<exp::record> rows;
    const usize per = (sh.cells + sh.shards - 1) / sh.shards;
    for (usize cell = s * per; cell < std::min(sh.cells, (s + 1) * per);
         ++cell) {
      for (exp::record& rec : synth_cell(tmpl, sh, cell)) {
        rows.push_back(std::move(rec));
      }
    }
    for (const exp::record_format fmt :
         {exp::record_format::json, exp::record_format::colfmt}) {
      const std::string path =
          "bench_records_parity" + std::to_string(s) +
          (fmt == exp::record_format::json ? ".json" : ".amoc");
      std::string error;
      if (!exp::write_records_file_as(path.c_str(), rows, fmt, error)) {
        std::fprintf(stderr, "bench_records: %s\n", error.c_str());
        return false;
      }
      paths.push_back(path);
    }
  }

  std::string rendered[2];
  for (int pass = 0; pass < 2; ++pass) {
    const char* ext = pass == 0 ? ".json" : ".amoc";
    std::vector<std::unique_ptr<exp::record_source>> sources;
    for (const std::string& p : paths) {
      if (p.size() >= 5 && p.compare(p.size() - 5, 5, ext) == 0) {
        sources.push_back(exp::make_file_source(p));
      }
    }
    stopwatch clock;
    const exp::merge_result r = exp::merge_stream(std::move(sources));
    (pass == 0 ? json_seconds : colfmt_seconds) = clock.seconds();
    if (!r.ok()) {
      std::fprintf(stderr, "bench_records: parity merge: %s\n",
                   r.error.c_str());
      return false;
    }
    rendered[pass] = exp::render_records(r.records);
  }
  for (const std::string& p : paths) std::remove(p.c_str());
  return !rendered[0].empty() && rendered[0] == rendered[1];
}

/// The real-sweep identity: shard a real job, write .amoc shards, stream-
/// merge them, and require the one-shot sweep's exact JSON — plus
/// decode(encode(x)) == x on that output.
bool run_real_grid(usize& units) {
  svc::worker_pool pool(1);
  auto job_of = [](usize i, usize k) {
    svc::job j;
    j.scenarios = {"kk/random"};
    j.params.n = 96;
    j.params.m = 2;
    j.params.seeds = 2;
    j.params.replicas = 4;
    j.scheduled_only = true;
    j.no_timing = true;
    if (k > 1) {
      j.have_shard = true;
      j.shard = {i, k};
    }
    return j;
  };
  const std::string expected =
      svc::execute_job(job_of(0, 1), pool).render_json();

  std::vector<std::unique_ptr<exp::record_source>> sources;
  for (usize i = 0; i < 3; ++i) {
    const svc::job_result r = svc::execute_job(job_of(i, 3), pool);
    if (!r.ok()) return false;
    units += r.runs().size();
    const exp::parse_result parsed = exp::parse_records(r.render_json());
    if (!parsed.ok()) return false;
    const std::string path = "bench_records_grid" + std::to_string(i) + ".amoc";
    std::string error;
    if (!exp::write_records_file_as(path.c_str(), parsed.records,
                                    exp::record_format::colfmt, error)) {
      return false;
    }
    sources.push_back(exp::make_file_source(path));
  }
  const exp::merge_result merged = exp::merge_stream(std::move(sources));
  for (usize i = 0; i < 3; ++i) {
    std::remove(("bench_records_grid" + std::to_string(i) + ".amoc").c_str());
  }
  if (!merged.ok()) {
    std::fprintf(stderr, "bench_records: real grid: %s\n",
                 merged.error.c_str());
    return false;
  }
  if (exp::render_records(merged.records) != expected) return false;

  std::string bytes;
  std::string error;
  if (!exp::colfmt_encode(merged.records, bytes, error)) return false;
  const exp::parse_result rt = exp::colfmt_decode(bytes);
  return rt.ok() && exp::render_records(rt.records) == expected;
}

/// The dispatch shape of bench/e2e's dispatch_amoc workload: 3 shards of
/// 8,192 units each (6 scenarios at n=64, m=4, 64 seeds x 64 replicas);
/// `scale` multiplies the seeds.
svc::job shard_path_job(usize shard, usize scale = 1) {
  svc::job j;
  j.scenarios = {"kk/random",           "kk/random+crash",
                 "kk/round_robin",      "iterative/random+crash",
                 "wa/random+crash",     "baseline/tas"};
  j.params.n = 64;
  j.params.m = 4;
  j.params.seeds = 64 * scale;
  j.params.replicas = 64;
  j.no_timing = true;
  j.have_shard = true;
  j.shard = {shard, kShardPathShards};
  return j;
}

struct shard_path_stats {
  usize units = 0;
  std::uint64_t amoc_bytes = 0;  ///< the three shard files
  double render_seconds = 0.0;   ///< report -> .amoc, summed over shards
  double verify_seconds = 0.0;   ///< streaming validation, summed
  double fold_seconds = 0.0;     ///< 3-shard fold + merged .amoc encode
  bool ok = false;
};

/// Times the record layer of a dispatch, stage by stage, on the shards'
/// real reports (simulated once): each child's render_output(colfmt); the
/// parent's verify_shard_bytes per shard, keeping its block index; the
/// merge_stream fold over byte sources read through those indexes, as the
/// dispatcher's merge reads them, and the merged file's colfmt_encode. Each stage's time is the
/// fastest of `reps` runs. The merged bytes must equal the unsharded
/// job's own .amoc output.
shard_path_stats run_shard_path(usize reps) {
  shard_path_stats st;
  svc::worker_pool pool(1);
  std::vector<svc::job_result> results;
  for (usize i = 0; i < kShardPathShards; ++i) {
    results.push_back(svc::execute_job(shard_path_job(i), pool));
    if (!results.back().ok()) return st;
    st.units += results.back().runs().size();
  }
  svc::job whole = shard_path_job(0);
  whole.have_shard = false;
  std::string expected;
  std::string error;
  if (!svc::execute_job(whole, pool).render_output(exp::record_format::colfmt,
                                                   expected, error)) {
    return st;
  }

  const auto best = [](double& slot, double s, usize rep) {
    slot = rep == 0 ? s : std::min(slot, s);
  };
  st.ok = true;
  for (usize rep = 0; rep < reps && st.ok; ++rep) {
    std::vector<std::string> files(kShardPathShards);
    double render = 0.0;
    for (usize i = 0; i < kShardPathShards; ++i) {
      stopwatch clock;
      st.ok = st.ok && results[i].render_output(exp::record_format::colfmt,
                                                files[i], error);
      render += clock.seconds();
    }
    double verify = 0.0;
    std::vector<exp::colfmt_blocks> blocks(kShardPathShards);
    for (usize i = 0; i < kShardPathShards && st.ok; ++i) {
      stopwatch clock;
      st.ok = exp::verify_shard_bytes(files[i], {i, kShardPathShards}, error,
                                      nullptr, &blocks[i]);
      verify += clock.seconds();
    }
    if (!st.ok) break;
    st.amoc_bytes = 0;
    for (const std::string& f : files) st.amoc_bytes += f.size();
    stopwatch clock;
    std::vector<std::unique_ptr<exp::record_source>> sources;
    for (usize i = 0; i < kShardPathShards; ++i) {
      sources.push_back(exp::make_bytes_source(files[i], "shard", &blocks[i]));
    }
    const exp::merge_result merged = exp::merge_stream(std::move(sources));
    std::string bytes;
    st.ok = merged.ok() && exp::colfmt_encode(merged.records, bytes, error);
    const double fold = clock.seconds();
    st.ok = st.ok && bytes == expected;
    best(st.render_seconds, render, rep);
    best(st.verify_seconds, verify, rep);
    best(st.fold_seconds, fold, rep);
  }
  return st;
}

constexpr usize kMemoryScales[] = {1, 4};
constexpr double kMemoryGrowthBound = 1.5;

struct parent_memory_stats {
  usize units[2] = {};
  std::uint64_t shard_bytes[2] = {};
  double peak_mb[2] = {};
  double growth_ratio = 0.0;  ///< peak growth / shard-byte growth, 1x -> 4x
  bool ok = false;
};

/// The dispatcher's parent memory at 1x and 4x the dispatch_amoc shape. A
/// forked writer runs the shard jobs and leaves each scale's three .amoc
/// shards where a `cp` launch template finds them ({shard} spells "i/3");
/// then, per scale, a fresh fork of this still-small process runs
/// svc::dispatch over them and reports its VmHWM. The dispatcher code is
/// the real one; only the children are copies.
parent_memory_stats run_parent_memory(const std::string& dir) {
  namespace fs = std::filesystem;
  parent_memory_stats st;
  const auto src = [&](usize scale) {
    return dir + "/src" + std::to_string(scale);
  };
  const std::string written = benchx::in_child([&]() -> std::string {
    svc::worker_pool pool(3);
    std::string counts;
    for (const usize scale : kMemoryScales) {
      usize units = 0;
      for (usize i = 0; i < kShardPathShards; ++i) {
        const svc::job_result r =
            svc::execute_job(shard_path_job(i, scale), pool);
        std::string bytes;
        std::string error;
        const std::string shard_dir = src(scale) + "/shard-" + std::to_string(i);
        fs::create_directories(shard_dir);
        if (!r.ok() ||
            !r.render_output(exp::record_format::colfmt, bytes, error) ||
            !write_file_atomic((shard_dir + "/3.amoc").c_str(), bytes,
                               error)) {
          return {};
        }
        units += r.runs().size();
      }
      counts += std::to_string(units) + " ";
    }
    return counts;
  });
  if (std::sscanf(written.c_str(), "%zu %zu", &st.units[0], &st.units[1]) !=
      2) {
    return st;
  }
  st.ok = true;
  for (usize k = 0; k < 2; ++k) {
    const usize scale = kMemoryScales[k];
    for (usize i = 0; i < kShardPathShards; ++i) {
      std::error_code ec;
      st.shard_bytes[k] += fs::file_size(
          src(scale) + "/shard-" + std::to_string(i) + "/3.amoc", ec);
    }
    const std::string peak = benchx::in_child([&]() -> std::string {
      svc::dispatch_options d;
      d.shards = kShardPathShards;
      d.command = "cp " + src(scale) + "/shard-{shard}.amoc {out}";
      d.dir = dir + "/run" + std::to_string(scale);
      d.out = d.dir + "/merged.amoc";
      d.quiet = true;
      d.format = exp::record_format::colfmt;
      fs::create_directories(d.dir);
      const svc::dispatch_result r = svc::dispatch("", d);
      if (!r.ok()) {
        std::fprintf(stderr, "bench_records: parent memory: %s\n",
                     r.error.c_str());
        return {};
      }
      return std::to_string(benchx::status_mb("VmHWM:"));
    });
    st.ok = st.ok && !peak.empty();
    st.peak_mb[k] = peak.empty() ? 0.0 : std::stod(peak);
  }
  const double byte_growth_mb =
      static_cast<double>(st.shard_bytes[1] - st.shard_bytes[0]) / (1 << 20);
  st.growth_ratio =
      byte_growth_mb > 0 ? (st.peak_mb[1] - st.peak_mb[0]) / byte_growth_mb
                         : 0.0;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return st;
}

struct child_memory_stats {
  usize units[2] = {};
  std::uint64_t output_bytes[2] = {};
  double render_mb[2] = {};   ///< the render's peak increment
  double growth_ratio = 0.0;  ///< render growth / output-byte growth, 1x -> 4x
  bool ok = true;
};

/// A shard child's render memory at 1x and 4x the dispatch_amoc shard
/// shape (shard 0 of 3). Per scale, a forked child runs the shard's job
/// (its pool joined afterwards), then forks again: the grandchild's VmHWM
/// starts at the resident set it inherits, so what it adds by
/// render_output(colfmt) is the render's own peak increment.
child_memory_stats run_child_memory() {
  child_memory_stats st;
  for (usize k = 0; k < 2; ++k) {
    const std::string out = benchx::in_child([&]() -> std::string {
      svc::job_result r;
      {
        svc::worker_pool pool(1);
        r = svc::execute_job(shard_path_job(0, kMemoryScales[k]), pool);
      }
      return !r.ok() ? std::string() : benchx::in_child([&]() -> std::string {
        const double before = benchx::status_mb("VmRSS:");
        std::string bytes;
        std::string error;
        if (!r.render_output(exp::record_format::colfmt, bytes, error)) {
          return {};
        }
        return std::to_string(r.runs().size()) + " " +
               std::to_string(bytes.size()) + " " +
               std::to_string(benchx::status_mb("VmHWM:") - before);
      });
    });
    unsigned long long bytes = 0;
    st.ok = st.ok && std::sscanf(out.c_str(), "%zu %llu %lf", &st.units[k],
                                 &bytes, &st.render_mb[k]) == 3;
    st.output_bytes[k] = bytes;
  }
  const double byte_growth_mb =
      static_cast<double>(st.output_bytes[1] - st.output_bytes[0]) / (1 << 20);
  st.growth_ratio = byte_growth_mb > 0
                        ? (st.render_mb[1] - st.render_mb[0]) / byte_growth_mb
                        : 0.0;
  return st;
}

}  // namespace

int main() {
  stopwatch total;
  benchx::print_title(
      "Record formats  (.amoc columnar write + streaming merge vs JSON)",
      "claim: a million unit records stream through write -> merge in\n"
      "bounded memory, byte-identical to the JSON path at a fraction of\n"
      "the bytes");

  // First, while this process holds no threads and little memory: the
  // forks below measure the dispatcher, not what this bench built.
  const parent_memory_stats pm = run_parent_memory("bench_records_memory");
  const bool memory_ok = pm.ok && pm.growth_ratio <= kMemoryGrowthBound;
  const child_memory_stats cm = run_child_memory();
  const bool child_ok = cm.ok && cm.growth_ratio <= kMemoryGrowthBound;

  const exp::record tmpl = unit_template();
  benchx::json_report json;
  bool all_identical = true;

  // --- records/stream_1m -------------------------------------------------
  const synth_shape big{62500, 16, 4};  // 1,000,000 units
  const stream_stats st = run_stream(tmpl, big, /*measure_json_bytes=*/true);
  all_identical = all_identical && st.ok;
  const double write_rate =
      st.write_seconds > 0 ? big.units() / st.write_seconds : 0.0;
  const double merge_rate =
      st.merge_seconds > 0 ? big.units() / st.merge_seconds : 0.0;

  // --- records/format_parity ---------------------------------------------
  const synth_shape mid{1250, 16, 2};  // 20,000 units
  double json_merge_s = 0.0;
  double colfmt_merge_s = 0.0;
  const bool parity = run_parity(tmpl, mid, json_merge_s, colfmt_merge_s);
  all_identical = all_identical && parity;

  // --- records/real_grid --------------------------------------------------
  usize real_units = 0;
  const bool real_ok = run_real_grid(real_units);
  all_identical = all_identical && real_ok;

  // --- records/shard_path -------------------------------------------------
  const shard_path_stats sp = run_shard_path(5);
  all_identical = all_identical && sp.ok;
  const auto rate = [&](double seconds) {
    return seconds > 0 ? double(sp.units) / seconds : 0.0;
  };

  text_table t({"scenario", "units", "shards", "colfmt B/unit", "json B/unit",
                "write rec/s", "merge rec/s", "identical?"});
  t.add_row({"records/stream_1m", fmt_count(big.units()),
             fmt_count(big.shards),
             fmt(double(st.colfmt_bytes) / big.units(), 1),
             fmt(double(st.json_bytes) / big.units(), 1),
             fmt_count(usize(write_rate)), fmt_count(usize(merge_rate)),
             benchx::yesno(st.ok)});
  t.add_row({"records/format_parity", fmt_count(mid.units()),
             fmt_count(mid.shards), "-", "-", "-",
             benchx::ratio(json_merge_s, colfmt_merge_s) + "x json/colfmt",
             benchx::yesno(parity)});
  t.add_row({"records/real_grid", fmt_count(real_units), "3", "-", "-", "-",
             "-", benchx::yesno(real_ok)});
  t.add_row({"records/shard_path", fmt_count(sp.units),
             fmt_count(kShardPathShards),
             fmt(sp.units > 0 ? double(sp.amoc_bytes) / sp.units : 0.0, 1),
             "-", fmt_count(usize(rate(sp.render_seconds))),
             fmt_count(usize(rate(sp.fold_seconds))), benchx::yesno(sp.ok)});
  benchx::print_table(t);
  std::printf("\nshard path (3 x 8,192 units, fastest of 5): report -> .amoc "
              "%.1f ms, streaming validation %.1f ms, 3-shard fold + "
              "encode %.1f ms\n",
              sp.render_seconds * 1e3, sp.verify_seconds * 1e3,
              sp.fold_seconds * 1e3);
  std::printf("\ncolfmt merged aggregate file: %llu bytes for %zu cells "
              "(%.1f B/cell)\n",
              static_cast<unsigned long long>(st.merged_bytes), st.aggregates,
              st.aggregates > 0 ? double(st.merged_bytes) / st.aggregates
                                : 0.0);

  // The host class rides on every row.
  const unsigned hc = std::thread::hardware_concurrency();
  json.add({{"experiment", benchx::json_report::str("E_record_formats")},
            {"scenario", benchx::json_report::str("records/stream_1m")},
            {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
            {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
            {"units", benchx::json_report::num(std::uint64_t{big.units()})},
            {"cells", benchx::json_report::num(std::uint64_t{big.cells})},
            {"replicas", benchx::json_report::num(std::uint64_t{big.replicas})},
            {"shards", benchx::json_report::num(std::uint64_t{big.shards})},
            {"colfmt_bytes", benchx::json_report::num(st.colfmt_bytes)},
            {"json_bytes", benchx::json_report::num(st.json_bytes)},
            {"colfmt_bytes_per_unit",
             benchx::json_report::num(double(st.colfmt_bytes) / big.units())},
            {"json_bytes_per_unit",
             benchx::json_report::num(double(st.json_bytes) / big.units())},
            {"merged_bytes", benchx::json_report::num(st.merged_bytes)},
            {"merged_bytes_per_cell",
             benchx::json_report::num(double(st.merged_bytes) / big.cells)},
            {"write_wall_seconds", benchx::json_report::num(st.write_seconds)},
            {"merge_wall_seconds", benchx::json_report::num(st.merge_seconds)},
            {"write_units_per_second", benchx::json_report::num(write_rate)},
            {"merge_units_per_second", benchx::json_report::num(merge_rate)},
            {"bit_identical", benchx::json_report::boolean(st.ok)}});
  json.add({{"experiment", benchx::json_report::str("E_record_formats")},
            {"scenario", benchx::json_report::str("records/format_parity")},
            {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
            {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
            {"units", benchx::json_report::num(std::uint64_t{mid.units()})},
            {"cells", benchx::json_report::num(std::uint64_t{mid.cells})},
            {"replicas", benchx::json_report::num(std::uint64_t{mid.replicas})},
            {"shards", benchx::json_report::num(std::uint64_t{mid.shards})},
            {"json_merge_wall_seconds", benchx::json_report::num(json_merge_s)},
            {"colfmt_merge_wall_seconds",
             benchx::json_report::num(colfmt_merge_s)},
            {"bit_identical", benchx::json_report::boolean(parity)}});
  json.add({{"experiment", benchx::json_report::str("E_record_formats")},
            {"scenario", benchx::json_report::str("records/real_grid")},
            {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
            {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
            {"units", benchx::json_report::num(std::uint64_t{real_units})},
            {"shards", benchx::json_report::num(std::uint64_t{3})},
            {"bit_identical", benchx::json_report::boolean(real_ok)}});

  json.add({{"experiment", benchx::json_report::str("E_record_formats")},
            {"scenario", benchx::json_report::str("records/shard_path")},
            {"units", benchx::json_report::num(std::uint64_t{sp.units})},
            {"shards", benchx::json_report::num(std::uint64_t{kShardPathShards})},
            {"n", benchx::json_report::num(std::uint64_t{64})},
            {"m", benchx::json_report::num(std::uint64_t{4})},
            {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
            {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
            {"colfmt_bytes", benchx::json_report::num(sp.amoc_bytes)},
            {"render_wall_seconds", benchx::json_report::num(sp.render_seconds)},
            {"verify_wall_seconds", benchx::json_report::num(sp.verify_seconds)},
            {"fold_wall_seconds", benchx::json_report::num(sp.fold_seconds)},
            {"render_units_per_second",
             benchx::json_report::num(rate(sp.render_seconds))},
            {"verify_units_per_second",
             benchx::json_report::num(rate(sp.verify_seconds))},
            {"fold_units_per_second",
             benchx::json_report::num(rate(sp.fold_seconds))},
            {"bit_identical", benchx::json_report::boolean(sp.ok)}});

  std::printf("\nparent memory (dispatch over 3 .amoc shards, own process): "
              "%zu units / %.1f MB shards -> peak %.1f MB; %zu units / %.1f MB "
              "-> peak %.1f MB; peak grows %.2fx the shard bytes (bound "
              "%.1fx) %s\n",
              pm.units[0], pm.shard_bytes[0] / 1048576.0, pm.peak_mb[0],
              pm.units[1], pm.shard_bytes[1] / 1048576.0, pm.peak_mb[1],
              pm.growth_ratio, kMemoryGrowthBound,
              memory_ok ? "ok" : "EXCEEDED");
  json.add({{"experiment", benchx::json_report::str("E_record_formats")},
            {"scenario", benchx::json_report::str("records/parent_memory")},
            {"shards", benchx::json_report::num(std::uint64_t{kShardPathShards})},
            {"n", benchx::json_report::num(std::uint64_t{64})},
            {"m", benchx::json_report::num(std::uint64_t{4})},
            {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
            {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
            {"units_1x", benchx::json_report::num(std::uint64_t{pm.units[0]})},
            {"units_4x", benchx::json_report::num(std::uint64_t{pm.units[1]})},
            {"shard_bytes_1x", benchx::json_report::num(pm.shard_bytes[0])},
            {"shard_bytes_4x", benchx::json_report::num(pm.shard_bytes[1])},
            {"peak_rss_mb_1x", benchx::json_report::num(pm.peak_mb[0])},
            {"peak_rss_mb_4x", benchx::json_report::num(pm.peak_mb[1])},
            {"peak_growth_per_shard_byte",
             benchx::json_report::num(pm.growth_ratio)},
            {"growth_bound", benchx::json_report::num(kMemoryGrowthBound)},
            {"claim_holds", benchx::json_report::boolean(memory_ok)}});

  std::printf("child memory (shard 0/3 render_output(colfmt), own process): "
              "%zu units / %.1f MB output -> render adds %.1f MB; %zu units / "
              "%.1f MB -> adds %.1f MB; the render grows %.2fx the output "
              "bytes (bound %.1fx) %s\n",
              cm.units[0], cm.output_bytes[0] / 1048576.0, cm.render_mb[0],
              cm.units[1], cm.output_bytes[1] / 1048576.0, cm.render_mb[1],
              cm.growth_ratio, kMemoryGrowthBound,
              child_ok ? "ok" : "EXCEEDED");
  json.add({{"experiment", benchx::json_report::str("E_record_formats")},
            {"scenario", benchx::json_report::str("records/child_memory")},
            {"shards", benchx::json_report::num(std::uint64_t{kShardPathShards})},
            {"n", benchx::json_report::num(std::uint64_t{64})},
            {"m", benchx::json_report::num(std::uint64_t{4})},
            {"hardware_concurrency", benchx::json_report::num(std::uint64_t{hc})},
            {"amo_build_type", benchx::json_report::str(AMO_BUILD_TYPE)},
            {"units_1x", benchx::json_report::num(std::uint64_t{cm.units[0]})},
            {"units_4x", benchx::json_report::num(std::uint64_t{cm.units[1]})},
            {"output_bytes_1x", benchx::json_report::num(cm.output_bytes[0])},
            {"output_bytes_4x", benchx::json_report::num(cm.output_bytes[1])},
            {"render_peak_mb_1x", benchx::json_report::num(cm.render_mb[0])},
            {"render_peak_mb_4x", benchx::json_report::num(cm.render_mb[1])},
            {"render_growth_per_output_byte",
             benchx::json_report::num(cm.growth_ratio)},
            {"growth_bound", benchx::json_report::num(kMemoryGrowthBound)},
            {"claim_holds", benchx::json_report::boolean(child_ok)}});

  if (json.write("BENCH_records.json")) {
    std::printf("[%zu records -> BENCH_records.json]\n", json.size());
  }
  std::printf("\n[bench_records done in %.1fs; bit-identical %s; parent "
              "memory within bound %s; child memory within bound %s]\n",
              total.seconds(), benchx::yesno(all_identical).c_str(),
              benchx::yesno(memory_ok).c_str(),
              benchx::yesno(child_ok).c_str());
  return all_identical && memory_ok && child_ok ? 0 : 1;
}
