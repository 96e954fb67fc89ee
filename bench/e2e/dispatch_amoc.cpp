// dispatch_amoc — the sharded path: svc::dispatch launches k supervised
// amo_lab shard children (--pool=1 each) that write .amoc shards, verifies
// and merges them, then svc::merge_from_manifest re-merges the kept shards
// three times, as `amo_lab merge --manifest` would. Tiny units make the
// record layer (render, encode, parse, verify, fold) and supervision most
// of the wall, in few large documents.
#include <filesystem>

#include "e2e.hpp"
#include "exp/colfmt.hpp"
#include "exp/merge.hpp"
#include "exp/registry.hpp"
#include "exp/shard.hpp"
#include "svc/dispatcher.hpp"
#include "svc/fault.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"

namespace e2e {

using namespace amo;

namespace {

constexpr const char* kScenarios[] = {
    "kk/random", "kk/random+crash", "kk/round_robin",
    "iterative/random+crash", "wa/random+crash", "baseline/tas"};

/// The child argument string `amo_lab dispatch` builds for these params.
std::string child_args(const exp::scenario_params& p) {
  std::string args = "sweep";
  for (const char* name : kScenarios) args += std::string(" ") + name;
  args += " --n=" + std::to_string(p.n) + " --m=" + std::to_string(p.m) +
          " --beta=" + std::to_string(p.beta) +
          " --eps=" + std::to_string(p.eps_inv) +
          " --seed=" + std::to_string(p.seed) +
          " --seeds=" + std::to_string(p.seeds) +
          " --replicas=" + std::to_string(p.replicas) +
          " --pool=1 --no-timing --quiet";
  return args;
}

std::string shard_file(const std::string& dir, usize i) {
  return dir + "/dispatch-shard-" + std::to_string(i) + "of" +
         std::to_string(kWorkers) + ".amoc";
}

struct rep_out {
  double setup_s = 0.0;
  double op_s = 0.0;
  double stolen = 0.0;          ///< host steal share during the dispatch
  std::vector<double> merge_s;  ///< the three manifest merges
  usize units = 0;
  usize attempts = 0;           ///< shard launches (k when nothing failed)
  double shard_bytes = 0.0;     ///< Σ shard file sizes
  std::string bytes;            ///< the merged .amoc output
  std::string shard0;           ///< shard 0's file
};

rep_out one_rep(const exp::scenario_params& params, const std::string& dir,
                bool traced, report& r) {
  rep_out o;
  svc::dispatch_options d;
  d.shards = kWorkers;
  d.self = AMO_LAB_PATH;
  d.dir = dir;
  d.out = dir + "/merged.amoc";
  d.keep_shards = true;  // the manifest merges read them
  d.quiet = true;
  d.format = exp::record_format::colfmt;
  d.trace = traced;
  svc::dispatch_result res;
  std::vector<exp::merge_result> merges;
  make_dirs(dir);
  {
    const cpu_ticks c0 = read_cpu_ticks();
    obs::span root(kCat, "rep");
    const double t0 = now_s();
    {
      obs::span sp(kCat, "exp.registry.expand");
      std::vector<exp::run_spec> cells;
      for (const char* name : kScenarios) {
        const std::vector<exp::run_spec> c = exp::scenario_cells(name, params);
        cells.insert(cells.end(), c.begin(), c.end());
      }
      o.units = exp::unit_count(cells);
    }
    const double t1 = now_s();
    {
      obs::span sp(kCat, "svc.dispatch");
      res = svc::dispatch(child_args(params), d);
    }
    o.setup_s = t1 - t0;
    o.op_s = now_s() - t1;
    o.stolen = stolen_share(c0, read_cpu_ticks());
    for (int k = 0; k < 3; ++k) {
      obs::span sp(kCat, "svc.merge_from_manifest");
      const double m0 = now_s();
      merges.push_back(
          svc::merge_from_manifest(dir + "/dispatch-manifest.json", 0, true));
      o.merge_s.push_back(now_s() - m0);
    }
  }

  r.attempted += o.units;
  if (!r.check(res.ok() && res.exit_code == 0,
               "dispatch: exit " + std::to_string(res.exit_code) + " " +
                   res.error)) {
    return o;
  }
  for (const svc::shard_run& s : res.shards) o.attempts += s.attempts;
  gate_records(res.merged, r, "dispatch merged");
  o.bytes = slurp(d.out);
  r.check(!o.bytes.empty(), "dispatch: cannot read " + d.out);
  for (const exp::merge_result& m : merges) {
    std::string encoded;
    std::string error;
    if (!r.check(m.ok(), "manifest merge: ", m.error) ||
        !r.check(exp::colfmt_encode(m.records, encoded, error),
                 "manifest merge encode: ", error)) {
      continue;
    }
    r.check(encoded == o.bytes,
            "manifest merge differs from the dispatch output");
  }
  for (usize i = 0; i < kWorkers; ++i) {
    std::error_code ec;
    o.shard_bytes += static_cast<double>(
        std::filesystem::file_size(shard_file(dir, i), ec));
  }
  o.shard0 = slurp(shard_file(dir, 0));
  return o;
}

struct pass_out {
  rep_times times;
  std::vector<double> merge_units_per_s;
  rep_out first;        ///< the warm-up repetition: the reference
  double rss_mb = 0.0;  ///< peak RSS after it: one dispatch in a fresh process
};

pass_out run_pass(const exp::scenario_params& params, const std::string& dir,
                  double seconds, bool traced, report& r) {
  pass_out p;
  const double start = now_s();
  // The first repetition warms the page cache (the amo_lab binary), caches
  // and the allocator and is not timed; every repetition is checked.
  for (usize rep = 0;; ++rep) {
    const std::string rep_dir = dir + "/rep" + std::to_string(rep);
    rep_out o = one_rep(params, rep_dir, traced, r);
    r.check(o.attempts == kWorkers,
            "dispatch: " + std::to_string(o.attempts) + " shard attempts");
    if (rep == 0) {
      p.first = std::move(o);
      p.rss_mb = peak_rss_mb();
    } else {
      r.check(o.bytes == p.first.bytes,
              "dispatch_amoc: repetition output differs from the first");
      p.times.add(o.setup_s, o.op_s, o.stolen);
      p.merge_units_per_s.push_back(static_cast<double>(o.units) /
                                    median(o.merge_s));
    }
    // Keep the children's trace files for the export; drop the records.
    for (const auto& entry : std::filesystem::directory_iterator(rep_dir)) {
      const std::string name = entry.path().filename().string();
      if (!name.ends_with(".trace.json")) std::filesystem::remove(entry.path());
    }
    if (rep > 0 && p.times.done(start, seconds)) break;
  }
  return p;
}

}  // namespace

void run_dispatch_amoc(const options& opt, report& r) {
  exp::scenario_params params;
  params.n = 64;
  params.m = 4;
  params.seed = 1000 * opt.seed + 1;
  params.seeds = opt.smoke ? 2 : 64;
  params.replicas = opt.smoke ? 4 : 64;

  const std::string dir = opt.workdir + "/dispatch";
  const double untraced_s = opt.traced ? opt.seconds / 2 : opt.seconds;
  const pass_out base = run_pass(params, dir + "/untraced", untraced_s, false, r);
  const auto [op, setup] = base.times.medians(r);
  const auto units = static_cast<double>(base.first.units);
  r.end_to_end("latency_ms", op * 1e3, "ms");
  r.end_to_end("throughput_per_s", units / op, "1/s");
  r.end_to_end("setup_s", setup, "s");
  r.end_to_end("peak_rss_mb", base.rss_mb, "MB");
  if (!opt.traced) return;

  trace_fold f;
  pass_out traced;
  {
    obs::session session(kRingCapacity);
    traced = run_pass(params, dir + "/traced", opt.seconds / 2, true, r);
    std::string error;
    r.check(fold_session(session.sink(), opt.trace_out, f, error),
            "trace export: ", error);
  }
  r.check(traced.first.bytes == base.first.bytes,
          "dispatch_amoc: traced merged bytes differ from untraced");
  r.same_count("svc.dispatcher.attempts",
               static_cast<double>(base.first.attempts),
               static_cast<double>(traced.first.attempts));
  r.same_count("exp.colfmt.bytes_per_unit", base.first.shard_bytes / units,
               traced.first.shard_bytes / units);

  // Decomposition: shard 0's child work, called in-process on one worker
  // (the children run --pool=1), then the read side of one shard file.
  svc::job j;
  for (const char* name : kScenarios) j.scenarios.emplace_back(name);
  j.params = params;
  j.no_timing = true;
  j.have_shard = true;
  j.shard = {0, kWorkers};
  j.out = opt.workdir + "/decomposed-shard0.amoc";
  svc::worker_pool one(1);
  std::string error;
  double t0 = now_s();
  const svc::job_result res = svc::execute_job(j, one);
  const double run_s = now_s() - t0;
  r.check(res.ok(), "decomposition: ", res.error);
  t0 = now_s();
  const std::string json = res.render_json();
  const double render_s = now_s() - t0;
  std::string amoc;
  t0 = now_s();
  r.check(res.render_output(exp::record_format::colfmt, amoc, error),
          "decomposition encode: ", error);
  const double encode_s = now_s() - t0 - render_s;
  t0 = now_s();
  r.check(svc::write_artifact(j.out.c_str(), amoc, 0, error),
          "decomposition write: ", error);
  const double write_s = now_s() - t0;
  r.check(amoc == base.first.shard0,
          "decomposition: in-process shard 0 differs from the child's");
  t0 = now_s();
  const exp::parse_result loaded = exp::load_records_file(j.out.c_str());
  const double decode_s = now_s() - t0;
  r.check(loaded.ok(), "decomposition load: ", loaded.error);
  t0 = now_s();
  r.check(exp::verify_shard_records(loaded.records, j.shard, error),
          "decomposition verify: ", error);
  const double verify_s = now_s() - t0;
  std::uint64_t hash = 0;
  t0 = now_s();
  r.check(svc::fnv64_file(j.out.c_str(), hash, error),
          "decomposition hash: ", error);
  const double hash_s = now_s() - t0;

  const auto reps = static_cast<double>(f.reps().size());
  r.layer("exp.registry.expand_s", f.total_s(kCat, "exp.registry.expand") / reps,
          "s");
  const std::vector<double> attempts = f.durations_s("dispatch", "shard_attempt");
  const double slowest = quantile(attempts, 1.0);
  const double fastest = quantile(attempts, 0.0);
  r.layer("svc.dispatcher.shard_attempt_s_max", slowest, "s");
  r.layer("svc.dispatcher.shard_skew", fastest > 0 ? slowest / fastest : 0.0,
          "ratio");
  r.layer("svc.dispatcher.verify_s", f.total_s("dispatch", "verify") / reps, "s");
  r.layer("svc.dispatcher.checkpoint_s",
          f.total_s("dispatch", "checkpoint") / reps, "s");
  r.layer("svc.dispatcher.attempts", static_cast<double>(traced.first.attempts),
          "count");
  r.layer("exp.merge.merge_stream_s", f.total_s("merge", "merge_stream") / reps,
          "s");
  r.layer("exp.merge.units_per_s", median(base.merge_units_per_s), "1/s");
  r.layer("exp.sweep.run_units_s", run_s, "s");
  r.layer("exp.record.render_s", render_s, "s");
  r.layer("exp.colfmt.encode_s", encode_s, "s");
  r.layer("svc.write_artifact_s", write_s, "s");
  r.layer("exp.colfmt.decode_s", decode_s, "s");
  r.layer("exp.merge.verify_s", verify_s, "s");
  r.layer("svc.fnv_hash_s", hash_s, "s");
  r.layer("exp.colfmt.bytes_per_unit", traced.first.shard_bytes / units,
          "bytes");
  add_trace_health(r, f, op, traced.times.medians(r).first);
}

}  // namespace e2e
