// amo_lab — the experiment-engine command line.
//
// `amo_lab help` lists the commands (kCommands below) and every option.
// Options are declared once, in the table in src/svc/cli.cpp, which also
// parses batch/serve job lines, so the CLI and a job line accept exactly
// the same knobs.
//
// Every record follows the unified flat schema (see docs/json_schema.md):
// the run-report fields of exp::unit_record_rows / exp::cell_record_rows
// prefixed, for run/sweep output, with the global grid position
// {"cell", "cells_total"}.
//
// Exit status:
//   run/sweep   0 = every cell safe (and --check held); 1 = violation
//   merge       0 = merged; 2 = refused (duplicate/gap/grid mismatch, a
//               shard off its slice or checkpoint); 3 = I/O, parse, decode
//   convert     0 = converted; 2 = encode failure; 3 = I/O, parse
//   diff        0 = clean or benign drift; 1 = effectiveness/work regression
//               beyond tolerance; 2 = hard failure (new duplicates or
//               livelocks, safety flag flipped, baseline cell missing);
//               3 = I/O, parse
//   serve/batch 0 = every job ran safe; 1 = a safety violation; 2 = a
//               malformed or failing job; 3 = an unwritable out= file
//   dispatch    0 = merged clean; 1 = a shard reported a violation; 2 =
//               launch/merge hard failure; 3 = shard unreadable / merged
//               output unwritable
//   stats       0 = summarised; 3 = trace unreadable or malformed
//   any         2 = usage error (unknown command, unknown scenario, bad flag)
//   any         3 (overriding a 0) = --trace-out file could not be written
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/colfmt.hpp"
#include "exp/diff.hpp"
#include "obs/stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_read.hpp"
#include "exp/engine.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "svc/cli.hpp"
#include "svc/dispatcher.hpp"
#include "svc/fault.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"
#include "util/fileio.hpp"
#include "util/table.hpp"

namespace {

using namespace amo;

using svc::cli_options;

int cmd_list(const cli_options& opt) {
  if (!opt.names.empty()) {
    std::fprintf(stderr, "list takes no scenario arguments\n");
    return 2;
  }
  text_table t({"scenario", "description"});
  for (const exp::scenario& s : exp::scenario_registry()) {
    t.add_row({s.name, s.description});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("%zu scenarios. Run one with: amo_lab run <scenario>\n",
              exp::scenario_registry().size());
  return 0;
}

void print_reports(const std::vector<exp::run_report>& reports) {
  text_table t({"scenario", "driver", "adversary", "seed", "n", "m",
                "effectiveness", "work", "collisions", "safe?"});
  for (const exp::run_report& r : reports) {
    t.add_row({r.label, exp::to_string(r.driver), r.adversary,
               std::to_string(r.seed), fmt_count(r.n), fmt_count(r.m),
               fmt_count(r.effectiveness), fmt_count(r.total_work.total()),
               fmt_count(r.total_collisions), r.at_most_once ? "yes" : "NO"});
  }
  std::fputs(t.render().c_str(), stdout);
}

/// The output encoding a command writes: the explicit --format when
/// given, else inferred from the destination path (".amoc" = colfmt).
exp::record_format format_for(const cli_options& opt, const std::string& path) {
  return opt.knobs.have_format ? opt.knobs.format
                               : exp::format_for_path(path);
}

const char* format_name(exp::record_format f) {
  return f == exp::record_format::colfmt ? "colfmt" : "json";
}

int run_job(const svc::job& j, const cli_options& opt) {
  svc::worker_pool pool(opt.pool);
  svc::job_result result = svc::execute_job(j, pool);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 2;
  }
  if (result.sharded) {
    std::printf("shard %s: %zu of %zu units (%zu cells)\n",
                exp::to_string(j.shard).c_str(), result.runs().size(),
                result.units_total, result.cells_total);
  }

  bool ok = result.safe;
  if (!opt.quiet) print_reports(result.runs());
  std::printf("%zu units (%zu cells) on %zu workers in %.2fs; "
              "at-most-once: %s\n",
              result.runs().size(), result.cells_total, result.pool_used,
              result.wall_seconds, result.safe ? "yes" : "VIOLATED");

  if (opt.check && !result.runs().empty()) {
    svc::worker_pool serial(1);
    const svc::job_result ref = svc::execute_job(j, serial);
    bool identical = ref.ok() && ref.runs().size() == result.runs().size();
    for (usize i = 0; identical && i < ref.runs().size(); ++i) {
      // os_threads cells are inherently non-reproducible; the determinism
      // guarantee covers scheduled cells.
      if (result.runs()[i].driver != exp::driver_kind::scheduled) continue;
      identical = exp::equivalent(ref.runs()[i], result.runs()[i]);
    }
    std::printf("determinism check: pooled vs serial %s; speedup %.2fx\n",
                identical ? "bit-identical" : "MISMATCH",
                result.wall_seconds > 0
                    ? ref.wall_seconds / result.wall_seconds
                    : 0.0);
    ok = ok && identical;
  }

  if (!j.out.empty()) {
    // The fault-aware artifact writer (atomic unless an $AMO_FAULT action
    // fires): this is the single output point a dispatcher-launched shard
    // child writes through, keyed by the shard it owns.
    const std::uint64_t key = j.have_shard ? std::uint64_t{j.shard.index} : 0;
    std::string content;
    std::string werr;
    if (!result.render_output(svc::job_output_format(j), content, werr) ||
        !svc::write_artifact(j.out.c_str(), content, key, werr)) {
      std::fprintf(stderr, "%s\n", werr.c_str());
      return 2;
    }
    std::printf("[%zu records -> %s]\n",
                result.sharded ? result.runs().size() : result.swept.cells.size(),
                j.out.c_str());
  }
  return ok ? 0 : 1;
}

int cmd_run(const cli_options& opt) {
  if (opt.names.empty()) {
    std::fprintf(stderr,
                 "run: name at least one scenario (see amo_lab list)\n");
    return 2;
  }
  return run_job(svc::cli_job(opt), opt);
}

int cmd_sweep(const cli_options& opt) {
  if (!opt.names.empty()) return cmd_run(opt);
  cli_options all = opt;
  for (const exp::scenario& s : exp::scenario_registry()) {
    all.names.push_back(s.name);
  }
  return run_job(svc::cli_job(all), all);
}

int cmd_merge(const cli_options& opt) {
  if (opt.names.empty() && opt.manifest.empty()) {
    std::fprintf(stderr,
                 "merge: name at least one shard file (or --manifest=FILE)\n");
    return 2;
  }
  if (!opt.names.empty() && !opt.manifest.empty()) {
    std::fprintf(stderr, "merge: --manifest replaces the shard file list; "
                         "give one or the other\n");
    return 2;
  }
  const exp::record_format fmt = format_for(opt, opt.knobs.out);
  if (fmt == exp::record_format::colfmt && opt.knobs.out.empty()) {
    std::fprintf(stderr,
                 "merge: --format=colfmt needs --out=FILE (stdout is text)\n");
    return 2;
  }

  // The streaming fold: shard files (either format, sniffed) are consumed
  // cell by cell, so memory is bounded by shard count — never by sweep
  // size. Only the per-cell AGGREGATES accumulate, for the final render.
  exp::merge_result merged;
  usize shard_count = opt.names.size();
  if (!opt.manifest.empty()) {
    merged = svc::merge_from_manifest(opt.manifest, opt.wait_s, opt.quiet);
  } else {
    std::vector<std::unique_ptr<exp::record_source>> sources;
    sources.reserve(opt.names.size());
    for (const std::string& file : opt.names) {
      sources.push_back(exp::make_file_source(file));
    }
    merged = exp::merge_stream(std::move(sources));
  }
  if (!merged.ok()) {
    std::fprintf(stderr, "amo_lab merge: %s\n", merged.error.c_str());
    // Exit 3 for an input that could not be read as records, 2 for a
    // shard set the merge contract refused.
    return merged.unreadable ? 3 : 2;
  }
  std::string werr;
  if (opt.knobs.out.empty()) {
    std::fputs(exp::render_records(merged.records).c_str(), stdout);
  } else {
    std::string content;
    if (!exp::render_records_as(merged.records, fmt, content, werr)) {
      std::fprintf(stderr, "amo_lab merge: %s\n", werr.c_str());
      return 2;
    }
    // Through the fault-aware atomic artifact path, like every other
    // record writer in the stack (key 0: the merged whole).
    if (!svc::write_artifact(opt.knobs.out.c_str(), content, 0, werr)) {
      std::fprintf(stderr, "amo_lab merge: %s\n", werr.c_str());
      return 3;
    }
    if (!opt.manifest.empty()) {
      std::printf("[%zu cells via %s -> %s (%s)]\n", merged.records.size(),
                  opt.manifest.c_str(), opt.knobs.out.c_str(),
                  format_name(fmt));
    } else {
      std::printf("[%zu cells from %zu shards -> %s (%s)]\n",
                  merged.records.size(), shard_count, opt.knobs.out.c_str(),
                  format_name(fmt));
    }
  }
  return 0;
}

int cmd_convert(const cli_options& opt) {
  if (opt.names.size() != 2) {
    std::fprintf(stderr, "convert: need exactly <in> <out>\n");
    return 2;
  }
  // Sniffed load (either format), explicit or path-inferred target
  // encoding. Losslessness is the format layer's contract: every token
  // round-trips, so json -> colfmt -> json is byte-identical.
  exp::parse_result parsed = exp::load_records_file(opt.names[0].c_str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "amo_lab convert: %s\n", parsed.error.c_str());
    return 3;
  }
  const exp::record_format fmt = format_for(opt, opt.names[1]);
  std::string werr;
  if (!exp::write_records_file_as(opt.names[1].c_str(), parsed.records, fmt,
                                  werr)) {
    std::fprintf(stderr, "amo_lab convert: %s\n", werr.c_str());
    return werr.rfind("cannot ", 0) == 0 ? 3 : 2;
  }
  if (!opt.quiet) {
    std::printf("[%zu records -> %s (%s)]\n", parsed.records.size(),
                opt.names[1].c_str(), format_name(fmt));
  }
  return 0;
}

int cmd_diff(const cli_options& opt) {
  if (opt.names.size() != 2) {
    std::fprintf(stderr, "diff: need exactly <baseline> <candidate>\n");
    return 2;
  }
  exp::parse_result base = exp::load_records_file(opt.names[0].c_str());
  exp::parse_result cand = exp::load_records_file(opt.names[1].c_str());
  if (!base.ok() || !cand.ok()) {
    std::fprintf(stderr, "amo_lab diff: %s\n",
                 (!base.ok() ? base.error : cand.error).c_str());
    return 3;
  }
  const exp::diff_report report =
      exp::report_diff(base.records, cand.records, opt.diff);
  if (!opt.quiet || report.severity != exp::diff_severity::clean) {
    std::fputs(exp::format_diff(report).c_str(), stdout);
  }
  if (!report.ok()) return 2;
  switch (report.severity) {
    case exp::diff_severity::clean:
    case exp::diff_severity::info: return 0;
    case exp::diff_severity::regression: return 1;
    case exp::diff_severity::hard_fail: return 2;
  }
  return 2;
}

int cmd_serve(const cli_options& opt) {
  if (!opt.names.empty()) {
    std::fprintf(stderr, "serve takes no scenario arguments "
                         "(submit jobs over --jobs or stdin)\n");
    return 2;
  }
  // A FIFO reaches EOF whenever its last writer closes; a resident server
  // must survive that and wait for the next submitter, so on a FIFO the
  // serve loop reopens after every drained session (the open blocks until
  // a writer appears). --once keeps the drain-one-session behaviour.
  bool resident = false;
  if (!opt.jobs.empty() && !opt.once) {
    struct stat st {};
    resident = ::stat(opt.jobs.c_str(), &st) == 0 && S_ISFIFO(st.st_mode);
  }
  svc::worker_pool pool(opt.pool);
  svc::server_options sopt = opt.serve;
  sopt.quiet = opt.quiet;
  // Tracing implies a machine consumer: heartbeat/stall lines switch to
  // one-line JSON so the log stream is tailable alongside the trace.
  sopt.json_heartbeat = !opt.trace_out.empty();
  std::fprintf(stderr, "amo_lab serve: pool of %zu workers, reading jobs "
                       "from %s%s\n",
               pool.size(), opt.jobs.empty() ? "stdin" : opt.jobs.c_str(),
               resident ? " (FIFO, resident: reopening on EOF)" : "");
  svc::serve_summary sum;
  if (opt.jobs.empty()) {
    sum = svc::serve(std::cin, pool, sopt);
  } else {
    do {
      std::ifstream in(opt.jobs);
      if (!in) {
        std::fprintf(stderr, "serve: cannot open %s\n", opt.jobs.c_str());
        return 3;
      }
      const svc::serve_summary session = svc::serve(in, pool, sopt);
      sum.jobs += session.jobs;
      sum.rejected += session.rejected;
      sum.failed += session.failed;
      sum.timeouts += session.timeouts;
      sum.unsafe += session.unsafe;
      sum.io_errors += session.io_errors;
      if (resident && !opt.quiet) {
        std::fprintf(stderr, "amo_lab serve: session drained (%zu jobs so "
                             "far); waiting for the next writer\n",
                     sum.jobs);
      }
    } while (resident);
  }
  std::fprintf(stderr, "amo_lab serve: %zu jobs (%zu rejected, %zu failed "
                       "of which %zu timeouts, %zu unsafe, %zu I/O errors) "
                       "on %zu pool batches\n",
               sum.jobs, sum.rejected, sum.failed, sum.timeouts, sum.unsafe,
               sum.io_errors, pool.batches_run());
  return sum.exit_code();
}

int cmd_submit(const cli_options& opt) {
  if (opt.names.empty()) {
    std::fprintf(stderr, "submit: name at least one scenario (see amo_lab list)\n");
    return 2;
  }
  for (const std::string& name : opt.names) {
    if (exp::find_scenario(name) == nullptr) {
      std::fprintf(stderr, "submit: unknown scenario '%s'\n", name.c_str());
      return 2;
    }
  }
  const std::string line = svc::to_line(svc::cli_job(opt));
  // Round-trip through the parser so a job that serve would reject can
  // never be submitted in the first place.
  svc::job parsed;
  bool has_job = false;
  std::string error;
  if (!svc::parse_job_line(line, 1, parsed, has_job, error) || !has_job) {
    std::fprintf(stderr, "submit: %s\n", error.c_str());
    return 2;
  }
  if (opt.to.empty()) {
    std::printf("%s\n", line.c_str());
    return 0;
  }
  std::FILE* f = std::fopen(opt.to.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "submit: cannot open %s\n", opt.to.c_str());
    return 3;
  }
  const bool ok = std::fprintf(f, "%s\n", line.c_str()) > 0;
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "submit: cannot write %s\n", opt.to.c_str());
    return 3;
  }
  std::fprintf(stderr, "submitted to %s: %s\n", opt.to.c_str(), line.c_str());
  return 0;
}

int cmd_batch(const cli_options& opt) {
  if (opt.names.size() != 1) {
    std::fprintf(stderr, "batch: need exactly one batch file\n");
    return 2;
  }
  svc::job_parse_result parsed = svc::parse_batch_file(opt.names[0].c_str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "amo_lab batch: %s\n", parsed.error.c_str());
    return parsed.error.rfind("cannot ", 0) == 0 ? 3 : 2;
  }
  if (parsed.jobs.empty()) {
    std::fprintf(stderr, "amo_lab batch: %s holds no jobs\n",
                 opt.names[0].c_str());
    return 2;
  }
  svc::worker_pool pool(opt.pool);
  svc::server_options sopt;
  sopt.quiet = opt.quiet;
  const svc::serve_summary sum = svc::run_jobs(parsed.jobs, pool, sopt);
  std::fprintf(stderr, "amo_lab batch: %zu jobs (%zu failed, %zu unsafe, "
                       "%zu I/O errors) on a pool of %zu\n",
               sum.jobs, sum.failed, sum.unsafe, sum.io_errors, pool.size());
  return sum.exit_code();
}

int cmd_dispatch(const cli_options& opt) {
  if (opt.dispatch.shards == 0) {
    std::fprintf(stderr, "dispatch: need --shards=k (k >= 1)\n");
    return 2;
  }
  if (opt.knobs.have_shard) {
    std::fprintf(stderr, "dispatch: --shard belongs to the child sweeps; "
                         "use --shards=k\n");
    return 2;
  }

  svc::dispatch_options dopt = opt.dispatch;
  dopt.out = opt.knobs.out;
  dopt.quiet = opt.quiet;
  // Fan the trace out: every child gets its own --trace-out shard, and the
  // dispatcher attaches them to this process's session so the export is one
  // stitched timeline (child i = pid i+1).
  dopt.trace = !opt.trace_out.empty();
  // Shard files and the merged output travel in the same encoding; the
  // children need no extra flag — they infer colfmt from their ".amoc"
  // --out names.
  dopt.format = format_for(opt, opt.knobs.out);
  if (dopt.format == exp::record_format::colfmt && opt.knobs.out.empty()) {
    std::fprintf(stderr, "dispatch: --format=colfmt needs --out=FILE "
                         "(stdout is text)\n");
    return 2;
  }

  const svc::dispatch_result result = svc::dispatch(svc::child_args(opt), dopt);
  if (!result.ok()) {
    std::fprintf(stderr, "amo_lab dispatch: %s\n", result.error.c_str());
    for (const svc::shard_run& run : result.shards) {
      if (run.exit_code != 0 && !run.output.empty()) {
        std::fprintf(stderr, "--- shard %s output ---\n%s\n",
                     exp::to_string(run.shard).c_str(), run.output.c_str());
      }
    }
    return result.exit_code;
  }
  if (opt.knobs.out.empty()) {
    std::fputs(exp::render_records(result.merged).c_str(), stdout);
  } else {
    std::printf("[%zu cells from %zu shards -> %s]\n", result.merged.size(),
                result.shards.size(), opt.knobs.out.c_str());
  }
  return result.exit_code;
}

int cmd_stats(const cli_options& opt) {
  if (opt.names.size() != 1) {
    std::fprintf(stderr, "stats: need exactly one trace file (--trace-out "
                         "output)\n");
    return 2;
  }
  const obs::trace_parse_result parsed =
      obs::parse_trace_file(opt.names[0].c_str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "amo_lab stats: %s\n", parsed.error.c_str());
    return 3;
  }
  const obs::trace_summary sum =
      obs::summarize_trace(parsed.events, parsed.dropped);
  if (!opt.quiet) std::fputs(obs::render_summary_table(sum).c_str(), stdout);
  if (!opt.knobs.out.empty()) {
    std::string werr;
    if (!svc::write_artifact(opt.knobs.out.c_str(),
                             obs::render_summary_json(sum), 0, werr)) {
      std::fprintf(stderr, "amo_lab stats: %s\n", werr.c_str());
      return 3;
    }
    if (!opt.quiet) {
      std::printf("[%zu stages, %zu counters -> %s]\n", sum.stages.size(),
                  sum.counters.size(), opt.knobs.out.c_str());
    }
  }
  return 0;
}

/// One amo_lab command: its `amo_lab help` line and its body.
struct command {
  std::string_view name;
  std::string_view usage;
  std::string_view help;
  int (*run)(const cli_options&);
};

const command kCommands[] = {
    {"list", "list", "registered scenarios + descriptions", cmd_list},
    {"run", "run <scenario ...>", "expand + run the named scenarios", cmd_run},
    {"sweep", "sweep [scenario ...]",
     "run many scenarios (default: all) as one grid", cmd_sweep},
    {"merge", "merge <shard ...>",
     "recombine shard outputs into the sweep's bytes", cmd_merge},
    {"convert", "convert <in> <out>",
     "rewrite a record file in the other encoding", cmd_convert},
    {"diff", "diff <base> <cand>",
     "classify changes cell by cell (exit 1, 2: worse)", cmd_diff},
    {"serve", "serve", "resident service: persistent pool, job lines in",
     cmd_serve},
    {"submit", "submit <scenario ...>", "append a canonical job line to --to",
     cmd_submit},
    {"batch", "batch <file>",
     "run a batch file on one pool (docs/batch_format.md)", cmd_batch},
    {"dispatch", "dispatch --shards=K",
     "launch K shard subprocesses, verify, merge", cmd_dispatch},
    {"stats", "stats <trace.json>", "summarise a --trace-out trace per stage",
     cmd_stats},
};

std::string usage() {
  std::string out = "usage: amo_lab <command> [args] [options]\n\ncommands:\n";
  for (const command& c : kCommands) {
    out += svc::help_row(std::string(c.usage), c.help);
  }
  return out + svc::help_row("help", "this text") + svc::options_help();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(usage().c_str(), stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    std::fputs(usage().c_str(), stdout);
    return 0;
  }
  const command* run = nullptr;
  for (const command& c : kCommands) {
    if (c.name == cmd) run = &c;
  }
  if (run == nullptr) {
    std::fprintf(stderr, "amo_lab: unknown command '%s'\n%s", cmd.c_str(),
                 usage().c_str());
    return 2;
  }
  cli_options opt;
  opt.dispatch.self = argv[0];
  std::string error;
  if (!svc::parse_cli(argc, argv, 2, opt, error)) {
    std::fprintf(stderr, "amo_lab: %s\n", error.c_str());
    return 2;
  }
  // A fault plan in the environment must be well-formed before anything
  // runs: failing hard here beats silently running fault-free under a
  // typo'd chaos spec (env_fault_plan alone would warn and ignore it).
  if (const char* spec = std::getenv("AMO_FAULT");
      spec != nullptr && *spec != '\0') {
    svc::fault_plan plan;
    if (!svc::parse_fault_plan(spec, plan, error)) {
      std::fprintf(stderr, "amo_lab: bad AMO_FAULT spec: %s\n", error.c_str());
      return 2;
    }
  }
  // --trace-out arms the process-wide telemetry session around the whole
  // command ("stats" only reads traces, so it never records one). Probes
  // everywhere else in the stack are branch-on-null: without this session
  // they cost one relaxed pointer load.
  std::unique_ptr<obs::session> trace;
  if (!opt.trace_out.empty() && cmd != "stats") {
    trace = std::make_unique<obs::session>();
    obs::set_thread_name("main");
  }

  int rc = 2;
  try {
    rc = run->run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amo_lab: %s\n", e.what());
    return 2;
  }

  if (trace != nullptr && trace->installed()) {
    obs::export_options eopt;
    eopt.process_name = "amo_lab " + cmd;
    if (opt.knobs.have_shard) {
      eopt.process_name += " shard=" + exp::to_string(opt.knobs.shard);
    }
    std::string werr;
    if (obs::export_file(trace->sink(), opt.trace_out.c_str(), eopt, werr)) {
      if (!opt.quiet) {
        std::fprintf(stderr, "amo_lab: trace -> %s\n", opt.trace_out.c_str());
      }
    } else {
      std::fprintf(stderr, "amo_lab: %s\n", werr.c_str());
      if (rc == 0) rc = 3;
    }
  }
  return rc;
}
