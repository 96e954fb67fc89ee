// svc::server — the job-execution loop that turns the experiment engine
// into a resident service.
//
// execute_job() is the one code path from a job to its JSON: expand the
// named scenarios into cells, apply the scheduled-only filter, then run
// the replica-expanded grid on the caller's persistent pool — the whole
// grid (aggregate cell records) for an unsharded job, or exactly the
// owned (cell, replica) units (per-unit records, later recombined by
// exp::merge_stream) for a sharded one. The amo_lab CLI routes
// `run`/`sweep` through this same function, so a batch/serve job's output
// is byte-identical to the equivalent standalone invocation by
// construction, not by parallel maintenance of two code paths (asserted
// in tests/test_svc_batch.cpp and the CI batch step).
//
// run_jobs() drains a parsed batch; serve() streams jobs from any istream
// (stdin, a FIFO) through a job_queue — a reader thread parses while jobs
// execute, so a slow job never blocks line intake. Both run jobs through
// one in-order window: up to pool.size() jobs in flight, each executing on
// a job thread so the pool overlaps their batches, while the caller's
// thread finishes them (render, write, stream, log line) strictly in
// submission order — the bytes, files and log order of pool size 1, which
// is the sequential loop. Timing runs additionally carry per-job
// observability fields (job_wall_seconds, job_queue_seconds) that
// exp::report_diff ignores like any wall clock.
#pragma once

#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/shard.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"
#include "svc/job.hpp"

namespace amo::svc {

class worker_pool;

/// Everything one finished job produced.
struct job_result {
  job j;                     ///< the job as executed
  bool sharded = false;      ///< the job ran a --shard unit slice

  /// Unsharded path: the full sweep — flattened per-replica reports plus
  /// per-cell aggregates (exp::sweep_result), rendered as aggregate cell
  /// records.
  exp::sweep_result swept;

  /// Sharded path: the owned (cell, replica) units and their reports, in
  /// unit order, rendered as per-unit records.
  std::vector<exp::unit_ref> units;
  std::vector<exp::run_report> unit_reports;

  usize cells_total = 0;     ///< full grid size (before shard)
  usize units_total = 0;     ///< replica-expanded grid size (before shard)
  std::uint64_t grid = 0;    ///< exp::grid_fingerprint of the grid
  usize pool_used = 0;       ///< workers the runs were dealt across
  double wall_seconds = 0.0; ///< executing the job
  double queue_seconds = 0.0;///< serve: parse-to-execute latency (0 in batch)
  bool safe = true;          ///< every executed replica at_most_once
  bool timed_out = false;    ///< error came from a cancelled (stalled) batch
  std::string error;         ///< non-empty: the job did not run

  [[nodiscard]] bool ok() const { return error.empty(); }

  /// Every run_report the job executed, in unit order (either path).
  [[nodiscard]] const std::vector<exp::run_report>& runs() const {
    return sharded ? unit_reports : swept.reports;
  }

  /// The record JSON document for this job — the same bytes
  /// `amo_lab run <scenarios> ... --out=F` would have written.
  [[nodiscard]] std::string render_json() const;

  /// The output bytes in `format`: render_json() itself for JSON; for
  /// colfmt, the same typed rows (exp::cell_record_rows /
  /// unit_record_rows), one cell group at a time, written straight into
  /// column chunks by exp::colfmt_encoder, with no token formatted or
  /// parsed, so `amo_lab convert` back to JSON reproduces the render_json
  /// bytes without the document ever being rendered. Either way the render
  /// holds one cell's rows besides its output. Traced as `record/render`
  /// (with the `.amoc` chunks written). False with `error` on an encode
  /// failure.
  [[nodiscard]] bool render_output(exp::record_format format, std::string& out,
                                   std::string& error) const;
};

/// Expands + runs one job on the pool. Never throws: scenario expansion
/// and engine errors come back through job_result::error.
job_result execute_job(const job& j, worker_pool& pool);

struct server_options {
  bool quiet = false;          ///< suppress per-job outcome lines
  std::FILE* stream = nullptr; ///< sink for jobs without out= (default stdout)
  std::FILE* log = nullptr;    ///< outcome/error lines (default stderr)
  /// serve only: emit a progress line every `heartbeat_s` seconds — the
  /// oldest job still executing, its batch's unit counter from
  /// worker_pool::progress(), and a stuck-job warning when the counter has
  /// not moved since the previous beat. 0 = no watchdog.
  double heartbeat_s = 0.0;
  /// serve only: the watchdog's deadline action, per job in flight. When
  /// a job's batch has units running and its counter has not moved for
  /// `stall_s` seconds, the watchdog cancels that batch alone
  /// (worker_pool::cancel(id)) and the job fails with the timeout class
  /// (job_result::timed_out, serve_summary::timeouts) instead of only
  /// being reported stuck. 0 = report-only watchdog.
  double stall_s = 0.0;
  /// Heartbeat/stall lines become one-line JSON objects on the log stream
  /// (machine-tailable alongside --trace-out) instead of prose.
  bool json_heartbeat = false;
};

/// Severity-keyed tally across one batch / serve session.
struct serve_summary {
  usize jobs = 0;       ///< jobs that parsed and were attempted
  usize rejected = 0;   ///< malformed job lines (serve mode only)
  usize failed = 0;     ///< jobs that errored (unknown adversary, dup out=)
  usize timeouts = 0;   ///< of the failed: stall-watchdog cancellations
  usize unsafe = 0;     ///< jobs with an at-most-once violation
  usize io_errors = 0;  ///< out= files that could not be written

  /// 2 = any malformed/failed job, else 3 = any unwritable output, else
  /// 1 = any safety violation, else 0 — the amo_lab exit-code convention.
  [[nodiscard]] int exit_code() const;
};

/// Runs a parsed batch through the job window on the persistent pool,
/// finishing jobs in order. Duplicate out= paths are rejected per job at
/// execution time too (parse_batch already refuses them; this guards
/// programmatic callers).
serve_summary run_jobs(const std::vector<job>& jobs, worker_pool& pool,
                       const server_options& opt = {});

/// Reads job lines from `in` until EOF, executing each as it arrives
/// through the job window. Malformed lines are reported and counted, not
/// fatal: a long-running server must outlive one bad submission.
serve_summary serve(std::istream& in, worker_pool& pool,
                    const server_options& opt = {});

}  // namespace amo::svc
