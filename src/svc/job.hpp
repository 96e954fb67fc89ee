// svc::job — one line of work for the sweep service.
//
// A job names one or more registered scenarios plus the knobs the amo_lab
// CLI would have taken for a standalone `run`/`sweep` invocation, so a
// batch file is exactly a transcript of equivalent one-shot commands — and
// the service's per-job output is byte-identical to running each line
// standalone (asserted in tests/test_svc_batch.cpp).
//
// Job-line grammar (see docs/batch_format.md; one job per line):
//
//   <scenario> [<scenario> ...] [key=value ...] [flag ...]   [# comment]
//
// The keys and flags are the job rows of the amo_lab option table
// (svc/cli.hpp), so a job line and the CLI take the same knobs with the
// same value rules. format= is an execution option: canonical lines carry
// it only when it was spelled (an out= ending in ".amoc" already selects
// colfmt).
//
// Blank lines and lines starting with '#' are skipped; a '#' token inside
// a line comments out its remainder. Values cannot contain whitespace (the
// format is line-oriented by design — jobs travel over FIFOs). Scenario
// names are validated against the registry at parse time, and a batch in
// which two jobs write the same out= path is rejected whole: the second
// write would silently clobber the first job's report.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "exp/colfmt.hpp"
#include "exp/registry.hpp"
#include "exp/shard.hpp"

namespace amo::svc {

struct job {
  std::vector<std::string> scenarios;  ///< registry names, >= 1
  exp::scenario_params params;         ///< defaults + overrides
  bool scheduled_only = false;         ///< drop os_threads cells
  bool no_timing = false;              ///< omit wall_seconds from JSON
  bool have_shard = false;
  exp::shard_ref shard;                ///< slice of the job's own grid
  std::string out;                     ///< output path; "" = service stream
  bool have_format = false;            ///< format= spelled explicitly
  exp::record_format format = exp::record_format::json;
  usize line = 0;                      ///< source line, for diagnostics

  friend bool operator==(const job&, const job&) = default;
};

/// The format a job's output is actually written in: the explicit format=
/// when given, else inferred from the out= extension (".amoc" = colfmt).
[[nodiscard]] inline exp::record_format job_output_format(const job& j) {
  return j.have_format ? j.format : exp::format_for_path(j.out);
}

/// The canonical job line: scenarios, every parameter spelled out, then
/// flags, shard, out. parse_job_line(to_line(j)) == j, which is what lets
/// `amo_lab submit` forward CLI invocations to a serve FIFO verbatim.
[[nodiscard]] std::string to_line(const job& j);

struct job_parse_result {
  std::vector<job> jobs;
  std::string error;  ///< empty on success, else "line N: why"

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses one line. Returns false on malformed input with `error` set;
/// returns true with `has_job == false` for blank/comment lines.
bool parse_job_line(std::string_view text, usize line_no, job& out,
                    bool& has_job, std::string& error);

/// Parses a whole batch document, validating cross-job constraints
/// (duplicate out= paths). All-or-nothing: any bad line rejects the batch.
job_parse_result parse_batch(std::string_view text);

/// Reads + parses a batch file; read failures come back through .error.
job_parse_result parse_batch_file(const char* path);

}  // namespace amo::svc
