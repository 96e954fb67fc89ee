// svc::cli — the one amo_lab option table.
//
// Every amo_lab option is declared once, as a row: its CLI spelling
// (--<cli>=VALUE, or a bare --<cli> flag), its job-line key (none for
// CLI-only options), its value kind, whether dispatch forwards it to the
// shard children, its help section and text. Four surfaces run through
// the table, so a knob cannot be spelled, range-checked or rendered two
// ways:
//
//   parse_cli       the command line            --n=1024 --replicas=8
//   parse_job_line  one batch/serve job line    n=1024 replicas=8
//   to_line         the canonical job line (the serve FIFO wire format)
//   child_args      dispatch's shard-child invocation
//
// and `amo_lab help` lists it (options_help). A value is checked
// the same way on every surface: decimal counts are overflow-checked
// (eps= must also fit 32 bits), seconds/tolerances are finite and >= 0,
// and a bad value is reported as "bad <name>= value '<v>'".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/diff.hpp"
#include "svc/dispatcher.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"

namespace amo::svc {

/// Everything an amo_lab invocation can set. Options bind straight into
/// the config structs their layer consumes (the job knobs into a svc::job,
/// dispatch options into dispatch_options, ...), so no knob is declared
/// twice and no command copies option fields across.
struct cli_options {
  job knobs;                       ///< job-line knobs (scenarios: see names)
  dispatch_options dispatch = [] {  // shards 0: --shards not given
    dispatch_options d;
    d.shards = 0;
    return d;
  }();
  server_options serve;
  exp::diff_options diff;
  std::vector<std::string> names;  ///< positionals: scenarios, or files
  usize pool = 0;          ///< sweep workers (0 = hardware)
  bool check = false;      ///< run/sweep: pooled vs serial determinism check
  bool quiet = false;
  std::string trace_out;   ///< Chrome-trace timeline written on exit
  std::string manifest;    ///< merge: dispatch manifest to fold
  double wait_s = 0;       ///< merge --manifest: poll window for a full set
  std::string jobs;        ///< serve: input FIFO/file
  bool once = false;       ///< serve: exit at the first EOF even on a FIFO
  std::string to;          ///< submit: target FIFO/file
};

enum class value_kind : std::uint8_t {
  count,    ///< decimal, 0 .. 2^64-1
  u32,      ///< decimal, 0 .. 2^32-1
  seconds,  ///< finite decimal >= 0 (also the diff tolerance)
  shard,    ///< i/k with 0 <= i < k
  format,   ///< json | colfmt
  text,     ///< any non-empty string (paths, specs, templates)
  flag,     ///< no value
};

/// Help grouping: which commands read the option.
enum class section : std::uint8_t { job, run, serve, dispatch, merge, diff };

struct option_spec {
  std::string_view cli;  ///< spelled --<cli>[=VALUE]
  std::string_view key;  ///< job-line key or flag; "" = CLI only
  value_kind kind;
  section group;
  bool forward;          ///< dispatch passes it on to every shard child
  std::string_view metavar;
  std::string_view help;
  /// Parses `value` into the option's field; false on a bad value.
  bool (*set)(cli_options&, value_kind, std::string_view value);
  /// The option's value as spelled on a line; false when it is at its
  /// omitted default (an unset flag, an empty path...).
  bool (*get)(const cli_options&, value_kind, std::string& value);
};

/// Every option, in canonical order (the order to_line and child_args
/// spell them in).
[[nodiscard]] std::span<const option_spec> option_table();

/// The row spelled --<cli>, or nullptr.
[[nodiscard]] const option_spec* find_option(std::string_view cli);

/// The row whose job-line key is `key`, or nullptr.
[[nodiscard]] const option_spec* find_key(std::string_view key);

/// "bad <name>= value '<value>'", plus what the kind wants where the
/// value grammar is not plain decimal. Both parsers report through it.
[[nodiscard]] std::string bad_value(std::string_view name,
                                    std::string_view value, value_kind kind);

/// Parses argv[first..argc): --options into `out`, everything else into
/// out.names. False with `error` set on an unknown option or a bad value.
bool parse_cli(int argc, const char* const* argv, int first, cli_options& out,
               std::string& error);

/// The job an invocation describes: its knobs plus out.names as scenarios.
[[nodiscard]] job cli_job(const cli_options& opt);

/// dispatch's child invocation: "sweep <names> --<forwarded options>
/// --quiet". Part of the dispatcher's args fingerprint, so its spelling is
/// stable.
[[nodiscard]] std::string child_args(const cli_options& opt);

/// One `amo_lab help` line: "  left" padded to column 30, then `help`
/// word-wrapped to 79 columns.
[[nodiscard]] std::string help_row(std::string left, std::string_view help);

/// The options half of `amo_lab help`: every row, by section.
[[nodiscard]] std::string options_help();

}  // namespace amo::svc
