#include "svc/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <type_traits>

#include "util/json_scan.hpp"
#include "util/parse.hpp"

namespace amo::svc {

namespace {

/// Parses one option value into its field. Flags never see a value.
template <class T>
bool parse_into(value_kind kind, std::string_view v, T& dst) {
  if constexpr (std::is_same_v<T, bool>) {
    dst = true;
  } else if constexpr (std::unsigned_integral<T>) {
    std::uint64_t x = 0;
    if (!parse_u64(v, x) || x > std::numeric_limits<T>::max()) return false;
    dst = static_cast<T>(x);
  } else if constexpr (std::is_same_v<T, double>) {
    // The record files' number grammar; 1e999 clamps to inf and is refused.
    json::scanner sc(v);
    double x = 0;
    if (!sc.number(x) || !sc.at_end() || !std::isfinite(x) || x < 0) {
      return false;
    }
    dst = x;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (v.empty()) return false;
    dst = v;
  } else {
    // The job's two optional knobs, each with its "spelled" bit.
    static_assert(std::is_same_v<T, job>);
    if (kind == value_kind::shard) {
      if (!exp::parse_shard(v, dst.shard)) return false;
      dst.have_shard = true;
    } else if (v == "json" || v == "colfmt") {
      dst.format = v == "json" ? exp::record_format::json
                               : exp::record_format::colfmt;
      dst.have_format = true;
    } else {
      return false;
    }
  }
  return true;
}

/// The value as spelled on a line; false when the field is at its omitted
/// default.
template <class T>
bool print_from(value_kind kind, const T& src, std::string& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out.clear();
    return src;
  } else if constexpr (std::unsigned_integral<T>) {
    out = std::to_string(src);
    return true;
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, src);
    out.assign(buf, res.ptr);
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = src;
    return !src.empty();
  } else {
    if (kind == value_kind::shard) {
      out = exp::to_string(src.shard);
      return src.have_shard;
    }
    out = src.format == exp::record_format::colfmt ? "colfmt" : "json";
    return src.have_format;
  }
}

/// One table row bound to the field `Field(options)` names.
template <auto Field>
constexpr option_spec row(std::string_view cli, std::string_view key,
                          value_kind kind, section group, bool forward,
                          std::string_view metavar, std::string_view help) {
  return {cli, key, kind, group, forward, metavar, help,
          [](cli_options& o, value_kind k, std::string_view v) {
            return parse_into(k, v, Field(o));
          },
          [](const cli_options& o, value_kind k, std::string& v) {
            return print_from(k, Field(o), v);
          }};
}

using K = value_kind;
using S = section;

// Canonical order: to_line and child_args spell options in table order,
// and both strings are compared byte for byte (the serve FIFO wire format,
// the dispatcher's args fingerprint).
const option_spec kOptions[] = {
    row<[](auto& o) -> auto& { return o.knobs.params.n; }>(
        "n", "n", K::count, S::job, true, "N",
        "jobs (the paper's n)"),
    row<[](auto& o) -> auto& { return o.knobs.params.m; }>(
        "m", "m", K::count, S::job, true, "M",
        "processes (m)"),
    row<[](auto& o) -> auto& { return o.knobs.params.beta; }>(
        "beta", "beta", K::count, S::job, true, "B",
        "KK_beta termination threshold (0 = m)"),
    row<[](auto& o) -> auto& { return o.knobs.params.eps_inv; }>(
        "eps", "eps", K::u32, S::job, true, "K",
        "1/eps of the iterative families"),
    row<[](auto& o) -> auto& { return o.knobs.params.seed; }>(
        "seed", "seed", K::count, S::job, true, "S",
        "first adversary seed"),
    row<[](auto& o) -> auto& { return o.knobs.params.seeds; }>(
        "seeds", "seeds", K::count, S::job, true, "R",
        "seed variants (distinct cells) per scenario"),
    row<[](auto& o) -> auto& { return o.knobs.params.replicas; }>(
        "replicas", "replicas", K::count, S::job, true, "R",
        "seeded replicas per cell, folded into min/mean/max/p50/p95"),
    row<[](auto& o) -> auto& { return o.pool; }>(
        "pool", "", K::count, S::run, true, "P",
        "sweep workers (0 = hardware, 1 = serial)"),
    row<[](auto& o) -> auto& { return o.knobs.scheduled_only; }>(
        "scheduled-only", "scheduled-only", K::flag, S::job, true, "",
        "drop os_threads cells (hardware-timed, not reproducible)"),
    row<[](auto& o) -> auto& { return o.knobs.no_timing; }>(
        "no-timing", "no-timing", K::flag, S::job, true, "",
        "omit wall_seconds, so identical runs are byte-identical"),
    row<[](auto& o) -> auto& { return o.knobs; }>(
        "shard", "shard", K::shard, S::job, false, "i/k",
        "run slice i of k of the replica-expanded unit space"),
    row<[](auto& o) -> auto& { return o.knobs.out; }>(
        "out", "out", K::text, S::job, false, "FILE",
        "write the records to FILE (default stdout)"),
    row<[](auto& o) -> auto& { return o.knobs; }>(
        "format", "format", K::format, S::job, false, "json|colfmt",
        "output encoding (default: colfmt for an .amoc --out)"),
    row<[](auto& o) -> auto& { return o.trace_out; }>(
        "trace-out", "", K::text, S::run, false, "FILE",
        "write a Perfetto-loadable trace; records stay identical"),
    row<[](auto& o) -> auto& { return o.check; }>(
        "check", "", K::flag, S::run, false, "",
        "rerun serially and verify bit-identical results"),
    row<[](auto& o) -> auto& { return o.quiet; }>(
        "quiet", "", K::flag, S::run, false, "",
        "suppress the per-cell table"),
    row<[](auto& o) -> auto& { return o.jobs; }>(
        "jobs", "", K::text, S::serve, false, "FILE",
        "serve: read job lines from FILE or FIFO (default stdin)"),
    row<[](auto& o) -> auto& { return o.once; }>(
        "once", "", K::flag, S::serve, false, "",
        "serve: exit at the first EOF, even on a FIFO"),
    row<[](auto& o) -> auto& { return o.serve.heartbeat_s; }>(
        "heartbeat-s", "", K::seconds, S::serve, false, "T",
        "serve: log progress every T seconds, flag stalled jobs"),
    row<[](auto& o) -> auto& { return o.serve.stall_s; }>(
        "stall-s", "", K::seconds, S::serve, false, "T",
        "serve: fail a job stalled for T seconds as a timeout"),
    row<[](auto& o) -> auto& { return o.to; }>(
        "to", "", K::text, S::serve, false, "FILE",
        "submit: append the job line to FILE (default stdout)"),
    row<[](auto& o) -> auto& { return o.dispatch.shards; }>(
        "shards", "", K::count, S::dispatch, false, "K",
        "number of shard subprocesses"),
    row<[](auto& o) -> auto& { return o.dispatch.retries; }>(
        "retries", "", K::count, S::dispatch, false, "R",
        "relaunch a hard-failed shard up to R times"),
    row<[](auto& o) -> auto& { return o.dispatch.deadline_s; }>(
        "deadline-s", "", K::seconds, S::dispatch, false, "T",
        "per-attempt deadline (SIGTERM, then SIGKILL)"),
    row<[](auto& o) -> auto& { return o.dispatch.inject; }>(
        "inject", "", K::text, S::dispatch, false, "SPEC",
        "deterministic fault injection (docs/robustness.md)"),
    row<[](auto& o) -> auto& { return o.dispatch.resume; }>(
        "resume", "", K::flag, S::dispatch, false, "",
        "adopt verified shards a failed dispatch checkpointed"),
    row<[](auto& o) -> auto& { return o.dispatch.command; }>(
        "command", "", K::text, S::dispatch, false, "TEMPLATE",
        "launch template: {self} {args} {shard} {out}"),
    row<[](auto& o) -> auto& { return o.dispatch.dir; }>(
        "dir", "", K::text, S::dispatch, false, "D",
        "directory for the shard files"),
    row<[](auto& o) -> auto& { return o.dispatch.keep_shards; }>(
        "keep-shards", "", K::flag, S::dispatch, false, "",
        "keep the shard files and the manifest"),
    row<[](auto& o) -> auto& { return o.manifest; }>(
        "manifest", "", K::text, S::merge, false, "FILE",
        "merge the hash-verified shards a dispatch manifest names"),
    row<[](auto& o) -> auto& { return o.wait_s; }>(
        "wait-s", "", K::seconds, S::merge, false, "T",
        "--manifest: wait up to T seconds for a full set"),
    row<[](auto& o) -> auto& { return o.diff.tolerance; }>(
        "tol", "", K::seconds, S::diff, false, "T",
        "relative work/effectiveness tolerance (default 0.05)"),
    row<[](auto& o) -> auto& { return o.diff.dist_test; }>(
        "dist-test", "", K::flag, S::diff, false, "",
        "also rank-test per-replica distributions (MW + KS)"),
};

const char* const kSections[] = {
    "job knobs (run/sweep/submit/dispatch; also key=value on a job line)",
    "run/sweep/serve/batch/dispatch",
    "serve/submit",
    "dispatch",
    "merge",
    "diff",
};

}  // namespace

std::span<const option_spec> option_table() { return kOptions; }

const option_spec* find_option(std::string_view cli) {
  for (const option_spec& o : kOptions) {
    if (o.cli == cli) return &o;
  }
  return nullptr;
}

const option_spec* find_key(std::string_view key) {
  for (const option_spec& o : kOptions) {
    if (!o.key.empty() && o.key == key) return &o;
  }
  return nullptr;
}

std::string bad_value(std::string_view name, std::string_view value,
                      value_kind kind) {
  std::string why =
      "bad " + std::string(name) + "= value '" + std::string(value) + "'";
  switch (kind) {
    case K::seconds: return why + " (want a finite number >= 0)";
    case K::shard: return why + " (want i/k with 0 <= i < k)";
    case K::format: return why + " (want json or colfmt)";
    default: return why;
  }
}

bool parse_cli(int argc, const char* const* argv, int first, cli_options& out,
               std::string& error) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      out.names.emplace_back(arg);
      continue;
    }
    const usize eq = arg.find('=');
    const bool has_value = eq != std::string_view::npos;
    const option_spec* o = arg.rfind("--", 0) == 0
                               ? find_option(arg.substr(2, eq - 2))
                               : nullptr;
    // A flag takes no value and a valued option needs one.
    if (o == nullptr || (o->kind == K::flag) == has_value) {
      error = "unknown option '" + std::string(arg) + "'";
      return false;
    }
    const std::string_view value = has_value ? arg.substr(eq + 1) : "";
    if (!o->set(out, o->kind, value)) {
      error = bad_value(o->cli, value, o->kind);
      return false;
    }
  }
  return true;
}

job cli_job(const cli_options& opt) {
  job j = opt.knobs;
  j.scenarios = opt.names;
  return j;
}

std::string child_args(const cli_options& opt) {
  std::string args = "sweep";
  for (const std::string& name : opt.names) args += " " + name;
  std::string value;
  for (const option_spec& o : kOptions) {
    if (!o.forward || !o.get(opt, o.kind, value)) continue;
    args += " --";
    args += o.cli;
    if (o.kind != K::flag) args += "=" + value;
  }
  return args + " --quiet";
}

std::string help_row(std::string left, std::string_view help) {
  left.resize(std::max<usize>(left.size() + 1, 28), ' ');
  std::string out = "  " + left;
  while (help.size() > 49 && help.rfind(' ', 49) != std::string_view::npos) {
    const usize cut = help.rfind(' ', 49);
    out.append(help.substr(0, cut)).append("\n").append(30, ' ');
    help.remove_prefix(cut + 1);
  }
  out.append(help) += '\n';
  return out;
}

std::string options_help() {
  std::string out;
  for (usize s = 0; s < std::size(kSections); ++s) {
    out += std::string("\noptions, ") + kSections[s] + ":\n";
    for (const option_spec& o : kOptions) {
      if (static_cast<usize>(o.group) != s) continue;
      std::string left("--");
      left += o.cli;
      if (o.kind != K::flag) (left += '=') += o.metavar;
      out += help_row(std::move(left), o.help);
    }
  }
  return out;
}

}  // namespace amo::svc
