// svc::dispatcher — one command in, k supervised shard processes out, one
// merged output back.
//
// Each shard command (`--shard=i/k`) runs fork/exec'd into its OWN process
// group under a wall-clock deadline: on expiry the group gets SIGTERM,
// then SIGKILL after a grace period, and the attempt counts as a hard
// failure, so a hung shard consumes a retry instead of blocking the
// dispatch. Abnormal termination is decoded by signal name.
//
// Every shard output is VALIDATED before it counts, on its launcher thread
// as soon as the child exits: the file is read once, and a source over
// its bytes told what the shard owes (exp::shard_owed) checks the slice
// and hashes them. A torn or corrupted artifact is a retryable failure
// with a precise diagnostic. Each byte is checked once: one pass computes
// a .amoc shard's chunk checksums and its content hash together and
// checks its blocks, keeping their block index (exp::colfmt_blocks, a few
// bytes per column block). The parent keeps the verified bytes (~2.8 MB
// per 8,192-unit .amoc shard) and that index, never decoded records, and
// merges them through exp::merge_stream — the fold `merge --manifest` and
// `amo_lab merge` use — reading each value in place, with no second
// checksum pass and no second decode. Completed shards are checkpointed in a manifest (args
// fingerprint + content hash per shard file); `dispatch --resume` adopts
// an entry only through the same source, told its hash too, and
// relaunches the rest; because the partition and every unit are
// deterministic, the resumed merge is byte-identical to a fault-free
// one-shot sweep.
//
// Deterministic fault injection (`--inject=SPEC`, svc::fault) drives all
// of the above reproducibly: the dispatcher resolves the plan per
// (shard, attempt) and hands each child its concrete action via AMO_FAULT.
//
// The launch template is the pluggable part: the default
//
//   {self} {args} --shard={shard} --out={out}
//
// runs local subprocesses; ssh or a k8s pod is a config string, not new
// code. Placeholders: {self} = this binary, {args} = the job arguments,
// {shard} = i/k, {out} = the shard's output file.
#pragma once

#include <string>
#include <vector>

#include "exp/colfmt.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/shard.hpp"

namespace amo::svc {

struct dispatch_options {
  usize shards = 2;        ///< k >= 1
  std::string self;        ///< {self}: path to the amo_lab binary
  std::string command =
      "{self} {args} --shard={shard} --out={out}";  ///< launch template
  std::string dir = ".";   ///< where shard files are written
  std::string out;         ///< merged output path; "" = caller keeps records
  bool keep_shards = false;///< leave the per-shard files behind
  bool quiet = false;      ///< suppress per-shard progress on stderr
  /// Re-launch a hard-failed shard (timeout, signal, exit > 1, unlaunchable,
  /// or unusable output) up to this many extra times before aborting the
  /// dispatch. The partition is deterministic, so only the failed slice
  /// reruns — the point of resumable multi-host sweeps. Exit 1 (a safety
  /// violation the child *reported*) is a result, not an infrastructure
  /// failure: never retried.
  usize retries = 0;
  /// Wall-clock deadline per shard attempt, seconds; 0 = none. On expiry
  /// the shard's process group gets SIGTERM, then SIGKILL after
  /// `term_grace_s`, and the attempt counts as a hard failure.
  double deadline_s = 0.0;
  double term_grace_s = 2.0;  ///< SIGTERM-to-SIGKILL escalation window
  /// Fault-injection plan (svc::fault spec grammar), resolved per
  /// (shard, attempt) and handed to each child via AMO_FAULT. Empty = no
  /// injection. A malformed spec fails the dispatch up front (exit 2).
  std::string inject;
  /// Adopt completed shards from the manifest `dispatch` left behind on a
  /// previous failure: entries whose args fingerprint, file content hash,
  /// and shard-slice integrity all verify are not relaunched.
  bool resume = false;
  /// Manifest path; "" = "<dir>/dispatch-manifest.json".
  std::string manifest;
  /// On-disk format for the shard files and the merged output. colfmt
  /// shard artifacts (".amoc" extension, which the children infer their
  /// output format from) are smaller and let a later `merge` stream them
  /// in bounded memory; validation, checkpointing, retries, and the
  /// byte-identity of the merged records are format-independent.
  exp::record_format format = exp::record_format::json;
  /// Telemetry fan-out: each child also gets `--trace-out=<shard
  /// file>.trace.json`, and every shard that ran this dispatch has its
  /// trace attached to the active obs session for export-time stitching
  /// into the parent's timeline (child i becomes pid i+1). Child trace
  /// files follow keep_shards. No effect on the record outputs.
  bool trace = false;
};

/// One launched shard subprocess.
struct shard_run {
  exp::shard_ref shard;
  std::string file;        ///< the shard's --out file
  std::string command;     ///< the expanded command line
  std::string trace_file;  ///< child trace shard (dispatch_options::trace)
  int exit_code = -1;   ///< decoded exit status (-1: could not launch)
  int term_signal = 0;  ///< nonzero: the signal that killed the child
  bool timed_out = false;   ///< the deadline expired and the group was killed
  bool reused = false;      ///< resume: output adopted from the manifest
  bool validated = false;   ///< output met its slice (and checkpoint hash)
  usize attempts = 0;   ///< launches, 1 + retries actually consumed
  std::string output;   ///< captured stdout+stderr (last attempt)
  std::string status;   ///< human decode: "exit 7", "signal 11 (SIGSEGV)",
                        ///< "deadline (10s) expired; killed", "reused"
  std::string detail;   ///< output-validation diagnostic (last attempt)
  std::uint64_t content_fnv64 = 0;  ///< FNV-1a of the validated file bytes
  /// The validated file bytes, kept until the merge has read them; the
  /// parent holds no decoded records of a shard.
  std::string bytes;
  /// What validation learned of a .amoc shard's chunks, through which the
  /// merge reads `bytes` in place (empty for JSON).
  exp::colfmt_blocks blocks;
};

struct dispatch_result {
  std::vector<shard_run> shards;
  std::vector<exp::record> merged;  ///< merged records (also on error: empty)
  std::string error;                ///< empty on success
  usize reused = 0;                 ///< shards adopted from the manifest
  /// amo_lab convention: 0 clean; 1 = a shard reported a safety violation
  /// (exit 1) but everything merged; 2 = launch/merge hard failure;
  /// 3 = shard output unreadable/corrupt or merged output unwritable.
  int exit_code = 0;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Expands the launch template for one shard (exposed for tests).
[[nodiscard]] std::string expand_command(const std::string& tmpl,
                                         const std::string& self,
                                         const std::string& args,
                                         const exp::shard_ref& shard,
                                         const std::string& out_file);

/// The human spelling of a signal number ("SIGSEGV"; "SIG#42" for ones
/// without a name here) — exposed for the dispatcher's shard diagnostics
/// and their tests.
[[nodiscard]] std::string signal_name(int sig);

/// Launches `opt.shards` supervised subprocesses for `args` (e.g. "sweep
/// --n=1024 --no-timing --quiet"), waits (within deadlines) for all,
/// validates and merges their shard files.
dispatch_result dispatch(const std::string& args, const dispatch_options& opt);

/// Streaming FNV-1a-64 of a file's bytes (fixed-size read buffer); false
/// with `error` ("cannot ...") on I/O failure. No dispatch route calls it
/// (a shard's source hashes what it reads); bench/e2e times it.
bool fnv64_file(const char* path, std::uint64_t& hash, std::string& error);

/// Merges shard files straight from a dispatch manifest (the checkpoint
/// `dispatch --keep-shards` / a failed dispatch leaves behind) — no
/// relaunch, no in-memory shard vectors: each checkpointed file is read
/// once by a source that owes the entry's slice and hash, and folded
/// through exp::merge_stream. Polls the manifest (~0.2 s) until one
/// consistent (shards, args fingerprint) set has checkpointed all k
/// shards, so a merge can sit downstream of a dispatch still in flight;
/// gives up after `wait_s` seconds (0 = one immediate attempt), with
/// merge_result::unreadable set when the manifest itself could not be read.
exp::merge_result merge_from_manifest(const std::string& manifest_file,
                                      double wait_s, bool quiet);

}  // namespace amo::svc
