// The shard dispatcher: template expansion, failure classification,
// process supervision (deadlines, signal decode), output validation,
// checkpoint/resume — and, when the amo_lab binary is next to the test
// (ctest runs in the build directory), a real end-to-end dispatch whose
// merged output must be byte-identical to the one-shot sweep, including
// under injected faults.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/colfmt.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_read.hpp"
#include "svc/dispatcher.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"
#include "util/fileio.hpp"
#include "util/fnv.hpp"

namespace amo {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The printf command, for a single-quoted sh -c script, that writes a
/// one-unit shard file: unit and cell %s of a grid of `units` one-replica
/// cells, with every field the merge fold reads. Takes the index twice.
std::string unit_printf(const std::string& units,
                        const std::string& at_most_once) {
  return R"(printf '\''[\n  {"unit": %s, "units_total": )" + units +
         R"(, "cell": %s, "cells_total": )" + units +
         R"(, "replica": 0, "replicas": 1, "grid": "g", "effectiveness": 1, )"
         R"("work": 1, "collisions": 0, "steps": 1, "at_most_once": )" +
         at_most_once +
         R"(, "quiescent": true, "wa_complete": false}\n]\n'\'')";
}

bool have_amo_lab() {
  std::FILE* f = std::fopen("./amo_lab", "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

TEST(SvcDispatch, ExpandCommandSubstitutesEveryPlaceholder) {
  const std::string cmd = svc::expand_command(
      "ssh host '{self} {args} --shard={shard} --out={out}' # {shard}",
      "/opt/amo_lab", "sweep --n=64", {1, 3}, "/tmp/s1.json");
  EXPECT_EQ(cmd, "ssh host '/opt/amo_lab sweep --n=64 --shard=1/3 "
                 "--out=/tmp/s1.json' # 1/3");
}

TEST(SvcDispatch, ZeroShardsIsAUsageError) {
  svc::dispatch_options opt;
  opt.shards = 0;
  const svc::dispatch_result r = svc::dispatch("sweep", opt);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 2);
}

TEST(SvcDispatch, HardShardFailureIsClassified) {
  svc::dispatch_options opt;
  opt.shards = 2;
  opt.command = "exit 7";  // the template is the whole shell command
  opt.quiet = true;
  const svc::dispatch_result r = svc::dispatch("", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 2);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.shards[0].exit_code, 7);
  EXPECT_NE(r.error.find("exit 7"), std::string::npos) << r.error;
}

TEST(SvcDispatch, RetriesRelaunchOnlyTheFailedShard) {
  // Shard commands fail on their first attempt (a marker file flips the
  // second attempt to success), so --retries=1 must re-launch each failed
  // shard exactly once and the dispatch must then proceed past the launch
  // stage. Each attempt writes a one-cell record file, so the retried
  // dispatch merges cleanly end to end.
  const std::string dir = ::testing::TempDir();
  const std::string marker = dir + "/retry_marker";
  std::remove((marker + "_0").c_str());
  std::remove((marker + "_1").c_str());

  svc::dispatch_options opt;
  opt.shards = 2;
  opt.dir = dir;
  opt.quiet = true;
  opt.retries = 1;
  opt.command =
      "sh -c 's={shard}; i=${s%%/*}; f=" + marker + "_$i; "
      "if [ ! -e \"$f\" ]; then : > \"$f\"; exit 7; fi; " +
      unit_printf("2", "true") + " \"$i\" \"$i\" > {out}'";

  const svc::dispatch_result r = svc::dispatch("", opt);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.exit_code, 0);
  ASSERT_EQ(r.shards.size(), 2u);
  for (const svc::shard_run& run : r.shards) {
    EXPECT_EQ(run.exit_code, 0) << run.command;
    EXPECT_EQ(run.attempts, 2u) << run.command;
  }
  ASSERT_EQ(r.merged.size(), 2u);
  std::remove((marker + "_0").c_str());
  std::remove((marker + "_1").c_str());
}

TEST(SvcDispatch, RetriesExhaustOnAPersistentFailure) {
  svc::dispatch_options opt;
  opt.shards = 2;
  opt.command = "exit 7";
  opt.quiet = true;
  opt.retries = 2;
  const svc::dispatch_result r = svc::dispatch("", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 2);
  for (const svc::shard_run& run : r.shards) {
    EXPECT_EQ(run.attempts, 3u);  // 1 launch + 2 retries
    EXPECT_EQ(run.exit_code, 7);
  }
}

TEST(SvcDispatch, SafetyViolationExitIsNeverRetried) {
  // Exit 1 is a *reported result* (an at-most-once violation), not an
  // infrastructure failure: retrying would rerun a deterministic violation
  // and mask the report. The shard file must still merge.
  const std::string dir = ::testing::TempDir();
  svc::dispatch_options opt;
  opt.shards = 1;
  opt.dir = dir;
  opt.quiet = true;
  opt.retries = 5;
  opt.command =
      "sh -c '" + unit_printf("1", "false") + " 0 0 > {out}; exit 1'";
  const svc::dispatch_result r = svc::dispatch("", opt);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.exit_code, 1);
  ASSERT_EQ(r.shards.size(), 1u);
  EXPECT_EQ(r.shards[0].attempts, 1u);
}

TEST(SvcDispatch, MissingShardOutputIsAnIoError) {
  svc::dispatch_options opt;
  opt.shards = 2;
  opt.command = "true";  // exits 0 but writes no {out} file
  opt.dir = ::testing::TempDir();
  opt.quiet = true;
  const svc::dispatch_result r = svc::dispatch("", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 3);
}

TEST(SvcDispatch, HungShardIsKilledAtTheDeadline) {
  // A shard that never finishes must not block the dispatch past the
  // deadline: the whole process group is SIGTERMed, and the death is
  // reported as a timeout, not a mystery signal.
  svc::dispatch_options opt;
  opt.shards = 1;
  opt.command = "sleep 600";
  opt.quiet = true;
  opt.deadline_s = 1.0;
  opt.term_grace_s = 0.5;
  const auto t0 = std::chrono::steady_clock::now();
  const svc::dispatch_result r = svc::dispatch("", opt);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 2);
  ASSERT_EQ(r.shards.size(), 1u);
  const svc::shard_run& run = r.shards[0];
  EXPECT_TRUE(run.timed_out);
  EXPECT_NE(run.status.find("deadline (1s) expired"), std::string::npos)
      << run.status;
  EXPECT_NE(run.status.find("SIGTERM"), std::string::npos) << run.status;
  EXPECT_EQ(run.exit_code, 128 + SIGTERM);
  EXPECT_LT(wall, 30.0) << "deadline did not bound the dispatch";
}

TEST(SvcDispatch, SignalDeathIsDecodedByName) {
  // WIFSIGNALED is not WIFEXITED: a SIGKILLed shard must surface the
  // signal by name, not masquerade as some exit code.
  svc::dispatch_options opt;
  opt.shards = 1;
  opt.command = "kill -9 $$";
  opt.quiet = true;
  const svc::dispatch_result r = svc::dispatch("", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 2);
  ASSERT_EQ(r.shards.size(), 1u);
  EXPECT_EQ(r.shards[0].exit_code, 128 + SIGKILL);
  EXPECT_EQ(r.shards[0].term_signal, SIGKILL);
  EXPECT_NE(r.shards[0].status.find("signal 9 (SIGKILL)"), std::string::npos)
      << r.shards[0].status;
}

TEST(SvcDispatch, ResumeAdoptsValidatedShardsFromTheManifest) {
  // First dispatch: shard 0 succeeds, shard 1 fails hard — the manifest
  // checkpoints shard 0. Resume: shard 0 is adopted without relaunching
  // (its command would exit 7 if run again — the marker file proves it
  // wasn't), shard 1 alone is relaunched and now succeeds.
  const std::string dir = ::testing::TempDir();
  const std::string marker = dir + "/resume_marker";
  const std::string go = dir + "/resume_go";
  std::remove((marker + "_0").c_str());
  std::remove((marker + "_1").c_str());
  std::remove(go.c_str());

  svc::dispatch_options opt;
  opt.shards = 2;
  opt.dir = dir;
  opt.quiet = true;
  opt.command =
      "sh -c 's={shard}; i=${s%%/*}; f=" + marker + "_$i; "
      "if [ \"$i\" = 0 ] && [ -e \"$f\" ]; then exit 7; fi; : > \"$f\"; "
      "if [ \"$i\" = 1 ] && [ ! -e " + go + " ]; then exit 9; fi; " +
      unit_printf("2", "true") + " \"$i\" \"$i\" > {out}'";

  const svc::dispatch_result first = svc::dispatch("", opt);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.exit_code, 2);
  EXPECT_NE(first.error.find("--resume"), std::string::npos) << first.error;

  std::ofstream(go) << "";  // shard 1 passes from now on
  opt.resume = true;
  const svc::dispatch_result second = svc::dispatch("", opt);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_EQ(second.reused, 1u);
  ASSERT_EQ(second.shards.size(), 2u);
  EXPECT_TRUE(second.shards[0].reused);
  EXPECT_EQ(second.shards[0].attempts, 0u);
  EXPECT_NE(second.shards[0].status.find("reused from manifest"),
            std::string::npos)
      << second.shards[0].status;
  EXPECT_FALSE(second.shards[1].reused);
  EXPECT_EQ(second.shards[1].attempts, 1u);
  ASSERT_EQ(second.merged.size(), 2u);

  // Success cleans the checkpoint up: the manifest is gone.
  std::FILE* m = std::fopen((dir + "/dispatch-manifest.json").c_str(), "rb");
  EXPECT_EQ(m, nullptr) << "manifest should be removed after success";
  if (m != nullptr) std::fclose(m);
  std::remove((marker + "_0").c_str());
  std::remove((marker + "_1").c_str());
  std::remove(go.c_str());
}

TEST(SvcDispatch, CapturesSubprocessOutput) {
  svc::dispatch_options opt;
  opt.shards = 1;
  opt.command = "echo shard {shard} speaking; exit 9";
  opt.quiet = true;
  const svc::dispatch_result r = svc::dispatch("", opt);
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.shards.size(), 1u);
  EXPECT_NE(r.shards[0].output.find("shard 0/1 speaking"), std::string::npos);
}

/// An empty directory of its own under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Computes the k .amoc shards of a small replicated sweep in-process and
/// writes shard i/k to <dir>/prep-i/k.amoc, so the returned launch
/// template delivers each shard with `cp` — no amo_lab binary needed.
std::string prepared_amoc_shards(const std::string& dir, usize k) {
  svc::job j;
  j.scenarios = {"kk/round_robin", "kk/random"};
  j.params.n = 24;
  j.params.m = 3;
  j.params.seeds = 2;
  j.params.replicas = 2;
  j.scheduled_only = true;
  j.no_timing = true;
  j.have_shard = true;
  svc::worker_pool pool(2);
  for (usize i = 0; i < k; ++i) {
    j.shard = {i, k};
    const svc::job_result r = svc::execute_job(j, pool);
    EXPECT_TRUE(r.ok()) << r.error;
    std::string bytes;
    std::string error;
    EXPECT_TRUE(r.render_output(exp::record_format::colfmt, bytes, error))
        << error;
    const std::string sub = dir + "/prep-" + std::to_string(i);
    std::filesystem::create_directories(sub);
    EXPECT_TRUE(write_file((sub + "/" + std::to_string(k) + ".amoc").c_str(),
                           bytes, error))
        << error;
  }
  return "cp '" + dir + "/prep-{shard}.amoc' '{out}'";
}

/// A 3-shard .amoc dispatch of the prepared shards that keeps its shard
/// files and manifest in `dir`.
svc::dispatch_result kept_amoc_dispatch(const std::string& dir) {
  svc::dispatch_options opt;
  opt.shards = 3;
  opt.dir = dir;
  opt.quiet = true;
  opt.keep_shards = true;
  opt.format = exp::record_format::colfmt;
  opt.command = prepared_amoc_shards(dir, 3);
  return svc::dispatch("", opt);
}

/// `shard` (.amoc bytes) with its first unit's "work" raised by one: a
/// valid shard of the same slice and grid whose bytes, and whose merged
/// aggregate, differ.
std::string edited_shard(const std::string& shard) {
  exp::parse_result parsed = exp::colfmt_decode(shard);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  std::string error;
  bool edited = false;
  for (exp::record_field& f : parsed.records.at(0).fields) {
    if (f.key != "work") continue;
    const std::string token =
        std::to_string(static_cast<std::uint64_t>(f.number) + 1);
    EXPECT_TRUE(exp::parse_value_token(token, f, error)) << error;
    edited = true;
  }
  EXPECT_TRUE(edited);
  std::string bytes;
  EXPECT_TRUE(exp::colfmt_encode(parsed.records, bytes, error)) << error;
  return bytes;
}

TEST(SvcDispatch, ManifestMergeReproducesTheKeptAmocDispatch) {
  const std::string dir = fresh_dir("manifest_merge");
  const svc::dispatch_result d = kept_amoc_dispatch(dir);
  ASSERT_TRUE(d.ok()) << d.error;
  ASSERT_FALSE(d.merged.empty());
  const exp::merge_result m =
      svc::merge_from_manifest(dir + "/dispatch-manifest.json", 0, true);
  ASSERT_TRUE(m.ok()) << m.error;
  EXPECT_EQ(exp::render_records(m.records), exp::render_records(d.merged));
}

TEST(SvcDispatch, AmocDispatchChecksAndDecodesEachShardChunkOnce) {
  // The parent checks each .amoc shard chunk once, on its launcher thread:
  // checksum, content hash and blocks in one pass. The merge then reads the
  // verified image through the block index that pass kept, so no chunk is
  // read a second time (each read is one merge/chunks_read sample).
  const std::string dir = fresh_dir("chunks_once");
  svc::dispatch_options opt;
  opt.shards = 3;
  opt.dir = dir;
  opt.quiet = true;
  opt.keep_shards = true;
  opt.format = exp::record_format::colfmt;
  opt.command = prepared_amoc_shards(dir, 3);
  obs::session s;
  ASSERT_TRUE(s.installed());
  const svc::dispatch_result d = svc::dispatch("", opt);
  ASSERT_TRUE(d.ok()) << d.error;
  const obs::trace_parse_result parsed =
      obs::parse_trace(obs::export_json(s.sink()));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  usize reads = 0;
  for (const obs::trace_event& e : parsed.events) {
    reads += e.ph == 'C' && e.cat == "merge" && e.name == "chunks_read";
  }
  usize chunks = 0;
  for (const svc::shard_run& run : d.shards) {
    exp::colfmt_reader reader;
    std::string error;
    ASSERT_TRUE(reader.open(std::fopen(run.file.c_str(), "rb"), {}, false,
                            error))
        << error;
    chunks += reader.header().chunk_count;
  }
  EXPECT_GT(chunks, 3u);
  EXPECT_EQ(reads, chunks);
}

TEST(SvcDispatch, ManifestMergeRefusesAShardReplacedAfterTheDispatch) {
  // The replacement is a valid shard of the same slice and grid, so only
  // the checkpoint hash can tell; the merge returns no records at all.
  const std::string dir = fresh_dir("manifest_replaced");
  const svc::dispatch_result d = kept_amoc_dispatch(dir);
  ASSERT_TRUE(d.ok()) << d.error;
  const std::string shard = d.shards[1].file;
  std::string error;
  ASSERT_TRUE(write_file(shard.c_str(), edited_shard(slurp(shard)), error))
      << error;
  const exp::merge_result m =
      svc::merge_from_manifest(dir + "/dispatch-manifest.json", 0, true);
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.error.find(shard + ": content hash "), std::string::npos)
      << m.error;
  EXPECT_NE(m.error.find("disagrees with the manifest checkpoint " +
                         fnv_hex64(d.shards[1].content_fnv64)),
            std::string::npos)
      << m.error;
  EXPECT_TRUE(m.records.empty());
}

TEST(SvcDispatch, ManifestMergeReportsADamagedShardAsACheckpointMismatch) {
  // A flipped byte, a cut tail or a trailing byte stops the decoder
  // before the end. The source still hashes the whole file and reports
  // the checkpoint mismatch, not the decoder's offset (amo_lab merge
  // exits 2 on the one, 3 on the other).
  const std::string dir = fresh_dir("manifest_damaged");
  const svc::dispatch_result d = kept_amoc_dispatch(dir);
  ASSERT_TRUE(d.ok()) << d.error;
  const std::string shard = d.shards[1].file;
  const std::string original = slurp(shard);
  std::string flipped = original;
  flipped[original.size() / 2] ^= 0x40;
  for (const std::string& bytes :
       {flipped, original.substr(0, original.size() - 5), original + "x"}) {
    std::string error;
    ASSERT_TRUE(write_file(shard.c_str(), bytes, error)) << error;
    const exp::merge_result m =
        svc::merge_from_manifest(dir + "/dispatch-manifest.json", 0, true);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.error, shard + ": content hash " + fnv_hex64(fnv1a64(bytes)) +
                           " disagrees with the manifest checkpoint " +
                           fnv_hex64(d.shards[1].content_fnv64) +
                           " (file changed since the dispatch validated it)");
    EXPECT_TRUE(m.records.empty());
  }
}

TEST(SvcDispatch, ManifestMergeFoldsTheBytesItHashed) {
  // Shard 1 is served through a FIFO. Its writer streams the checkpointed
  // bytes, then renames a different valid shard over the FIFO's path
  // before closing the write end. A merge that hashed the FIFO and then
  // reopened the path would fold the swapped-in file; this one must fold
  // exactly the bytes it hashed. Every wait is bounded.
  const std::string dir = fresh_dir("manifest_fifo");
  const svc::dispatch_result d = kept_amoc_dispatch(dir);
  ASSERT_TRUE(d.ok()) << d.error;
  const std::string shard = d.shards[1].file;
  const std::string original = slurp(shard);
  const std::string swapped = dir + "/swapped.amoc";
  std::string error;
  ASSERT_TRUE(write_file(swapped.c_str(), edited_shard(original), error))
      << error;
  ASSERT_EQ(std::remove(shard.c_str()), 0);
  ASSERT_EQ(::mkfifo(shard.c_str(), 0600), 0) << std::strerror(errno);

  const auto old_pipe = std::signal(SIGPIPE, SIG_IGN);  // EPIPE instead
  std::thread writer([&] {
    using clock = std::chrono::steady_clock;
    const auto give_up = clock::now() + std::chrono::seconds(10);
    // Non-blocking, the open fails (ENXIO) until the merge is reading.
    int fd = -1;
    while ((fd = ::open(shard.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
           clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd < 0) {
      // Release a reader that raced into open(), and leave the path to
      // fail any later one.
      const int rw = ::open(shard.c_str(), O_RDWR | O_NONBLOCK);
      ::unlink(shard.c_str());
      if (rw >= 0) ::close(rw);
      return;
    }
    for (usize off = 0; off < original.size() && clock::now() < give_up;) {
      struct pollfd p = {fd, POLLOUT, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      const ssize_t n =
          ::write(fd, original.data() + off, original.size() - off);
      if (n < 0 && errno != EAGAIN) break;  // the reader is gone
      if (n > 0) off += static_cast<usize>(n);
    }
    ::rename(swapped.c_str(), shard.c_str());
    ::close(fd);
  });
  const exp::merge_result m =
      svc::merge_from_manifest(dir + "/dispatch-manifest.json", 0, true);
  writer.join();
  std::signal(SIGPIPE, old_pipe);
  ASSERT_TRUE(m.ok()) << m.error;
  EXPECT_EQ(exp::render_records(m.records), exp::render_records(d.merged));
}

/// The exit code of `./amo_lab merge <args>`, or -1 when it did not exit.
int amo_lab_merge(const std::string& args) {
  const int status =
      std::system(("./amo_lab merge " + args + " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SvcDispatch, MergeExitCodeFollowsTheErrorKind) {
  // Exit 2 for a shard set the merge refuses, 3 for a shard it cannot
  // read, whatever the error text says: here every path spells ": line ",
  // which reads like a parse error's position.
  if (!have_amo_lab()) {
    GTEST_SKIP() << "no ./amo_lab in the working directory";
  }
  const std::string dir = fresh_dir("exit: line 7");
  const svc::dispatch_result d = kept_amoc_dispatch(dir);
  ASSERT_TRUE(d.ok()) << d.error;
  const std::string shard0 = "'" + d.shards[0].file + "'";
  const std::string shard1 = d.shards[1].file;
  std::string error;
  ASSERT_TRUE(write_file(shard1.c_str(), edited_shard(slurp(shard1)), error))
      << error;
  EXPECT_EQ(amo_lab_merge("'--manifest=" + dir + "/dispatch-manifest.json' " +
                          "'--out=" + dir + "/merged.json'"),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir + "/merged.json"));
  EXPECT_EQ(amo_lab_merge(shard0 + " " + shard0), 2);  // a duplicate unit

  const std::string original = slurp(d.shards[0].file);
  const std::string cut = dir + "/cut.amoc";
  ASSERT_TRUE(write_file(cut.c_str(), original.substr(0, original.size() / 2),
                         error))
      << error;
  EXPECT_EQ(amo_lab_merge("'" + cut + "'"), 3);
  EXPECT_EQ(amo_lab_merge("'" + dir + "/missing.amoc'"), 3);
}

TEST(SvcDispatch, UnwritableManifestIsReportedAndNotPromised) {
  // Shard 1 crashes (the shell honours the injected fault) and no retry
  // is left. With the manifest under a missing directory the failure is
  // reported on stderr, and the error no longer claims a checkpoint;
  // with a writable manifest the claim stands.
  const std::string dir = fresh_dir("manifest_unwritable");
  svc::dispatch_options opt;
  opt.shards = 3;
  opt.dir = dir;
  opt.quiet = true;
  opt.format = exp::record_format::colfmt;
  opt.inject = "crash@1";
  opt.command = "sh -c '[ -z \"$AMO_FAULT\" ] || kill -9 $$; " +
                prepared_amoc_shards(dir, 3) + "'";
  opt.manifest = dir + "/missing/manifest.json";
  ::testing::internal::CaptureStderr();
  const svc::dispatch_result lost = svc::dispatch("", opt);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.exit_code, 2);
  EXPECT_NE(lost.error.find("shard 1/3 failed"), std::string::npos)
      << lost.error;
  EXPECT_EQ(lost.error.find("checkpointed"), std::string::npos) << lost.error;
  EXPECT_EQ(lost.error.find("--resume"), std::string::npos) << lost.error;
  EXPECT_NE(err.find("dispatch: no checkpoint: cannot open " + opt.manifest),
            std::string::npos)
      << err;

  opt.manifest = dir + "/manifest.json";
  const svc::dispatch_result kept = svc::dispatch("", opt);
  ASSERT_FALSE(kept.ok());
  EXPECT_NE(kept.error.find("completed shards are checkpointed in " +
                            opt.manifest + " (relaunch with --resume)"),
            std::string::npos)
      << kept.error;
}

/// Dispatches a replicated sweep over `shards` real ./amo_lab children and
/// checks the merged output against the one-shot sweep byte for byte: its
/// render_json for JSON, its colfmt encoding for .amoc. `inject` and
/// `retries` pass through to the dispatcher; `attempts` holds the expected
/// launches per shard (empty = 1 each).
void expect_dispatch_matches_one_shot(
    usize shards, exp::record_format format = exp::record_format::json,
    const std::string& inject = "", usize retries = 0,
    const std::vector<usize>& attempts = {}, bool trace = false) {
  const bool amoc = format == exp::record_format::colfmt;
  const std::string dir = ::testing::TempDir();
  const std::string merged_path = dir + "/dispatch_merged_" +
                                  std::to_string(shards) +
                                  (amoc ? ".amoc" : ".json");

  svc::dispatch_options opt;
  opt.shards = shards;
  opt.self = "./amo_lab";
  opt.dir = dir;
  opt.out = merged_path;
  opt.quiet = true;
  opt.format = format;
  opt.inject = inject;
  opt.retries = retries;
  opt.trace = trace;
  // --replicas=3: the shards split at (cell, replica) granularity and the
  // merge re-folds the units into the one-shot aggregate records.
  const std::string args =
      "sweep kk/round_robin kk/random baseline/tas iterative/round_robin"
      " --n=96 --m=3 --beta=0 --eps=2 --seed=1 --seeds=2 --replicas=3"
      " --pool=2 --scheduled-only --no-timing --quiet";
  const svc::dispatch_result r = svc::dispatch(args, opt);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.exit_code, 0);
  ASSERT_EQ(r.shards.size(), shards);
  for (usize i = 0; i < shards; ++i) {
    const usize want = attempts.empty() ? 1 : attempts[i];
    EXPECT_EQ(r.shards[i].attempts, want) << "shard " << i;
  }

  // The one-shot reference, through the same job structure the CLI uses.
  svc::job j;
  j.scenarios = {"kk/round_robin", "kk/random", "baseline/tas",
                 "iterative/round_robin"};
  j.params.n = 96;
  j.params.m = 3;
  j.params.seeds = 2;
  j.params.replicas = 3;
  j.scheduled_only = true;
  j.no_timing = true;
  svc::worker_pool pool(2);
  const svc::job_result one_shot = svc::execute_job(j, pool);
  ASSERT_TRUE(one_shot.ok()) << one_shot.error;
  std::string want;
  std::string error;
  ASSERT_TRUE(one_shot.render_output(format, want, error)) << error;

  const std::string merged = slurp(merged_path);
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged, want);
  std::remove(merged_path.c_str());

  // The per-shard files were cleaned up (keep_shards defaults off).
  for (const svc::shard_run& run : r.shards) {
    std::FILE* f = std::fopen(run.file.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << run.file << " should have been removed";
    if (f != nullptr) std::fclose(f);
  }
}

TEST(SvcDispatch, EndToEndMatchesTheOneShotSweepByteForByte) {
  if (!have_amo_lab()) {
    GTEST_SKIP() << "no ./amo_lab in the working directory";
  }
  expect_dispatch_matches_one_shot(3);
}

TEST(SvcDispatch, OneShardDispatchMatchesTheOneShotSweep) {
  // A lone 0/1 shard owns the whole grid; it still writes unit records,
  // which the dispatcher verifies and the merge re-folds.
  if (!have_amo_lab()) {
    GTEST_SKIP() << "no ./amo_lab in the working directory";
  }
  expect_dispatch_matches_one_shot(1);
}

TEST(SvcDispatch, AmocDispatchRetriesACorruptShardAndMatchesTheOneShotSweep) {
  // Shard 1's first artifact has its final byte flipped: its launcher
  // thread rejects it, the next wave reruns that shard alone, and the
  // merged .amoc equals the one-shot sweep's encoding.
  if (!have_amo_lab()) {
    GTEST_SKIP() << "no ./amo_lab in the working directory";
  }
  expect_dispatch_matches_one_shot(3, exp::record_format::colfmt, "corrupt@1",
                                  /*retries=*/1, /*attempts=*/{1, 2, 1});
}

TEST(SvcDispatch, TracedAmocDispatchNamesTheRecordLayerAndKeepsItsBytes) {
  // With a session installed and child traces stitched in, the merged
  // bytes still equal the untraced one-shot sweep's, and the timeline
  // names the record layer on both sides: each child's record/render
  // and the parent's record/decode inside dispatch/verify.
  if (!have_amo_lab()) {
    GTEST_SKIP() << "no ./amo_lab in the working directory";
  }
  obs::session s;
  ASSERT_TRUE(s.installed());
  expect_dispatch_matches_one_shot(3, exp::record_format::colfmt, "", 0, {},
                                   /*trace=*/true);
  const obs::trace_parse_result parsed =
      obs::parse_trace(obs::export_json(s.sink()));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::set<int> render_pids;
  usize decodes = 0;
  for (const obs::trace_event& e : parsed.events) {
    if (e.ph != 'X' || e.cat != "record") continue;
    if (e.name == "render") render_pids.insert(e.pid);
    if (e.name == "decode" && e.pid == 0) ++decodes;
  }
  render_pids.erase(0);  // the one-shot reference rendered in-process
  EXPECT_EQ(render_pids, (std::set<int>{1, 2, 3}));
  EXPECT_EQ(decodes, 3u);
}

}  // namespace
}  // namespace amo
