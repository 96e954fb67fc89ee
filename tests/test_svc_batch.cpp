// Batch/serve determinism — the service acceptance criterion: a batch
// file of mixed scenarios produces per-job JSON byte-identical to running
// each job standalone, at pool sizes 1, 2 and hardware_concurrency; the
// serve loop produces the same bytes as the batch runner, at any window
// (pool size) and in submission order; and the severity-keyed exit codes
// hold.
//
// The standalone oracle below is built from exp:: primitives only
// (scenario expansion -> serial sweep -> cell_record_rows, or per-unit
// exp::run -> unit_record_rows for sharded jobs), NOT from
// svc::execute_job — so it pins what `amo_lab run` emits rather than
// whatever the service happens to do.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/colfmt.hpp"
#include "exp/engine.hpp"
#include "exp/record.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "svc/job.hpp"
#include "svc/job_queue.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"

namespace amo {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "svc_batch_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The mixed-scenario batch the acceptance criterion names. Jobs carry
/// no-timing so identical executions dump identical bytes; replica counts
/// are mixed so both the aggregate and the per-unit record paths are
/// pinned.
std::vector<svc::job> mixed_jobs(const std::string& tag) {
  svc::job a;
  a.scenarios = {"kk/round_robin", "kk/random"};
  a.params.n = 128;
  a.params.m = 3;
  a.params.seeds = 2;
  a.params.replicas = 3;  // aggregate records fold 3 replicas per cell
  a.no_timing = true;
  a.out = temp_path(tag + "_a.json");

  svc::job b;  // sharded job: unit slice 1 of 2 of its own replica grid
  b.scenarios = {"iterative/round_robin", "baseline/tas"};
  b.params.n = 96;
  b.params.m = 2;
  b.params.seeds = 1;
  b.params.replicas = 2;  // shards split replicas of one cell
  b.no_timing = true;
  b.have_shard = true;
  b.shard = {1, 2};
  b.out = temp_path(tag + "_b.json");

  svc::job c;  // write-all family + scheduled-only filter
  c.scenarios = {"baseline/wa_trivial", "threads/kk"};
  c.params.n = 64;
  c.params.m = 2;
  c.params.seeds = 1;
  c.no_timing = true;
  c.scheduled_only = true;
  c.out = temp_path(tag + "_c.json");

  return {a, b, c};
}

/// What `amo_lab run <scenarios> [--shard] --no-timing --out=F` writes,
/// rebuilt from first principles: aggregate cell records for a whole-grid
/// job, per-unit records for a sharded one, each unit executed by a
/// direct exp::run of its replica spec.
std::string standalone_json(const svc::job& j) {
  std::vector<exp::run_spec> all;
  for (const std::string& name : j.scenarios) {
    const std::vector<exp::run_spec> c = exp::scenario_cells(name, j.params);
    all.insert(all.end(), c.begin(), c.end());
  }
  if (j.scheduled_only) {
    std::erase_if(all, [](const exp::run_spec& s) {
      return s.driver != exp::driver_kind::scheduled;
    });
  }
  exp::json_writer json;
  if (j.have_shard) {
    const std::vector<exp::unit_ref> units = exp::shard_units(all, j.shard);
    std::vector<exp::run_report> reports;
    reports.reserve(units.size());
    for (const exp::unit_ref& u : units) {
      reports.push_back(exp::run(exp::replica_spec(all[u.cell], u.replica)));
    }
    exp::unit_record_rows(reports, units, exp::unit_count(all),
                          all.size(), exp::grid_fingerprint(all),
                          exp::json_rows(json),
                          !j.no_timing);
  } else {
    exp::sweep_options serial;
    serial.pool_size = 1;
    const exp::sweep_result swept = exp::sweep(all, serial);
    exp::cell_record_rows(swept, exp::grid_fingerprint(all),
                          exp::json_rows(json),
                          !j.no_timing);
  }
  return json.dump();
}

TEST(SvcBatch, ByteIdenticalToStandaloneAtPoolSizes1_2_Hw) {
  for (const usize pool_size : {usize{1}, usize{2}, usize{0}}) {
    const std::string tag = "pool" + std::to_string(pool_size);
    const std::vector<svc::job> jobs = mixed_jobs(tag);

    svc::worker_pool pool(pool_size);
    svc::server_options opt;
    opt.quiet = true;
    const svc::serve_summary sum = svc::run_jobs(jobs, pool, opt);
    EXPECT_EQ(sum.exit_code(), 0) << tag;
    EXPECT_EQ(sum.jobs, jobs.size());

    for (const svc::job& j : jobs) {
      const std::string got = slurp(j.out);
      ASSERT_FALSE(got.empty()) << j.out;
      EXPECT_EQ(got, standalone_json(j)) << j.out;
      std::remove(j.out.c_str());
    }
  }
}

TEST(SvcBatch, ServeProducesTheSameBytesAsBatch) {
  const std::vector<svc::job> jobs = mixed_jobs("serve");
  std::string lines;
  for (const svc::job& j : jobs) lines += svc::to_line(j) + "\n";
  lines += "# trailing comment\n";
  lines += "this-is-not-a-scenario n=4\n";  // rejected, not fatal

  std::istringstream in(lines);
  svc::worker_pool pool(2);
  svc::server_options opt;
  opt.quiet = true;
  const svc::serve_summary sum = svc::serve(in, pool, opt);
  EXPECT_EQ(sum.jobs, jobs.size());
  EXPECT_EQ(sum.rejected, 1u);
  EXPECT_EQ(sum.failed, 0u);
  EXPECT_EQ(sum.exit_code(), 2);  // a malformed submission is reported

  for (const svc::job& j : jobs) {
    const std::string got = slurp(j.out);
    ASSERT_FALSE(got.empty()) << j.out;
    EXPECT_EQ(got, standalone_json(j)) << j.out;
    std::remove(j.out.c_str());
  }
}

TEST(SvcBatch, StreamedJobsConcatenateOnTheSink) {
  // A job without out= streams its document to the server's sink.
  svc::job j;
  j.scenarios = {"kk/round_robin"};
  j.params.n = 64;
  j.params.m = 2;
  j.params.seeds = 1;
  j.no_timing = true;

  const std::string sink_path = temp_path("sink.json");
  std::FILE* sink = std::fopen(sink_path.c_str(), "w+");
  ASSERT_NE(sink, nullptr);
  svc::worker_pool pool(1);
  svc::server_options opt;
  opt.quiet = true;
  opt.stream = sink;
  const svc::serve_summary sum = svc::run_jobs({j, j}, pool, opt);
  std::fclose(sink);
  EXPECT_EQ(sum.exit_code(), 0);
  const std::string doc = standalone_json(j);
  EXPECT_EQ(slurp(sink_path), doc + doc);
  std::remove(sink_path.c_str());
}

TEST(SvcBatch, DuplicateOutPathsAreRejectedAtRuntime) {
  svc::job j;
  j.scenarios = {"kk/round_robin"};
  j.params.n = 64;
  j.params.m = 2;
  j.params.seeds = 1;
  j.no_timing = true;
  j.out = temp_path("dup.json");

  svc::worker_pool pool(1);
  svc::server_options opt;
  opt.quiet = true;
  const svc::serve_summary sum = svc::run_jobs({j, j}, pool, opt);
  EXPECT_EQ(sum.jobs, 2u);
  EXPECT_EQ(sum.failed, 1u);
  EXPECT_EQ(sum.exit_code(), 2);
  std::remove(j.out.c_str());
}

TEST(SvcBatch, UnwritableOutIsAnIoError) {
  svc::job j;
  j.scenarios = {"kk/round_robin"};
  j.params.n = 64;
  j.params.m = 2;
  j.params.seeds = 1;
  j.out = temp_path("no_such_dir/x.json");

  svc::worker_pool pool(1);
  svc::server_options opt;
  opt.quiet = true;
  const svc::serve_summary sum = svc::run_jobs({j}, pool, opt);
  EXPECT_EQ(sum.io_errors, 1u);
  EXPECT_EQ(sum.exit_code(), 3);
}

TEST(SvcBatch, ExecuteJobReportsExpansionErrors) {
  svc::worker_pool pool(1);
  svc::job j;
  j.scenarios = {"kk/round_robin"};
  j.params.n = 64;
  j.params.m = 2;
  j.scheduled_only = true;
  // threads/kk alone + scheduled-only leaves nothing.
  svc::job empty = j;
  empty.scenarios = {"threads/kk"};
  const svc::job_result r = svc::execute_job(empty, pool);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, "no cells to run");
}

TEST(SvcBatch, ColfmtOutputEqualsTheEncodedJsonDocument) {
  // render_output(colfmt) writes the typed rows straight into column
  // blocks; encoding the parsed render_json document is the oracle, for
  // every registered scheduled scenario. Timing runs add the wall-clock
  // doubles (wall_seconds, job_wall_seconds, job_queue_seconds) whose
  // tokens must survive the direct route too. The decode side must give
  // back exactly the records parse_records reads from render_json, and
  // each decoded field's encoding must spell its token.
  std::vector<std::string> scenarios;
  for (const exp::scenario& sc : exp::scenario_registry()) {
    scenarios.push_back(sc.name);
  }
  svc::worker_pool pool(2);
  for (const bool sharded : {false, true}) {
    for (const bool no_timing : {true, false}) {
      svc::job j;
      j.scenarios = scenarios;
      j.params.n = 24;
      j.params.m = 3;
      j.params.seeds = 1;
      j.params.replicas = 2;
      j.scheduled_only = true;  // the os_threads cells are not reproducible
      j.no_timing = no_timing;
      j.have_shard = sharded;
      if (sharded) j.shard = {1, 3};
      const std::string tag = std::string(sharded ? "shard 1/3" : "aggregate") +
                              (no_timing ? ", no timing" : ", timing");

      svc::job_result r = svc::execute_job(j, pool);
      ASSERT_TRUE(r.ok()) << tag << ": " << r.error;
      r.queue_seconds = 1.0 / 3.0;
      const exp::parse_result parsed = exp::parse_records(r.render_json());
      ASSERT_TRUE(parsed.ok()) << tag << ": " << parsed.error;
      std::string want;
      std::string error;
      ASSERT_TRUE(exp::colfmt_encode(parsed.records, want, error))
          << tag << ": " << error;

      std::string got;
      ASSERT_TRUE(r.render_output(exp::record_format::colfmt, got, error))
          << tag << ": " << error;
      EXPECT_EQ(got, want) << tag;
      EXPECT_EQ(r.sharded, sharded) << tag;

      const exp::parse_result decoded = exp::colfmt_decode(got);
      ASSERT_TRUE(decoded.ok()) << tag << ": " << decoded.error;
      ASSERT_EQ(decoded.records.size(), parsed.records.size()) << tag;
      for (usize i = 0; i < parsed.records.size(); ++i) {
        const std::vector<exp::record_field>& a = decoded.records[i].fields;
        const std::vector<exp::record_field>& b = parsed.records[i].fields;
        ASSERT_EQ(a.size(), b.size()) << tag << " record " << i;
        for (usize k = 0; k < a.size(); ++k) {
          const std::string at = tag + " record " + std::to_string(i) +
                                 " field '" + b[k].key + "'";
          EXPECT_EQ(a[k].key, b[k].key) << at;
          EXPECT_EQ(a[k].type, b[k].type) << at;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a[k].number),
                    std::bit_cast<std::uint64_t>(b[k].number))
              << at;
          EXPECT_EQ(a[k].truth, b[k].truth) << at;
          EXPECT_EQ(a[k].text, b[k].text) << at;
          EXPECT_EQ(exp::token_of(a[k]), exp::token_of(b[k])) << at;
          // The report layer writes only json_writer tokens, so every
          // column gets a typed block, and its encoding spells the token.
          EXPECT_NE(a[k].encoding, exp::value_encoding::unknown) << at;
          EXPECT_EQ(b[k].encoding, exp::value_encoding::unknown) << at;
          exp::value_view typed = exp::view_of(a[k]);
          typed.raw = {};
          std::string spelled;
          exp::append_token(spelled, typed);
          EXPECT_EQ(spelled, exp::token_of(b[k])) << at;
        }
      }
    }
  }
}

/// A mixed session of 18 jobs for the in-order window: streamed and out=
/// jobs, JSON and .amoc files, aggregate and sharded grids, one job that
/// reuses an earlier out= path, and one whose expansion leaves no cells.
/// `tag` keeps each run's files apart.
std::vector<svc::job> window_session(const std::string& tag) {
  const char* scenarios[] = {"kk/random",        "kk/round_robin",
                             "iterative/random+crash", "wa/random+crash",
                             "baseline/tas",     "kk/announce_crash"};
  std::vector<svc::job> jobs;
  for (usize i = 0; i < 18; ++i) {
    svc::job j;
    j.scenarios = {scenarios[i % 6]};
    if (i % 5 == 2) j.scenarios.push_back(scenarios[(i + 3) % 6]);
    j.params.n = 48 + 16 * (i % 4);
    j.params.m = 2 + i % 2;
    j.params.seeds = 1 + i % 3;
    j.params.replicas = 1 + i % 4;
    j.params.seed = 11 + i;
    j.no_timing = true;
    if (i % 7 == 3) {
      j.have_shard = true;
      j.shard = {i % 2, 2};
    }
    if (i % 3 != 0) {
      j.out = temp_path(tag + "_w" + std::to_string(i) +
                        (i % 3 == 1 ? ".json" : ".amoc"));
    }
    jobs.push_back(std::move(j));
  }
  jobs[10].out = jobs[4].out;  // taken: the second claim fails
  jobs[13].scenarios = {"threads/kk"};
  jobs[13].scheduled_only = true;  // expands to no cells
  for (usize i = 0; i < jobs.size(); ++i) jobs[i].line = i + 1;
  return jobs;
}

struct session_outcome {
  svc::serve_summary sum;
  std::string stream;
  std::vector<std::string> files;  ///< by job; "" = none written
  std::vector<usize> finished;     ///< job numbers of the log's job lines
};

session_outcome run_window_session(usize pool_size, bool serve) {
  const std::string tag = (serve ? "serve" : "batch") +
                          std::to_string(pool_size);
  const std::vector<svc::job> jobs = window_session(tag);
  const std::string stream_path = temp_path(tag + "_stream.json");
  const std::string log_path = temp_path(tag + "_log.txt");
  std::FILE* stream = std::fopen(stream_path.c_str(), "w");
  std::FILE* log = std::fopen(log_path.c_str(), "w");
  EXPECT_NE(stream, nullptr);
  EXPECT_NE(log, nullptr);
  svc::server_options opt;
  opt.stream = stream;
  opt.log = log;
  svc::worker_pool pool(pool_size);
  session_outcome out;
  if (serve) {
    std::string lines;
    for (const svc::job& j : jobs) lines += svc::to_line(j) + "\n";
    std::istringstream in(lines);
    out.sum = svc::serve(in, pool, opt);
  } else {
    out.sum = svc::run_jobs(jobs, pool, opt);
  }
  std::fclose(stream);
  std::fclose(log);
  out.stream = slurp(stream_path);
  std::istringstream logged(slurp(log_path));
  for (std::string line; std::getline(logged, line);) {
    if (line.rfind("job @", 0) == 0) {
      out.finished.push_back(std::stoul(line.substr(5)));
    }
  }
  for (const svc::job& j : jobs) {
    out.files.push_back(j.out.empty() ? "" : slurp(j.out));
  }
  for (const svc::job& j : jobs) {
    if (!j.out.empty()) std::remove(j.out.c_str());
  }
  std::remove(stream_path.c_str());
  std::remove(log_path.c_str());
  return out;
}

TEST(SvcWindow, ServeAndBatchAgreeAtEveryPoolSizeInSubmissionOrder) {
  const session_outcome want = run_window_session(1, /*serve=*/true);
  EXPECT_EQ(want.sum.jobs, 18u);
  EXPECT_EQ(want.sum.failed, 2u);  // the taken out= path, the empty grid
  EXPECT_EQ(want.sum.rejected, 0u);
  EXPECT_EQ(want.sum.io_errors, 0u);
  EXPECT_EQ(want.sum.exit_code(), 2);
  std::vector<usize> in_order(18);
  for (usize i = 0; i < in_order.size(); ++i) in_order[i] = i + 1;
  EXPECT_EQ(want.finished, in_order);
  EXPECT_FALSE(want.stream.empty());
  EXPECT_EQ(want.files[4], want.files[10]);  // the first claim's bytes
  for (usize i = 0; i < want.files.size(); ++i) {
    if (i % 3 != 0 && i != 13) {
      EXPECT_FALSE(want.files[i].empty()) << i;
    }
  }

  for (const bool serve : {true, false}) {
    for (const usize pool_size : {usize{1}, usize{2}, usize{4}}) {
      const std::string at = std::string(serve ? "serve" : "run_jobs") +
                             " at pool " + std::to_string(pool_size);
      const session_outcome got = run_window_session(pool_size, serve);
      EXPECT_EQ(got.stream, want.stream) << at;
      EXPECT_EQ(got.files, want.files) << at;
      EXPECT_EQ(got.finished, want.finished) << at;
      EXPECT_EQ(got.sum.jobs, want.sum.jobs) << at;
      EXPECT_EQ(got.sum.rejected, want.sum.rejected) << at;
      EXPECT_EQ(got.sum.failed, want.sum.failed) << at;
      EXPECT_EQ(got.sum.timeouts, want.sum.timeouts) << at;
      EXPECT_EQ(got.sum.unsafe, want.sum.unsafe) << at;
      EXPECT_EQ(got.sum.io_errors, want.sum.io_errors) << at;
    }
  }
}

/// Wall seconds of one serial unit of kk/random at size n.
double kk_unit_seconds(usize n) {
  svc::job j;
  j.scenarios = {"kk/random"};
  j.params.n = n;
  j.params.m = 3;
  j.params.seeds = 1;
  j.no_timing = true;
  svc::worker_pool pool(1);
  const auto t0 = std::chrono::steady_clock::now();
  const svc::job_result r = svc::execute_job(j, pool);
  EXPECT_TRUE(r.ok()) << r.error;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(SvcWindow, StallCancelsOnlyTheStalledJobOfTwoInFlight) {
  // Job 1's units are long enough for the watchdog to see its counter
  // stand still; job 2, in flight beside it, is small. Only job 1's batch
  // is cancelled, and job 2 still writes its bytes.
  usize n = usize{1} << 16;
  double unit_s = kk_unit_seconds(n);
  while (unit_s < 0.05 && n < (usize{1} << 20)) {
    n <<= 2;
    unit_s = kk_unit_seconds(n);
  }
  if (unit_s < 0.02) {
    GTEST_SKIP() << "host runs a " << n << "-job unit in " << unit_s
                 << "s; too fast to exercise the stall window";
  }
  svc::job slow;
  slow.scenarios = {"kk/random"};
  slow.params.n = n;
  slow.params.m = 3;
  slow.params.seeds = 3;  // three single-replica cells: three pool tasks
  slow.no_timing = true;
  slow.out = temp_path("stall_slow.json");
  svc::job quick;
  quick.scenarios = {"kk/round_robin"};
  quick.params.n = 64;
  quick.params.m = 2;
  quick.params.seeds = 2;
  quick.no_timing = true;
  quick.out = temp_path("stall_quick.json");

  std::istringstream in(svc::to_line(slow) + "\n" + svc::to_line(quick) + "\n");
  svc::worker_pool pool(2);
  svc::server_options opt;
  opt.quiet = false;
  opt.stall_s = std::min(0.2, std::max(0.01, unit_s / 4));
  opt.json_heartbeat = true;
  const std::string log_path = temp_path("stall_window_log.txt");
  std::FILE* log = std::fopen(log_path.c_str(), "w");
  ASSERT_NE(log, nullptr);
  opt.log = log;
  const svc::serve_summary sum = svc::serve(in, pool, opt);
  std::fclose(log);

  EXPECT_EQ(sum.jobs, 2u);
  EXPECT_EQ(sum.failed, 1u);
  EXPECT_EQ(sum.timeouts, 1u);
  EXPECT_FALSE(std::ifstream(slow.out).good());  // never a partial sweep
  quick.line = 2;
  EXPECT_EQ(slurp(quick.out), standalone_json(quick));
  const std::string logged = slurp(log_path);
  std::istringstream lines(logged);
  usize cancels = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"action\":\"cancel\"") == std::string::npos) continue;
    ++cancels;
    EXPECT_NE(line.find("\"job\":\"job @1 "), std::string::npos) << line;
  }
  EXPECT_GE(cancels, 1u) << logged;
  EXPECT_NE(logged.find("job @1 kk/random: TIMEOUT"), std::string::npos)
      << logged;
  EXPECT_NE(logged.find("job @2 kk/round_robin: 2/2 units"),
            std::string::npos)
      << logged;
  std::remove(quick.out.c_str());
  std::remove(log_path.c_str());
}

TEST(SvcJobQueue, CloseDrainsBeforeReportingEmpty) {
  svc::job_queue q;
  svc::job j;
  j.scenarios = {"kk/round_robin"};
  EXPECT_TRUE(q.push(j));
  EXPECT_TRUE(q.push(j));
  q.close();
  EXPECT_FALSE(q.push(j));  // closed: dropped
  svc::job out;
  EXPECT_TRUE(q.pop(out));
  EXPECT_TRUE(q.pop(out));
  EXPECT_FALSE(q.pop(out));
  EXPECT_EQ(q.pushed(), 2u);
}

}  // namespace
}  // namespace amo
