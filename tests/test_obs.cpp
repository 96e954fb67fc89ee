// The telemetry layer's contract tests: export/parse round-trip, ring
// overflow accounting, concurrent emission from pool workers (the TSan CI
// leg runs this file), the house invariant (record output byte-identical
// with tracing on or off), child-trace stitching, the stats fold, the pool
// cancellation fence behind the serve stall watchdog, and the shared
// timing-key table the diff/merge layers dedupe through.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <initializer_list>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/colfmt.hpp"
#include "exp/diff.hpp"
#include "exp/record.hpp"
#include "exp/timing_keys.hpp"
#include "obs/stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_read.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"

namespace amo {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "obs_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

const obs::trace_event* find_event(const std::vector<obs::trace_event>& events,
                                   char ph, const std::string& cat) {
  for (const obs::trace_event& e : events) {
    if (e.ph == ph && e.cat == cat) return &e;
  }
  return nullptr;
}

TEST(ObsExport, RoundTripsThroughTheTraceReader) {
  obs::session s(64);
  ASSERT_TRUE(s.installed());
  {
    obs::span sp("cat", "work");
    sp.arg("text", std::string_view("quote\" slash\\ tab\t"));
    sp.arg("n", std::uint64_t{42});
    sp.arg("x", 1.5);
  }
  obs::counter("cat", "gauge", 3.25);
  obs::instant("cat", "mark", {{"k", "v"}});

  obs::export_options eopt;
  eopt.process_name = "unit test";
  const std::string doc = obs::export_json(s.sink(), eopt);
  const obs::trace_parse_result parsed = obs::parse_trace(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.dropped, 0u);

  const obs::trace_event* span = find_event(parsed.events, 'X', "cat");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->name, "work");
  EXPECT_GE(span->dur_us, 0.0);
  ASSERT_EQ(span->args.size(), 3u);
  EXPECT_EQ(span->args[0],
            (std::pair<std::string, std::string>{"text",
                                                 "quote\" slash\\ tab\t"}));
  EXPECT_EQ(span->args[1], (std::pair<std::string, std::string>{"n", "42"}));
  EXPECT_EQ(span->args[2], (std::pair<std::string, std::string>{"x", "1.5"}));

  const obs::trace_event* counter = find_event(parsed.events, 'C', "cat");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->name, "gauge");
  ASSERT_TRUE(counter->has_value);
  EXPECT_EQ(counter->counter_value, 3.25);

  const obs::trace_event* instant = find_event(parsed.events, 'i', "cat");
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(instant->name, "mark");
  ASSERT_EQ(instant->args.size(), 1u);
  EXPECT_EQ(instant->args[0], (std::pair<std::string, std::string>{"k", "v"}));

  // The process_name metadata the exporter wrote round-trips too.
  bool saw_process_name = false;
  for (const obs::trace_event& e : parsed.events) {
    if (e.ph == 'M' && e.name == "process_name") saw_process_name = true;
  }
  EXPECT_TRUE(saw_process_name);
}

TEST(ObsExport, RingOverflowKeepsTheNewestAndCountsDrops) {
  obs::session s(8);
  ASSERT_TRUE(s.installed());
  for (int i = 0; i < 20; ++i) {
    obs::counter("ring", "tick", static_cast<double>(i));
  }
  EXPECT_EQ(s.sink().dropped(), 12u);
  const obs::trace_parse_result parsed =
      obs::parse_trace(obs::export_json(s.sink()));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.dropped, 12u);
  ASSERT_EQ(parsed.events.size(), 8u);
  // Flight-recorder semantics: the newest 8 survive, oldest -> newest.
  for (usize i = 0; i < 8; ++i) {
    EXPECT_EQ(parsed.events[i].counter_value, static_cast<double>(12 + i)) << i;
  }
}

TEST(ObsExport, ConcurrentEmissionFromPoolWorkersIsAccountedExactly) {
  obs::session s;
  ASSERT_TRUE(s.installed());
  svc::worker_pool pool(4);
  constexpr usize kTasks = 200;
  pool.run_indexed(kTasks, [](usize i) {
    obs::span sp("test", "task");
    sp.arg("i", static_cast<std::uint64_t>(i));
    obs::counter("test", "tick", 1.0);
  });
  const obs::trace_parse_result parsed =
      obs::parse_trace(obs::export_json(s.sink()));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  usize spans = 0;
  usize counters = 0;
  for (const obs::trace_event& e : parsed.events) {
    if (e.cat != "test") continue;
    spans += e.ph == 'X';
    counters += e.ph == 'C';
  }
  EXPECT_EQ(spans, kTasks);
  EXPECT_EQ(counters, kTasks);
  // The pool's own instrumentation rode along on the same session.
  EXPECT_NE(find_event(parsed.events, 'X', "pool"), nullptr);
}

svc::job obs_job(bool sharded) {
  svc::job j;
  j.scenarios = {"kk/round_robin", "kk/random"};
  j.params.n = 96;
  j.params.m = 3;
  j.params.seeds = 2;
  j.params.replicas = 2;
  j.no_timing = true;
  if (sharded) {
    j.have_shard = true;
    j.shard = {0, 2};
  }
  return j;
}

TEST(ObsInvariant, RecordOutputIsByteIdenticalWithTracingOnOrOff) {
  for (const bool sharded : {false, true}) {
    svc::worker_pool pool(3);
    const svc::job j = obs_job(sharded);
    const svc::job_result off = svc::execute_job(j, pool);
    ASSERT_TRUE(off.ok()) << off.error;
    std::string traced;
    std::string traced_amoc;
    std::string error;
    {
      obs::session s;
      ASSERT_TRUE(s.installed());
      const svc::job_result on = svc::execute_job(j, pool);
      ASSERT_TRUE(on.ok()) << on.error;
      traced = on.render_json();
      ASSERT_TRUE(on.render_output(exp::record_format::colfmt, traced_amoc,
                                   error))
          << error;
      // The trace itself is non-trivial: the job, sweep and record layers
      // emitted.
      const obs::trace_parse_result parsed =
          obs::parse_trace(obs::export_json(s.sink()));
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      EXPECT_NE(find_event(parsed.events, 'X', "svc"), nullptr);
      EXPECT_NE(find_event(parsed.events, 'X', "sweep"), nullptr);
      const obs::trace_event* render = find_event(parsed.events, 'X', "record");
      ASSERT_NE(render, nullptr);
      EXPECT_EQ(render->name, "render");
    }
    EXPECT_EQ(off.render_json(), traced)
        << (sharded ? "sharded" : "unsharded");
    std::string amoc;
    ASSERT_TRUE(off.render_output(exp::record_format::colfmt, amoc, error))
        << error;
    EXPECT_EQ(amoc, traced_amoc) << (sharded ? "sharded" : "unsharded");
  }
}

TEST(ObsExport, StitchesChildTraceShardsIntoOneTimeline) {
  const std::string c1 = temp_path("child1.trace.json");
  const std::string c2 = temp_path("child2.trace.json");
  for (int child = 1; child <= 2; ++child) {
    // Child 1 overflows a 2-event ring by 3: its drops fold into the
    // stitched total.
    obs::session s(child == 1 ? 2 : 64);
    ASSERT_TRUE(s.installed());
    for (int i = 0; i < (child == 1 ? 5 : 1); ++i) {
      obs::span sp("child", "work");
      sp.arg("shard", static_cast<std::uint64_t>(child));
    }
    obs::export_options eopt;
    eopt.process_name = "child";
    std::string error;
    ASSERT_TRUE(obs::export_file(s.sink(), (child == 1 ? c1 : c2).c_str(),
                                 eopt, error))
        << error;
  }

  obs::session parent(64);
  ASSERT_TRUE(parent.installed());
  { obs::span sp("parent", "dispatch"); }
  parent.sink().attach_child_trace(c1, "shard 0", /*remove_after_stitch=*/false);
  parent.sink().attach_child_trace(c2, "shard 1", /*remove_after_stitch=*/true);
  obs::export_options eopt;
  eopt.process_name = "parent";
  const std::string stitched = temp_path("stitched.trace.json");
  std::string error;
  ASSERT_TRUE(obs::export_file(parent.sink(), stitched.c_str(), eopt, error))
      << error;

  const obs::trace_parse_result parsed =
      obs::parse_trace_file(stitched.c_str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::set<int> pids;
  std::set<int> child_span_pids;
  for (const obs::trace_event& e : parsed.events) {
    pids.insert(e.pid);
    if (e.ph == 'X' && e.cat == "child") child_span_pids.insert(e.pid);
  }
  EXPECT_EQ(pids, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(child_span_pids, (std::set<int>{1, 2}));
  const obs::trace_summary sum =
      obs::summarize_trace(parsed.events, parsed.dropped);
  EXPECT_EQ(sum.processes, 3u);
  EXPECT_EQ(parsed.dropped, 3u);

  // remove_after_stitch honored per child.
  EXPECT_TRUE(file_exists(c1));
  EXPECT_FALSE(file_exists(c2));
  std::remove(c1.c_str());
  std::remove(stitched.c_str());
}

TEST(ObsStats, FoldsSpansCountersAndInstants) {
  const std::string doc =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"p\"}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"cat\":\"a\",\"name\":\"s\","
      "\"ts\":100.0,\"dur\":10.0},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"cat\":\"a\",\"name\":\"s\","
      "\"ts\":120.0,\"dur\":30.0},\n"
      "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"cat\":\"a\",\"name\":\"c\","
      "\"ts\":1,\"args\":{\"value\":2}},\n"
      "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"cat\":\"a\",\"name\":\"c\","
      "\"ts\":2,\"args\":{\"value\":5}},\n"
      "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"cat\":\"a\",\"name\":\"c\","
      "\"ts\":3,\"args\":{\"value\":4}},\n"
      "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"cat\":\"f\","
      "\"name\":\"inject\",\"ts\":5}\n"
      "],\"otherData\":{\"dropped_events\":7},\"displayTimeUnit\":\"ms\"}\n";
  const obs::trace_parse_result parsed = obs::parse_trace(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const obs::trace_summary sum =
      obs::summarize_trace(parsed.events, parsed.dropped);
  EXPECT_EQ(sum.events, 6u);
  EXPECT_EQ(sum.spans, 2u);
  EXPECT_EQ(sum.instants, 1u);
  EXPECT_EQ(sum.dropped, 7u);
  EXPECT_EQ(sum.wall_us, 50.0);  // span begin 100 .. span end 150

  const obs::stage_stats* spans = nullptr;
  const obs::stage_stats* instants = nullptr;
  for (const obs::stage_stats& st : sum.stages) {
    if (st.cat == "a" && st.name == "s") spans = &st;
    if (st.cat == "f" && st.name == "inject") instants = &st;
  }
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->count, 2u);
  EXPECT_EQ(spans->total_us, 40.0);
  EXPECT_EQ(spans->min_us, 10.0);
  EXPECT_EQ(spans->max_us, 30.0);
  EXPECT_EQ(spans->mean_us, 20.0);
  ASSERT_NE(instants, nullptr);
  EXPECT_EQ(instants->count, 1u);
  EXPECT_EQ(instants->total_us, 0.0);

  ASSERT_EQ(sum.counters.size(), 1u);
  EXPECT_EQ(sum.counters[0].cat, "a");
  EXPECT_EQ(sum.counters[0].name, "c");
  EXPECT_EQ(sum.counters[0].samples, 3u);
  EXPECT_EQ(sum.counters[0].last, 4.0);
  EXPECT_EQ(sum.counters[0].peak, 5.0);

  // Both renderers fold the same summary without tripping over anything.
  EXPECT_NE(obs::render_summary_table(sum).find("a/s"), std::string::npos);
  EXPECT_NE(obs::render_summary_json(sum).find("\"stage\": \"a/s\""),
            std::string::npos);
}

TEST(ObsTraceRead, RejectsMalformedDocumentsWithAPosition) {
  const obs::trace_parse_result bad =
      obs::parse_trace("{\"traceEvents\":[{\"ph\":\"X\",]}");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("at byte"), std::string::npos) << bad.error;
}

bool fails_with_a_position(const obs::trace_parse_result& r) {
  return !r.ok() && r.error.find("at byte") != std::string::npos;
}

// The trace reader shares the record lexer: a non-BMP codepoint decodes to
// the same 4 UTF-8 bytes (not 6 bytes of CESU-8) whether it arrives as a
// surrogate-pair escape or raw, and a broken pair is an error in both.
TEST(ObsTraceRead, StringsDecodeLikeRecords) {
  for (const std::string value :
       {"\"\\ud83d\\ude00\"", "\"\xF0\x9F\x98\x80\""}) {
    const obs::trace_parse_result trace =
        obs::parse_trace("[{\"ph\":\"i\",\"name\":" + value + "}]");
    const exp::parse_result records =
        exp::parse_records("[{\"name\":" + value + "}]");
    ASSERT_TRUE(trace.ok()) << trace.error;
    ASSERT_TRUE(records.ok()) << records.error;
    ASSERT_EQ(trace.events.size(), 1u);
    EXPECT_EQ(trace.events[0].name, "\xF0\x9F\x98\x80");
    EXPECT_EQ(trace.events[0].name, records.records[0].fields[0].text);
  }
  for (const std::string value : {"\"\\ud83d\"", "\"\\ud83dA\""}) {
    const obs::trace_parse_result r =
        obs::parse_trace("[{\"ph\":\"i\",\"name\":" + value + "}]");
    EXPECT_TRUE(fails_with_a_position(r)) << value << ": " << r.error;
    EXPECT_FALSE(exp::parse_records("[{\"name\":" + value + "}]").ok());
  }
  // Numbers too: a leading '+' reads as it does in a record.
  const obs::trace_parse_result plus =
      obs::parse_trace("[{\"ph\":\"X\",\"ts\":+1.5,\"dur\":+2}]");
  ASSERT_TRUE(plus.ok()) << plus.error;
  EXPECT_EQ(plus.events[0].ts_us, 1.5);
  EXPECT_EQ(plus.events[0].dur_us, 2.0);
}

// pid/tid must lie in [0, INT_MAX] and dropped_events in [0, 2^64): a
// foreign trace carrying anything else is malformed, never a float-to-int
// cast with undefined behaviour.
void expect_out_of_range_rejected(const std::string& wrap_open,
                                  const std::string& wrap_close,
                                  std::initializer_list<const char*> values) {
  for (const char* v : values) {
    const obs::trace_parse_result r =
        obs::parse_trace(wrap_open + v + wrap_close);
    EXPECT_TRUE(fails_with_a_position(r)) << v << ": " << r.error;
    EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
  }
}

TEST(ObsTraceRead, RejectsAnOutOfRangePid) {
  expect_out_of_range_rejected("[{\"ph\":\"i\",\"pid\":", "}]",
                               {"1e12", "1e30", "-1", "1e999", "-1e999"});
  EXPECT_EQ(obs::parse_trace("[{\"pid\":2147483647}]").events.at(0).pid,
            2147483647);
}

TEST(ObsTraceRead, RejectsAnOutOfRangeTid) {
  expect_out_of_range_rejected("[{\"ph\":\"i\",\"tid\":", "}]",
                               {"1e12", "1e30", "-1", "1e999", "-1e999"});
  EXPECT_FALSE(obs::parse_trace("[{\"tid\":2147483648}]").ok());
}

TEST(ObsTraceRead, RejectsAnOutOfRangeDroppedCount) {
  expect_out_of_range_rejected(
      "{\"traceEvents\":[],\"otherData\":{\"dropped_events\":", "}}",
      {"2e19", "1e30", "-1", "1e999", "-1e999"});
  const obs::trace_parse_result big = obs::parse_trace(
      "{\"traceEvents\":[],\"otherData\":{\"dropped_events\":1e19}}");
  ASSERT_TRUE(big.ok()) << big.error;
  EXPECT_EQ(big.dropped, 10000000000000000000u);
}

// Skipping a value walks containers with an explicit stack, so nesting
// depth is bounded by memory, not by the call stack.
TEST(ObsTraceRead, DeepNestingUnderAnUnknownKeyDoesNotCrash) {
  constexpr usize kDepth = 100000;
  const std::string open(kDepth, '[');
  const std::string close(kDepth, ']');
  const obs::trace_parse_result balanced = obs::parse_trace(
      "{\"x\":" + open + close + ",\"traceEvents\":[{\"ph\":\"i\"}]}");
  ASSERT_TRUE(balanced.ok()) << balanced.error;
  EXPECT_EQ(balanced.events.size(), 1u);
  EXPECT_TRUE(fails_with_a_position(obs::parse_trace("{\"x\":" + open + "}")));
  EXPECT_TRUE(
      fails_with_a_position(obs::parse_trace("{\"args\":{\"a\":" + open)));
  // The flat record schema still refuses a container outright.
  const exp::parse_result nested =
      exp::parse_records("[{\"a\":" + open + close + "}]");
  EXPECT_FALSE(nested.ok());
  EXPECT_NE(nested.error.find("nested containers"), std::string::npos)
      << nested.error;
}

/// A real exported trace, trailing whitespace trimmed.
std::string exported_trace() {
  obs::session s(64);
  {
    obs::span sp("fuzz", "outer");
    sp.arg("text", std::string_view("esc\"aped\\ \xF0\x9F\x98\x80"));
    sp.arg("n", std::uint64_t{7});
    obs::counter("fuzz", "gauge", -2.5);
    obs::instant("fuzz", "mark", {{"k", "v"}});
  }
  obs::export_options eopt;
  eopt.process_name = "fuzz";
  std::string doc = obs::export_json(s.sink(), eopt);
  while (!doc.empty() && std::isspace(static_cast<unsigned char>(doc.back()))) {
    doc.pop_back();
  }
  return doc;
}

TEST(ObsTraceFuzz, EveryProperPrefixFailsWithAPosition) {
  const std::string doc = exported_trace();
  ASSERT_TRUE(obs::parse_trace(doc).ok());
  for (usize len = 0; len < doc.size(); ++len) {
    const obs::trace_parse_result r = obs::parse_trace(doc.substr(0, len));
    EXPECT_TRUE(fails_with_a_position(r))
        << "prefix of " << len << " bytes: " << r.error;
  }
}

TEST(ObsTraceFuzz, EverySingleByteFlipReturns) {
  const std::string doc = exported_trace();
  usize rejected = 0;
  for (usize i = 0; i < doc.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string bad = doc;
      bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ mask);
      const obs::trace_parse_result r = obs::parse_trace(bad);
      if (!r.ok()) {
        ++rejected;
        EXPECT_NE(r.error.find("at byte"), std::string::npos) << r.error;
        EXPECT_TRUE(r.events.empty());
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

void expect_cancel_stops_batch(usize workers) {
  svc::worker_pool pool(workers);
  std::atomic<usize> done{0};
  std::atomic<bool> go{false};
  std::thread watcher([&] {
    while (!go.load()) std::this_thread::yield();
    pool.cancel();
  });
  bool cancelled = false;
  constexpr usize kTasks = 100;
  try {
    pool.run_indexed(kTasks, [&](usize) {
      done.fetch_add(1);
      go.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
  } catch (const svc::batch_cancelled& e) {
    cancelled = true;
    EXPECT_EQ(e.total, kTasks);
    EXPECT_LT(e.done, kTasks);
    EXPECT_EQ(e.done, done.load());
  }
  watcher.join();
  EXPECT_TRUE(cancelled) << workers << " workers";

  // The fence is per batch: the pool is immediately reusable and a cancel
  // with no batch in flight must not poison the next one.
  pool.cancel();
  std::atomic<usize> after{0};
  pool.run_indexed(50, [&](usize) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50u);
}

TEST(SvcWorkerPoolCancel, StopsAThreadedBatchAndLeavesThePoolUsable) {
  expect_cancel_stops_batch(4);
}

TEST(SvcWorkerPoolCancel, StopsAnInlineSerialBatchToo) {
  expect_cancel_stops_batch(1);
}

/// Wall seconds of one serial unit of kk/random at size n — the stall
/// test's calibration probe.
double unit_seconds(usize n) {
  svc::job j;
  j.scenarios = {"kk/random"};
  j.params.n = n;
  j.params.m = 3;
  j.params.seeds = 1;
  j.no_timing = true;
  svc::worker_pool pool(1);
  const auto t0 = std::chrono::steady_clock::now();
  const svc::job_result r = svc::execute_job(j, pool);
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_TRUE(r.ok()) << r.error;
  return std::chrono::duration<double>(t1 - t0).count();
}

TEST(SvcServe, StallWatchdogCancelsTheBatchAndClassifiesTheTimeout) {
  // Calibrate a unit slow enough that the watchdog can observe a stalled
  // counter mid-unit (cancellation is a between-tasks fence, so the test
  // needs one long unit with more units queued behind it).
  usize n = usize{1} << 16;
  double unit_s = unit_seconds(n);
  while (unit_s < 0.05 && n < (usize{1} << 20)) {
    n <<= 2;
    unit_s = unit_seconds(n);
  }
  if (unit_s < 0.02) {
    GTEST_SKIP() << "host runs a " << n << "-job unit in " << unit_s
                 << "s; too fast to exercise the stall window";
  }
  const double stall_s = std::min(0.2, std::max(0.01, unit_s / 4));

  svc::job j;
  j.scenarios = {"kk/random"};
  j.params.n = n;
  j.params.m = 3;
  // Three single-replica cells, so three pool tasks: units 2 and 3 queue
  // behind the stalling first (one cell's replicas would be one task).
  j.params.seeds = 3;
  j.no_timing = true;
  j.out = temp_path("stall_out.json");

  std::istringstream in(svc::to_line(j) + "\n");
  svc::worker_pool pool(1);
  svc::server_options sopt;
  sopt.quiet = true;
  sopt.stall_s = stall_s;
  sopt.json_heartbeat = true;
  const std::string log_path = temp_path("stall_log.txt");
  std::FILE* log = std::fopen(log_path.c_str(), "w");
  ASSERT_NE(log, nullptr);
  sopt.log = log;
  const svc::serve_summary sum = svc::serve(in, pool, sopt);
  std::fclose(log);

  EXPECT_EQ(sum.jobs, 1u);
  EXPECT_EQ(sum.failed, 1u);
  EXPECT_EQ(sum.timeouts, 1u);
  EXPECT_EQ(sum.exit_code(), 2);
  EXPECT_FALSE(file_exists(j.out));  // a partial sweep never renders

  // The deadline action reported itself as structured JSON on the log.
  const std::string logged = slurp(log_path);
  EXPECT_NE(logged.find("\"action\":\"cancel\""), std::string::npos) << logged;
  EXPECT_NE(logged.find("TIMEOUT"), std::string::npos) << logged;
  std::remove(log_path.c_str());
}

TEST(ExpTimingKeys, EveryTimingKeyIsDiffIgnored) {
  EXPECT_FALSE(exp::timing_keys().empty());
  for (const std::string_view key : exp::timing_keys()) {
    EXPECT_TRUE(exp::is_timing_key(key)) << key;
    EXPECT_EQ(exp::classify_field(key), exp::field_class::ignored) << key;
  }
  EXPECT_FALSE(exp::is_timing_key("effectiveness"));
  EXPECT_EQ(exp::classify_field("telemetry_off_noop"),
            exp::field_class::safety_flag);
}

TEST(ExpTimingKeys, TimingOnlyDriftDiffsClean) {
  const exp::parse_result base = exp::parse_records(
      "[\n{\"scenario\": \"x\", \"effectiveness\": 5, "
      "\"wall_seconds\": 1.5}\n]\n");
  const exp::parse_result cand = exp::parse_records(
      "[\n{\"scenario\": \"x\", \"effectiveness\": 5, "
      "\"wall_seconds\": 9.5, \"telemetry_off_ns_per_probe\": 4.2}\n]\n");
  ASSERT_TRUE(base.ok()) << base.error;
  ASSERT_TRUE(cand.ok()) << cand.error;
  const exp::diff_report report = exp::report_diff(base.records, cand.records);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.severity, exp::diff_severity::clean);
}

}  // namespace
}  // namespace amo
