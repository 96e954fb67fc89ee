// Robustness pass over the text surfaces the service trusts least: the
// flat-JSON record parser (exp::record) fed truncated and bit-flipped
// documents, the batch job parser fed malformed lines, and dispatch
// manifests carrying out-of-range entries. Every input
// must come back as a clean error (or a clean parse) — no crashes, no
// ASan/UBSan findings (the CI sanitize job runs this binary), and the
// severity-keyed exit codes must stay stable.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/colfmt.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "svc/dispatcher.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "util/fileio.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

/// A real record document, including a label that exercises every escape
/// class the writer knows (quote, backslash, control characters).
std::string sample_doc() {
  exp::json_writer json;
  json.add({{"scenario", exp::json_writer::str("fuzz \"quoted\" \\ \n \t \x01")},
            {"cell", exp::json_writer::num(std::uint64_t{0})},
            {"work", exp::json_writer::num(12.5)},
            {"at_most_once", exp::json_writer::boolean(true)},
            {"duplicate", "null"}});
  json.add({{"scenario", exp::json_writer::str("plain")},
            {"cell", exp::json_writer::num(std::uint64_t{1})},
            {"work", exp::json_writer::num(std::uint64_t{42})},
            {"at_most_once", exp::json_writer::boolean(false)}});
  return json.dump();
}

TEST(RecordFuzz, EveryTruncationFailsCleanly) {
  const std::string doc = sample_doc();
  for (usize len = 0; len < doc.size(); ++len) {
    const exp::parse_result r = exp::parse_records(doc.substr(0, len));
    // A strict prefix of a record array is never a complete document —
    // unless all that was cut is trailing whitespace.
    const bool cut_only_ws =
        doc.find_first_not_of(" \t\r\n", len) == std::string::npos;
    EXPECT_EQ(r.ok(), cut_only_ws) << "prefix length " << len;
    if (!r.ok()) {
      EXPECT_FALSE(r.error.empty());
      EXPECT_TRUE(r.records.empty());
    }
  }
  EXPECT_TRUE(exp::parse_records(doc).ok());
}

TEST(RecordFuzz, RandomMutationsNeverCrashAndStayIdempotent) {
  const std::string doc = sample_doc();
  xoshiro256 rng(0xF422u);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string mutated = doc;
    const usize flips = 1 + rng.below(4);
    for (usize f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] =
          static_cast<char>(rng.below(256));
    }
    const exp::parse_result r = exp::parse_records(mutated);
    if (!r.ok()) {
      EXPECT_FALSE(r.error.empty());
      EXPECT_TRUE(r.records.empty());
      continue;
    }
    // A mutation that still parses must round-trip: parse ∘ render is the
    // identity on anything the parser accepts.
    const std::string rendered = exp::render_records(r.records);
    const exp::parse_result again = exp::parse_records(rendered);
    ASSERT_TRUE(again.ok()) << rendered;
    EXPECT_EQ(exp::render_records(again.records), rendered);
  }
}

TEST(RecordFuzz, RandomGarbageNeverCrashes) {
  xoshiro256 rng(0xBADFu);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string garbage;
    const usize len = rng.below(120);
    garbage.reserve(len);
    for (usize i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.below(256));
    }
    const exp::parse_result r = exp::parse_records(garbage);
    if (!r.ok()) {
      EXPECT_TRUE(r.records.empty());
    }
  }
}

/// A well-formed shard file for shard 1/3 of a 7-unit grid (owns units
/// 1 and 4 — the strided partition).
std::string sample_shard_doc() {
  using W = exp::json_writer;
  exp::json_writer json;
  for (const usize unit : {usize{1}, usize{4}}) {
    json.add({{"unit", W::num(std::uint64_t{unit})},
              {"units_total", W::num(std::uint64_t{7})},
              {"cell", W::num(std::uint64_t{unit / 2})},
              {"cells_total", W::num(std::uint64_t{4})},
              {"grid", W::str("abc123")},
              {"effectiveness", W::num(std::uint64_t{10 + unit})}});
  }
  return json.dump();
}

TEST(ShardIntegrityFuzz, TheIntactShardFilePasses) {
  const exp::parse_result parsed = exp::parse_records(sample_shard_doc());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::string error;
  EXPECT_TRUE(exp::verify_shard_records(parsed.records, {1, 3}, error))
      << error;
}

/// The sample shard as .amoc bytes.
std::string sample_shard_amoc() {
  const exp::parse_result parsed = exp::parse_records(sample_shard_doc());
  std::string bytes;
  std::string error;
  EXPECT_TRUE(exp::colfmt_encode(parsed.records, bytes, error)) << error;
  return bytes;
}

TEST(ShardIntegrityFuzz, TruncationAtEveryByteIsCaught) {
  // A shard artifact cut short at ANY byte — what a killed non-atomic
  // writer leaves behind — must be rejected before it reaches a merge:
  // either the parse fails (mid-token cut) or the slice check finds units
  // missing. No truncation point may slip through as a valid shard, in
  // the decoded-records check or in the streaming check over the bytes
  // the dispatcher runs, in either format.
  const std::string doc = sample_shard_doc();
  for (usize len = 0; len < doc.size(); ++len) {
    // Cutting only trailing whitespace leaves a complete document with
    // every record intact — that is not a torn file.
    if (doc.find_first_not_of(" \t\r\n", len) == std::string::npos) continue;
    const std::string torn = doc.substr(0, len);
    std::string error;
    EXPECT_FALSE(exp::verify_shard_bytes(torn, {1, 3}, error))
        << "prefix of " << len << " bytes streamed as a complete shard";
    EXPECT_FALSE(error.empty());
    const exp::parse_result parsed = exp::parse_records(torn);
    if (!parsed.ok()) continue;  // rejected at the parse layer: good
    error.clear();
    EXPECT_FALSE(exp::verify_shard_records(parsed.records, {1, 3}, error))
        << "prefix of " << len << " bytes passed as a complete shard";
    EXPECT_FALSE(error.empty());
  }
  const std::string amoc = sample_shard_amoc();
  std::string error;
  ASSERT_TRUE(exp::verify_shard_bytes(amoc, {1, 3}, error)) << error;
  for (usize len = 0; len < amoc.size(); ++len) {
    error.clear();
    EXPECT_FALSE(exp::verify_shard_bytes(amoc.substr(0, len), {1, 3}, error))
        << "prefix of " << len << " .amoc bytes streamed as a complete shard";
    EXPECT_FALSE(error.empty());
  }
}

/// Sets a numeric field's value and token (what a writer would have put).
void set_number(exp::record& rec, const char* key, const char* token) {
  for (exp::record_field& f : rec.fields) {
    if (f.key != key) continue;
    std::string error;
    ASSERT_TRUE(exp::parse_value_token(token, f, error)) << error;
  }
}

TEST(ShardIntegrityFuzz, StreamingValidationNamesTheSameFailure) {
  // The dispatcher validates a shard by streaming its bytes
  // (verify_shard_bytes). For every violation it must name the same
  // failure, in the same words, as verify_shard_records over the decoded
  // records — in JSON and in .amoc.
  const exp::parse_result parsed = exp::parse_records(sample_shard_doc());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  struct violation {
    const char* name;
    exp::shard_ref ref;
    std::vector<exp::record> records;
  };
  std::vector<violation> cases;
  cases.push_back({"intact", {1, 3}, parsed.records});
  cases.push_back({"wrong slice", {0, 3}, parsed.records});
  cases.push_back({"invalid reference", {3, 3}, parsed.records});
  cases.push_back({"out-of-range index", {1, 3}, parsed.records});
  set_number(cases.back().records[0], "unit", "12");
  cases.push_back({"unit 1e30", {1, 3}, parsed.records});
  set_number(cases.back().records[0], "unit", "1e30");
  cases.push_back({"foreign units_total", {1, 3}, parsed.records});
  set_number(cases.back().records[1], "units_total", "8");
  cases.push_back({"foreign grid", {1, 3}, parsed.records});
  for (exp::record_field& f : cases.back().records[1].fields) {
    if (f.key == "grid") {
      f.text = "zzz999";
      f.raw = "\"zzz999\"";
    }
  }
  cases.push_back({"short count", {1, 3}, parsed.records});
  cases.back().records.pop_back();

  for (const violation& v : cases) {
    SCOPED_TRACE(v.name);
    std::string want;
    const bool ok = exp::verify_shard_records(v.records, v.ref, want);
    EXPECT_EQ(ok, std::string(v.name) == "intact") << want;
    std::string amoc;
    std::string error;
    ASSERT_TRUE(exp::colfmt_encode(v.records, amoc, error)) << error;
    for (const std::string& bytes : {exp::render_records(v.records), amoc}) {
      std::string got;
      EXPECT_EQ(exp::verify_shard_bytes(bytes, {v.ref}, got), ok);
      EXPECT_EQ(got, want);
    }
  }

  // Unreadable bytes: the decoder's own text, in either format.
  const std::string doc = sample_shard_doc();
  const std::string torn = doc.substr(0, doc.size() / 2);
  std::string amoc = sample_shard_amoc();
  amoc[amoc.size() / 2] = static_cast<char>(amoc[amoc.size() / 2] ^ 0x01);
  for (const std::string& bytes : {torn, amoc}) {
    const exp::parse_result decoded = bytes == torn
                                          ? exp::parse_records(bytes)
                                          : exp::colfmt_decode(bytes);
    ASSERT_FALSE(decoded.ok());
    std::string got;
    EXPECT_FALSE(exp::verify_shard_bytes(bytes, {1, 3}, got));
    EXPECT_EQ(got, decoded.error);
  }
}

TEST(ShardIntegrityFuzz, OutOfRangeIndexSpellingsAreRefused) {
  // A one-shard file owes unit 0 first. 1e30, 2^64 and 1e999 (which the
  // lexer clamps to inf) are integral doubles no usize holds; casting them
  // read them as 0, so a record claiming unit 1e30 passed as unit 0.
  // Every spelling must be refused as a non-index, in either field.
  using W = exp::json_writer;
  for (const char* key : {"unit", "units_total"}) {
    for (const char* token : {"1e30", "18446744073709551616", "1e999"}) {
      SCOPED_TRACE(std::string(key) + " = " + token);
      exp::json_writer json;
      json.add({{"unit", std::string(key) == "unit" ? token : "0"},
                {"units_total", std::string(key) == "unit" ? "1" : token},
                {"grid", W::str("abc123")}});
      const std::string doc = json.dump();
      const exp::parse_result parsed = exp::parse_records(doc);
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      std::string error;
      EXPECT_FALSE(exp::verify_shard_records(parsed.records, {0, 1}, error));
      EXPECT_NE(error.find("lacks integer unit/units_total"),
                std::string::npos)
          << error;
      error.clear();
      EXPECT_FALSE(exp::verify_shard_bytes(doc, {0, 1}, error));
      EXPECT_NE(error.find("lacks integer unit/units_total"),
                std::string::npos)
          << error;
    }
  }
}

TEST(ShardIntegrityFuzz, WrongSliceMembersAreNamedPrecisely) {
  const exp::parse_result parsed = exp::parse_records(sample_shard_doc());
  ASSERT_TRUE(parsed.ok());
  std::string error;

  // The right records handed to the wrong shard: every diagnostic carries
  // the shard tag and the offending index.
  EXPECT_FALSE(exp::verify_shard_records(parsed.records, {0, 3}, error));
  EXPECT_NE(error.find("shard 0/3"), std::string::npos) << error;

  // A shard file missing its tail (a whole record dropped, parse intact).
  std::vector<exp::record> short_file = parsed.records;
  short_file.pop_back();
  EXPECT_FALSE(exp::verify_shard_records(short_file, {1, 3}, error));
  EXPECT_NE(error.find("truncated shard file?"), std::string::npos) << error;

  // Records that disagree about their own grid fingerprint.
  std::vector<exp::record> mixed = parsed.records;
  for (exp::record_field& f : mixed[1].fields) {
    if (f.key == "grid") f.text = "zzz999";
  }
  EXPECT_FALSE(exp::verify_shard_records(mixed, {1, 3}, error));
  EXPECT_NE(error.find("corrupted shard file?"), std::string::npos) << error;

  // An index past the declared total.
  std::vector<exp::record> wild = parsed.records;
  for (exp::record_field& f : wild[0].fields) {
    if (f.key == "unit") f.number = 12.0;
  }
  EXPECT_FALSE(exp::verify_shard_records(wild, {1, 3}, error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  // The empty slice is legitimate (a shard can own zero units).
  EXPECT_TRUE(exp::verify_shard_records({}, {1, 3}, error)) << error;
}

TEST(BatchFuzz, MalformedLinesReportTheirLineNumber) {
  const char* bad[] = {
      "not_a_scenario",                        // unknown name
      "kk/round_robin n=abc",                  // bad number
      "kk/round_robin n=99999999999999999999", // u64 overflow
      "kk/round_robin shard=3/2",              // i >= k
      "kk/round_robin shard=x",                // malformed shard
      "kk/round_robin out=",                   // empty path
      "kk/round_robin frobnicate=1",           // unknown key
      "n=128 m=4",                             // options, no scenario
      "kk/round_robin eps=5000000000",         // eps out of range
  };
  for (const char* line : bad) {
    SCOPED_TRACE(line);
    const std::string doc = std::string("# header\n\n") + line + "\n";
    const svc::job_parse_result r = svc::parse_batch(doc);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
    EXPECT_TRUE(r.jobs.empty());
  }
}

TEST(BatchFuzz, RandomLinesNeverCrashTheParser) {
  xoshiro256 rng(0x5EEDu);
  const char alphabet[] =
      " \t=/#abckkmnstz0123456789_-.\r";
  for (int iter = 0; iter < 4000; ++iter) {
    std::string line;
    const usize len = rng.below(60);
    for (usize i = 0; i < len; ++i) {
      line += alphabet[rng.below(sizeof alphabet - 1)];
    }
    svc::job j;
    bool has_job = false;
    std::string error;
    const bool ok = svc::parse_job_line(line, 1, j, has_job, error);
    if (!ok) {
      EXPECT_FALSE(error.empty()) << line;
    }
    if (ok && has_job) {
      EXPECT_FALSE(j.scenarios.empty()) << line;
    }
  }
}

TEST(BatchFuzz, DuplicateOutPathsNameBothLines) {
  const svc::job_parse_result r = svc::parse_batch(
      "kk/round_robin out=x.json\n"
      "# interlude\n"
      "kk/random out=x.json\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("line 1"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("duplicate output path"), std::string::npos);
}

TEST(BatchFuzz, JobLineRoundTripsThroughItsCanonicalForm) {
  svc::job j;
  j.scenarios = {"kk/round_robin", "baseline/tas"};
  j.params.n = 777;
  j.params.m = 5;
  j.params.beta = 11;
  j.params.eps_inv = 3;
  j.params.seed = 42;
  j.params.seeds = 4;
  j.scheduled_only = true;
  j.no_timing = true;
  j.have_shard = true;
  j.shard = {2, 5};
  j.out = "some/dir/file.json";

  svc::job parsed;
  bool has_job = false;
  std::string error;
  ASSERT_TRUE(svc::parse_job_line(svc::to_line(j), 1, parsed, has_job, error))
      << error;
  ASSERT_TRUE(has_job);
  parsed.line = 0;
  EXPECT_EQ(parsed, j);
}

TEST(BatchFuzz, BlankAndCommentLinesAreSkipped) {
  const svc::job_parse_result r = svc::parse_batch(
      "\n"
      "   \t \n"
      "# a comment\n"
      "kk/round_robin n=64 # inline comment out=ignored.json\n");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_EQ(r.jobs[0].line, 4u);
  EXPECT_EQ(r.jobs[0].params.n, 64u);
  EXPECT_TRUE(r.jobs[0].out.empty());  // commented out
}

// A manifest is a record file anyone can edit: entries whose numbers do not
// fit their field (negative, 2^64 and beyond, infinite) are skipped as
// foreign, never cast with undefined behaviour.
TEST(ManifestFuzz, OutOfRangeEntriesAreSkipped) {
  const std::string path = ::testing::TempDir() + "fuzz_manifest.json";
  std::string doc = "[\n";
  for (const char* bad :
       {"1e30", "-1", "1e999", "-1e999", "18446744073709551616"}) {
    for (const char* field : {"shard", "shards", "exit"}) {
      std::string rec = "{\"shard\": 0, \"shards\": 1, \"exit\": 0, "
                        "\"file\": \"x\", \"fnv64\": \"0\", "
                        "\"args_fnv64\": \"0\"}";
      const std::string key = std::string("\"") + field + "\": ";
      const usize at = rec.find(key) + key.size();
      rec.replace(at, 1, bad);
      doc += (doc.size() > 2 ? ",\n" : "") + rec;
    }
  }
  doc += "\n]\n";
  ASSERT_TRUE(exp::parse_records(doc).ok());
  std::string error;
  ASSERT_TRUE(write_file_atomic(path.c_str(), doc, error)) << error;
  const exp::merge_result r = svc::merge_from_manifest(path, 0, true);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("no usable shard entries"), std::string::npos)
      << r.error;
  std::remove(path.c_str());
}

TEST(SvcExitCodes, SeverityOrderIsStable) {
  svc::serve_summary s;
  EXPECT_EQ(s.exit_code(), 0);
  s.unsafe = 1;
  EXPECT_EQ(s.exit_code(), 1);
  s.io_errors = 1;
  EXPECT_EQ(s.exit_code(), 3);  // unwritable output outranks a violation
  s.failed = 1;
  EXPECT_EQ(s.exit_code(), 2);  // a failing job outranks both
  s = {};
  s.rejected = 1;
  EXPECT_EQ(s.exit_code(), 2);
}

}  // namespace
}  // namespace amo
