// The record layer and report_diff: parse ∘ render is the identity on
// json_writer documents, diff(x, x) is empty, and every severity class
// fires on exactly the change it was built for.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/colfmt.hpp"
#include "exp/diff.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"

namespace amo {
namespace {

using exp::diff_severity;
using exp::field_class;

// --- the flat record layer ---

TEST(Record, ParseRenderRoundTripsWriterOutput) {
  exp::json_writer json;
  json.add({{"scenario", exp::json_writer::str("kk/weird \"label\"\n\x01")},
            {"work", "12345"},
            {"ratio", exp::json_writer::num(0.25)},
            {"safe", exp::json_writer::boolean(true)}});
  json.add({{"scenario", exp::json_writer::str("other")},
            {"work", "0"},
            {"safe", exp::json_writer::boolean(false)}});
  const std::string doc = json.dump();

  const exp::parse_result parsed = exp::parse_records(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[0].fields.size(), 4u);
  EXPECT_EQ(exp::render_records(parsed.records), doc);

  const exp::record_field* scenario = parsed.records[0].find("scenario");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->type, exp::record_field::kind::string);
  EXPECT_EQ(scenario->text, "kk/weird \"label\"\n\x01");  // escapes decoded
  const exp::record_field* work = parsed.records[0].find("work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->type, exp::record_field::kind::number);
  EXPECT_EQ(work->number, 12345.0);
  const exp::record_field* safe = parsed.records[1].find("safe");
  ASSERT_NE(safe, nullptr);
  EXPECT_FALSE(safe->truth);
}

TEST(Record, ParseAcceptsForeignWhitespaceAndEmpty) {
  const exp::parse_result spaced = exp::parse_records(
      "\n  [ { \"a\" : 1 ,\t\"b\" : \"x\" } ,\r\n { \"a\" : -2.5e3 } ]\n\n");
  ASSERT_TRUE(spaced.ok()) << spaced.error;
  ASSERT_EQ(spaced.records.size(), 2u);
  EXPECT_EQ(spaced.records[1].find("a")->number, -2500.0);

  EXPECT_TRUE(exp::parse_records("[]").ok());
  EXPECT_TRUE(exp::parse_records("[ {} ]").ok());
}

TEST(Record, SurrogatePairsDecodeToUtf8) {
  // A non-BMP codepoint split across two \u escapes must decode to the
  // same bytes as the raw UTF-8 spelling, or diff/merge identity keys
  // would treat identical cells as different.
  const exp::parse_result p =
      exp::parse_records("[\n  {\"a\": \"\\ud83d\\ude00\"}\n]\n");
  ASSERT_TRUE(p.ok()) << p.error;
  EXPECT_EQ(p.records[0].find("a")->text, "\xF0\x9F\x98\x80");
  EXPECT_FALSE(exp::parse_records("[{\"a\": \"\\ud83d\"}]").ok());  // lone high
  EXPECT_FALSE(exp::parse_records("[{\"a\": \"\\ude00x\"}]").ok()); // lone low
  EXPECT_FALSE(exp::parse_records("[{\"a\": \"\\ud83d\\u0041\"}]").ok());
}

TEST(Record, ParseRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[ {\"a\": } ]", "[ {\"a\": 1} ", "[ {\"a\": [1]} ]",
        "[ {\"a\": {\"b\": 1}} ]", "[ {\"a\": 1} ] trailing",
        "[ {\"a\": 1e} ]", "[ {\"a\" 1} ]", "[ {\"a\": \"unterminated} ]"}) {
    const exp::parse_result parsed = exp::parse_records(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_TRUE(parsed.records.empty());
  }
  // Errors carry the line number.
  const exp::parse_result nested =
      exp::parse_records("[\n  {\"a\": 1},\n  {\"b\": [2]}\n]\n");
  EXPECT_NE(nested.error.find("line 3"), std::string::npos) << nested.error;
}

// --- field classification ---

TEST(Diff, FieldClassificationCoversTheSchemas) {
  EXPECT_EQ(exp::classify_field("scenario"), field_class::identity);
  EXPECT_EQ(exp::classify_field("adversary"), field_class::identity);
  // Grid position is merge's concern, not part of diff identity: sweeps of
  // reordered/extended grids must still match cells by their spec echo.
  EXPECT_EQ(exp::classify_field("cell"), field_class::ignored);
  EXPECT_EQ(exp::classify_field("cells_total"), field_class::ignored);
  EXPECT_EQ(exp::classify_field("wall_seconds"), field_class::ignored);
  EXPECT_EQ(exp::classify_field("speedup"), field_class::ignored);
  EXPECT_EQ(exp::classify_field("duplicates"), field_class::hard_counter);
  EXPECT_EQ(exp::classify_field("livelocks"), field_class::hard_counter);
  EXPECT_EQ(exp::classify_field("at_most_once"), field_class::safety_flag);
  EXPECT_EQ(exp::classify_field("quiescent"), field_class::safety_flag);
  EXPECT_EQ(exp::classify_field("claim_holds"), field_class::safety_flag);
  EXPECT_EQ(exp::classify_field("effectiveness"), field_class::lower_worse);
  EXPECT_EQ(exp::classify_field("work"), field_class::higher_worse);
  EXPECT_EQ(exp::classify_field("do_actions"), field_class::higher_worse);
  // BENCH_model's memory counts gate like a state count: what the search
  // stores, and the peak a serial check adds, per state.
  EXPECT_EQ(exp::classify_field("bytes_per_state"), field_class::higher_worse);
  EXPECT_EQ(exp::classify_field("peak_bytes_per_state"),
            field_class::higher_worse);
  EXPECT_EQ(exp::classify_field("crashes"), field_class::informational);
  // Replica layer: sample size is identity, unit position is merge's
  // concern, aggregate suffixes inherit the base metric's direction,
  // spread never gates, and anything wall-clock/throughput-shaped is a
  // measurement.
  EXPECT_EQ(exp::classify_field("replicas"), field_class::identity);
  EXPECT_EQ(exp::classify_field("replica"), field_class::identity);
  EXPECT_EQ(exp::classify_field("unit"), field_class::ignored);
  EXPECT_EQ(exp::classify_field("units_total"), field_class::ignored);
  EXPECT_EQ(exp::classify_field("effectiveness_min"), field_class::lower_worse);
  EXPECT_EQ(exp::classify_field("effectiveness_p50"), field_class::lower_worse);
  EXPECT_EQ(exp::classify_field("work_p95"), field_class::higher_worse);
  EXPECT_EQ(exp::classify_field("steps_mean"), field_class::higher_worse);
  EXPECT_EQ(exp::classify_field("work_stddev"), field_class::informational);
  EXPECT_EQ(exp::classify_field("job_wall_seconds"), field_class::ignored);
  EXPECT_EQ(exp::classify_field("job_queue_seconds"), field_class::ignored);
  EXPECT_EQ(exp::classify_field("spawn_wall_seconds"), field_class::ignored);
  EXPECT_EQ(exp::classify_field("units_per_second"), field_class::ignored);
  // Unknown metrics report instead of gating.
  EXPECT_EQ(exp::classify_field("brand_new_metric"), field_class::informational);
}

TEST(Diff, PreReplicaArtifactsMatchReplicasOneRecords) {
  // A baseline saved before the replica layer existed carries no
  // "replicas" field; the byte-equivalent replicas=1 sweep of today must
  // still match it cell for cell (absent means 1 in the identity key) —
  // while a different sample size stays a different experiment.
  const char* old_doc =
      "[\n  {\"scenario\": \"kk/random\", \"seed\": 1, \"n\": 100, "
      "\"effectiveness\": 97, \"work\": 1000, \"at_most_once\": true}\n]\n";
  const char* new_doc =
      "[\n  {\"replicas\": 1, \"scenario\": \"kk/random\", \"seed\": 1, "
      "\"n\": 100, \"effectiveness\": 97, \"work\": 1000, "
      "\"at_most_once\": true}\n]\n";
  const char* resampled =
      "[\n  {\"replicas\": 8, \"scenario\": \"kk/random\", \"seed\": 1, "
      "\"n\": 100, \"effectiveness\": 97, \"work\": 1000, "
      "\"at_most_once\": true}\n]\n";
  exp::parse_result old_parsed = exp::parse_records(old_doc);
  exp::parse_result new_parsed = exp::parse_records(new_doc);
  exp::parse_result re_parsed = exp::parse_records(resampled);
  ASSERT_TRUE(old_parsed.ok() && new_parsed.ok() && re_parsed.ok());

  const exp::diff_report matched =
      exp::report_diff(old_parsed.records, new_parsed.records);
  EXPECT_EQ(matched.matched, 1u);
  EXPECT_TRUE(matched.only_baseline.empty());
  EXPECT_EQ(matched.severity, diff_severity::clean);

  const exp::diff_report disjoint =
      exp::report_diff(old_parsed.records, re_parsed.records);
  EXPECT_EQ(disjoint.matched, 0u);  // R=8 is a different experiment
  EXPECT_EQ(disjoint.only_baseline.size(), 1u);
}

// --- report_diff ---

/// Builds a two-record document shaped like the amo_lab sweep output.
std::vector<exp::record> sample(const char* work0, const char* eff0,
                                const char* amo0 = "true") {
  const std::string doc = std::string("[\n") +
      "  {\"scenario\": \"kk/random\", \"seed\": 1, \"n\": 100, " +
      "\"effectiveness\": " + eff0 + ", \"work\": " + work0 +
      ", \"at_most_once\": " + amo0 + ", \"wall_seconds\": 0.5},\n" +
      "  {\"scenario\": \"kk/random\", \"seed\": 2, \"n\": 100, " +
      "\"effectiveness\": 98, \"work\": 2000, \"at_most_once\": true, " +
      "\"wall_seconds\": 1.5}\n]\n";
  exp::parse_result parsed = exp::parse_records(doc);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return std::move(parsed.records);
}

TEST(Diff, SelfDiffIsClean) {
  const std::vector<exp::record> x = sample("1000", "97");
  const exp::diff_report d = exp::report_diff(x, x);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.severity, diff_severity::clean);
  EXPECT_TRUE(d.changed.empty());
  EXPECT_EQ(d.matched, 2u);
  EXPECT_TRUE(d.only_baseline.empty());
  EXPECT_TRUE(d.only_candidate.empty());
}

TEST(Diff, AmocFilesReportEveryChangedValue) {
  // Fields decoded from typed .amoc blocks carry values and no stored
  // token. A diff that compared stored tokens would find every one of
  // them equal; it must compare the tokens the values spell.
  const auto doc = [](const char* work, const char* ratio) {
    return std::string("[\n  {\"scenario\": \"kk/random\", \"seed\": 1, ") +
           "\"work\": " + work + ", \"worst_pair_ratio\": " + ratio +
           ", \"at_most_once\": true}\n]\n";
  };
  const auto amoc = [](const std::string& json) {
    const exp::parse_result parsed = exp::parse_records(json);
    std::string bytes;
    std::string error;
    EXPECT_TRUE(exp::colfmt_encode(parsed.records, bytes, error)) << error;
    exp::parse_result decoded = exp::colfmt_decode(bytes);
    EXPECT_TRUE(decoded.ok()) << decoded.error;
    return std::move(decoded.records);
  };
  const std::string base = doc("1000", "1.5");
  const exp::diff_report d =
      exp::report_diff(amoc(base), amoc(doc("1200", "2.25")));
  EXPECT_EQ(d.severity, diff_severity::regression);
  ASSERT_EQ(d.changed.size(), 1u);
  const std::vector<exp::field_delta>& f = d.changed[0].fields;
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].field, "work");
  EXPECT_EQ(f[0].baseline, "1000");
  EXPECT_EQ(f[0].candidate, "1200");
  EXPECT_EQ(f[1].field, "worst_pair_ratio");
  EXPECT_EQ(f[1].baseline, "1.5");
  EXPECT_EQ(f[1].candidate, "2.25");

  // The .amoc file against the JSON it encodes: nothing changed.
  const exp::parse_result json = exp::parse_records(base);
  const exp::diff_report same = exp::report_diff(json.records, amoc(base));
  EXPECT_EQ(same.severity, diff_severity::clean);
  EXPECT_EQ(same.matched, 1u);
}

TEST(Diff, TimingChangesAreInvisible) {
  std::vector<exp::record> base = sample("1000", "97");
  std::vector<exp::record> cand = sample("1000", "97");
  // Wildly different wall clocks must not even count as a change.
  for (exp::record& r : cand) {
    for (exp::record_field& f : r.fields) {
      if (f.key == "wall_seconds") f.raw = "999.0";
    }
  }
  const exp::diff_report d = exp::report_diff(base, cand);
  EXPECT_EQ(d.severity, diff_severity::clean);
  EXPECT_TRUE(d.changed.empty());
}

TEST(Diff, WorkRegressionGatesOnTolerance) {
  const std::vector<exp::record> base = sample("1000", "97");
  const std::vector<exp::record> within = sample("1040", "97");  // +4%
  const std::vector<exp::record> beyond = sample("1200", "97");  // +20%

  exp::diff_options tol5;
  tol5.tolerance = 0.05;
  EXPECT_EQ(exp::report_diff(base, within, tol5).severity, diff_severity::info);
  EXPECT_EQ(exp::report_diff(base, beyond, tol5).severity,
            diff_severity::regression);
  // An *improvement* never gates.
  EXPECT_EQ(exp::report_diff(beyond, base, tol5).severity, diff_severity::info);

  exp::diff_options tol50;
  tol50.tolerance = 0.5;
  EXPECT_EQ(exp::report_diff(base, beyond, tol50).severity,
            diff_severity::info);
}

TEST(Diff, EffectivenessLossGatesOnTolerance) {
  const std::vector<exp::record> base = sample("1000", "100");
  const std::vector<exp::record> slight = sample("1000", "97");  // -3%
  const std::vector<exp::record> heavy = sample("1000", "50");   // -50%
  EXPECT_EQ(exp::report_diff(base, slight).severity, diff_severity::info);
  const exp::diff_report d = exp::report_diff(base, heavy);
  EXPECT_EQ(d.severity, diff_severity::regression);
  ASSERT_EQ(d.changed.size(), 1u);
  EXPECT_EQ(d.changed[0].fields[0].field, "effectiveness");
}

TEST(Diff, SafetyFlipIsHardFailure) {
  const std::vector<exp::record> base = sample("1000", "97", "true");
  const std::vector<exp::record> bad = sample("1000", "97", "false");
  EXPECT_EQ(exp::report_diff(base, bad).severity, diff_severity::hard_fail);
  // false -> true is an improvement, not a failure.
  EXPECT_EQ(exp::report_diff(bad, base).severity, diff_severity::info);
}

TEST(Diff, NewDuplicatesAndLivelocksAreHardFailures) {
  const auto parse = [](const char* duplicates, const char* livelocks) {
    const std::string doc = std::string("[\n  {\"experiment\": \"E2\", ") +
        "\"adversary\": \"random\", \"duplicates\": " + duplicates +
        ", \"livelocks\": " + livelocks + ", \"do_actions\": 500}\n]\n";
    exp::parse_result parsed = exp::parse_records(doc);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return std::move(parsed.records);
  };
  const std::vector<exp::record> clean = parse("0", "0");
  EXPECT_EQ(exp::report_diff(clean, parse("1", "0")).severity,
            diff_severity::hard_fail);
  EXPECT_EQ(exp::report_diff(clean, parse("0", "2")).severity,
            diff_severity::hard_fail);
  // Equal (even nonzero) counts are not *new* — diff(x, x) stays empty.
  const std::vector<exp::record> dirty = parse("3", "0");
  EXPECT_EQ(exp::report_diff(dirty, dirty).severity, diff_severity::clean);
}

TEST(Diff, RemovedGatingFieldStillGates) {
  // Dropping a gated metric from the candidate must not silently disable
  // its gate.
  const auto parse = [](const std::string& fields) {
    exp::parse_result parsed = exp::parse_records(
        "[\n  {\"scenario\": \"x\", \"seed\": 1" + fields + "}\n]\n");
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return std::move(parsed.records);
  };
  const std::vector<exp::record> full =
      parse(", \"duplicates\": 0, \"work\": 100, \"crashes\": 2");
  EXPECT_EQ(exp::report_diff(full, parse(", \"work\": 100, \"crashes\": 2"))
                .severity,
            diff_severity::hard_fail);  // hard counter vanished
  EXPECT_EQ(exp::report_diff(full, parse(", \"duplicates\": 0, \"crashes\": 2"))
                .severity,
            diff_severity::regression);  // tolerance-gated metric vanished
  EXPECT_EQ(exp::report_diff(full, parse(", \"duplicates\": 0, \"work\": 100"))
                .severity,
            diff_severity::info);  // informational field vanished
}

TEST(Diff, MissingBaselineCellIsHardNewCellIsInfo) {
  const std::vector<exp::record> base = sample("1000", "97");
  std::vector<exp::record> shrunk = sample("1000", "97");
  shrunk.pop_back();
  const exp::diff_report missing = exp::report_diff(base, shrunk);
  EXPECT_EQ(missing.severity, diff_severity::hard_fail);
  ASSERT_EQ(missing.only_baseline.size(), 1u);

  const exp::diff_report grown = exp::report_diff(shrunk, base);
  EXPECT_EQ(grown.severity, diff_severity::info);
  ASSERT_EQ(grown.only_candidate.size(), 1u);
}

TEST(Diff, IdentityCollisionIsAnError) {
  std::vector<exp::record> base = sample("1000", "97");
  base.push_back(base[0]);  // two cells the diff cannot tell apart
  const exp::diff_report d = exp::report_diff(base, base);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.severity, diff_severity::hard_fail);
}

TEST(Diff, FormatMentionsTheVerdict) {
  const std::vector<exp::record> base = sample("1000", "97");
  const std::vector<exp::record> bad = sample("5000", "97");
  const std::string text = exp::format_diff(exp::report_diff(base, bad));
  EXPECT_NE(text.find("REGRESSION"), std::string::npos) << text;
  EXPECT_NE(text.find("work"), std::string::npos) << text;
}

// --- the --dist-test replica-distribution gate ---

/// Per-unit records of one cell: replica r carries work[r] and a seed
/// derived from the replica index, exactly like unit_record_rows output.
std::vector<exp::record> replica_sample(const std::vector<long>& work) {
  std::string doc = "[\n";
  for (usize r = 0; r < work.size(); ++r) {
    doc += "  {\"cell\": 0, \"replica\": " + std::to_string(r) +
           ", \"replicas\": " + std::to_string(work.size()) +
           ", \"scenario\": \"kk/random\", \"seed\": " +
           std::to_string(1000 + r * 7) + ", \"n\": 100, " +
           "\"effectiveness\": 97, \"work\": " + std::to_string(work[r]) +
           ", \"at_most_once\": true}";
    doc += r + 1 < work.size() ? ",\n" : "\n";
  }
  doc += "]\n";
  exp::parse_result parsed = exp::parse_records(doc);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return std::move(parsed.records);
}

TEST(DistTest, SystematicDriftInsideToleranceStillGates) {
  // Every replica's work grows by ~1% — far inside the 5% per-record
  // tolerance, invisible to the exact diff — but the shift is systematic:
  // all eight candidate values exceed all eight baseline values, which is
  // exactly what the rank tests exist to catch.
  const std::vector<exp::record> base =
      replica_sample({1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007});
  const std::vector<exp::record> cand =
      replica_sample({1010, 1011, 1012, 1013, 1014, 1015, 1016, 1017});

  exp::diff_options plain;
  EXPECT_LE(exp::report_diff(base, cand, plain).severity,
            diff_severity::info);

  exp::diff_options dist = plain;
  dist.dist_test = true;
  const exp::diff_report d = exp::report_diff(base, cand, dist);
  EXPECT_EQ(d.severity, diff_severity::regression);
  ASSERT_EQ(d.dist.size(), 1u);
  EXPECT_EQ(d.dist[0].field, "work");
  EXPECT_GT(d.dist[0].shift, 0.0);  // candidate tends larger
  EXPECT_LT(d.dist[0].mw_p, 0.01);
  EXPECT_LT(d.dist[0].ks_p, 0.01);
  EXPECT_EQ(d.dist_groups, 1u);
  const std::string text = exp::format_diff(d);
  EXPECT_NE(text.find("dist"), std::string::npos) << text;
  EXPECT_NE(text.find("work"), std::string::npos) << text;
}

TEST(DistTest, ImprovementShiftIsInfoNotRegression) {
  // The same separation in the better direction (work dropped) must be
  // reported but never gate — severity keying follows the metric's
  // direction, like the exact diff's tolerance rule.
  const std::vector<exp::record> base =
      replica_sample({1010, 1011, 1012, 1013, 1014, 1015, 1016, 1017});
  const std::vector<exp::record> cand =
      replica_sample({1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007});
  exp::diff_options dist;
  dist.dist_test = true;
  const exp::diff_report d = exp::report_diff(base, cand, dist);
  EXPECT_EQ(d.severity, diff_severity::info);
  ASSERT_EQ(d.dist.size(), 1u);
  EXPECT_LT(d.dist[0].shift, 0.0);
  EXPECT_EQ(d.dist[0].severity, diff_severity::info);
}

TEST(DistTest, SelfDiffAndTiedSamplesAreClean) {
  // Identical replica samples are all ties: the rank variance is zero and
  // the gate must stay silent instead of dividing by it.
  const std::vector<exp::record> x =
      replica_sample({1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000});
  exp::diff_options dist;
  dist.dist_test = true;
  const exp::diff_report d = exp::report_diff(x, x, dist);
  EXPECT_EQ(d.severity, diff_severity::clean);
  EXPECT_TRUE(d.dist.empty());
  EXPECT_EQ(d.dist_groups, 1u);
}

TEST(DistTest, SmallSamplesAreSkippedNotMistested) {
  // R = 2 is far below any sane normal approximation; the gate skips the
  // group entirely rather than produce a meaningless p-value.
  const std::vector<exp::record> base = replica_sample({1000, 1004});
  const std::vector<exp::record> cand = replica_sample({1400, 1404});
  exp::diff_options dist;
  dist.dist_test = true;
  dist.tolerance = 0.5;  // keep the exact diff out of the way
  const exp::diff_report d = exp::report_diff(base, cand, dist);
  EXPECT_TRUE(d.dist.empty());
}

TEST(DistTest, OverlappingNoiseDoesNotGate) {
  // Interleaved samples (the candidate is a permutation-level shuffle of
  // the baseline's range) must not reach significance: the gate fires on
  // systematic shifts, not on replica-to-replica noise.
  const std::vector<exp::record> base =
      replica_sample({1000, 1010, 1020, 1030, 1040, 1050, 1060, 1070});
  const std::vector<exp::record> cand =
      replica_sample({1005, 1015, 1018, 1033, 1042, 1048, 1065, 1068});
  exp::diff_options dist;
  dist.dist_test = true;
  const exp::diff_report d = exp::report_diff(base, cand, dist);
  EXPECT_TRUE(d.dist.empty());
  EXPECT_EQ(d.dist_groups, 1u);
}

}  // namespace
}  // namespace amo
