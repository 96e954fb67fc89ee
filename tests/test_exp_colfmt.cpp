// The columnar record format's contracts: decode(encode(x)) reproduces
// every record field INCLUDING the raw source token (so colfmt -> JSON
// conversion re-emits json_writer's exact bytes), the streaming reader
// and writer agree byte-for-byte with the buffer codec, the streaming
// merge over .amoc shard files is byte-identical to the in-memory merge
// and to the unsharded sweep — and the reader survives hostile input:
// truncation at EVERY byte boundary, a bit flip at EVERY byte, version
// skew, and foreign files all fail with a diagnostic, never garbage
// records or a crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/colfmt.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"
#include "util/fnv.hpp"

namespace amo {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A record array exercising every column encoding: u64, f64 (shortest
/// round-trip), strings with escapes, booleans, nulls, and raw tokens only
/// the verbatim fallback can carry ("1e+05" is a valid JSON number whose
/// value re-renders as "100000").
const char* kTrickyJson =
    "[\n"
    "  {\"cell\": 0, \"count\": 18446744073709551615, \"x\": 0.1,"
    " \"neg\": -3, \"name\": \"a\\\"b\\\\c\\u0001\", \"flag\": true,"
    " \"gap\": null, \"odd\": 1e+05},\n"
    "  {\"cell\": 0, \"count\": 0, \"x\": 2.5e-308,"
    " \"neg\": -0.5, \"name\": \"\", \"flag\": false,"
    " \"gap\": null, \"odd\": 1.20},\n"
    "  {\"cell\": 1, \"count\": 7, \"x\": 1,"
    " \"neg\": -9007199254740993, \"name\": \"\\ud83d\\ude00 ok\","
    " \"flag\": true, \"gap\": null, \"odd\": +1e3}\n"
    "]\n";

std::vector<exp::record> tricky_records() {
  const exp::parse_result parsed = exp::parse_records(kTrickyJson);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return parsed.records;
}

std::string encode_or_die(const std::vector<exp::record>& records) {
  std::string bytes;
  std::string error;
  EXPECT_TRUE(exp::colfmt_encode(records, bytes, error)) << error;
  return bytes;
}

void expect_same_records(const std::vector<exp::record>& a,
                         const std::vector<exp::record>& b) {
  ASSERT_EQ(a.size(), b.size());
  // render_records re-emits every raw token verbatim, so byte-equal
  // rendering means field-for-field identity including raws.
  EXPECT_EQ(exp::render_records(a), exp::render_records(b));
}

TEST(Colfmt, FormatForPathInfersFromExtension) {
  EXPECT_EQ(exp::format_for_path("out.amoc"), exp::record_format::colfmt);
  EXPECT_EQ(exp::format_for_path("dir.amoc/out"), exp::record_format::json);
  EXPECT_EQ(exp::format_for_path("out.json"), exp::record_format::json);
  EXPECT_EQ(exp::format_for_path(""), exp::record_format::json);
  EXPECT_EQ(exp::format_for_path(".amoc"), exp::record_format::colfmt);
}

TEST(Colfmt, RoundTripReproducesEveryRawToken) {
  const std::vector<exp::record> records = tricky_records();
  const std::string bytes = encode_or_die(records);
  EXPECT_TRUE(exp::is_colfmt(bytes));

  const exp::parse_result decoded = exp::colfmt_decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  expect_same_records(records, decoded.records);

  // The whole point: converting back to JSON is byte-identical to the
  // JSON that produced the records.
  EXPECT_EQ(exp::render_records(decoded.records),
            exp::render_records(records));
}

TEST(Colfmt, EncodeIsDeterministic) {
  const std::vector<exp::record> records = tricky_records();
  EXPECT_EQ(encode_or_die(records), encode_or_die(records));
}

TEST(Colfmt, EmptyArrayRoundTrips) {
  const std::string bytes = encode_or_die({});
  const exp::parse_result decoded = exp::colfmt_decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_TRUE(decoded.records.empty());
}

TEST(Colfmt, EncodeRejectsMixedSchemas) {
  const exp::parse_result parsed = exp::parse_records(
      "[{\"a\": 1, \"b\": 2}, {\"a\": 1, \"c\": 2}]");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::string bytes;
  std::string error;
  EXPECT_FALSE(exp::colfmt_encode(parsed.records, bytes, error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(Colfmt, SniffingLoaderReadsBothFormats) {
  const std::vector<exp::record> records = tricky_records();
  const std::string dir = ::testing::TempDir();
  const std::string jpath = dir + "/sniff.json";
  const std::string cpath = dir + "/sniff.amoc";
  spit(jpath, exp::render_records(records));
  spit(cpath, encode_or_die(records));

  for (const std::string& path : {jpath, cpath}) {
    const exp::parse_result loaded = exp::load_records_file(path.c_str());
    ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.error;
    expect_same_records(records, loaded.records);
  }

  // decode_records: the buffer-level sniff.
  const exp::parse_result fromj = exp::decode_records(slurp(jpath));
  const exp::parse_result fromc = exp::decode_records(slurp(cpath));
  ASSERT_TRUE(fromj.ok()) << fromj.error;
  ASSERT_TRUE(fromc.ok()) << fromc.error;
  expect_same_records(fromj.records, fromc.records);

  const exp::parse_result missing = exp::load_records_file(
      (dir + "/no_such_file.amoc").c_str());
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error.find("no_such_file.amoc"), std::string::npos)
      << missing.error;
}

TEST(Colfmt, WriteRecordsFileAsRoundTrips) {
  const std::vector<exp::record> records = tricky_records();
  const std::string path = ::testing::TempDir() + "/as.amoc";
  std::string error;
  ASSERT_TRUE(exp::write_records_file_as(path.c_str(), records,
                                         exp::record_format::colfmt, error))
      << error;
  EXPECT_EQ(slurp(path), encode_or_die(records));
}

TEST(Colfmt, TruncationAtEveryByteIsDiagnosed) {
  const std::string bytes = encode_or_die(tricky_records());
  ASSERT_GT(bytes.size(), 100u);
  for (usize len = 0; len < bytes.size(); ++len) {
    const exp::parse_result r = exp::colfmt_decode(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(r.error.empty()) << len;
  }
  // One byte too many is just as dead.
  const exp::parse_result over = exp::colfmt_decode(bytes + "x");
  EXPECT_FALSE(over.ok());
  EXPECT_NE(over.error.find("after the end marker"), std::string::npos)
      << over.error;
}

TEST(Colfmt, BitFlipAtEveryByteIsDiagnosed) {
  const std::string bytes = encode_or_die(tricky_records());
  for (usize i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    const exp::parse_result r = exp::colfmt_decode(bad);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i << " decoded";
  }
}

TEST(Colfmt, TruncatedFileViaReaderNamesThePath) {
  const std::string bytes = encode_or_die(tricky_records());
  const std::string path = ::testing::TempDir() + "/trunc.amoc";
  spit(path, bytes.substr(0, bytes.size() - 12));
  const exp::parse_result r = exp::load_records_file(path.c_str());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("trunc.amoc"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(Colfmt, VersionSkewIsRefusedByName) {
  std::string bytes = encode_or_die(tricky_records());
  // Patch the version to 2 and re-seal the header checksum, so the ONLY
  // objection left is the version itself (the checksum must not mask it).
  bytes[4] = 2;
  usize header_end = 60;  // fixed part incl. column count
  const std::vector<exp::record> records = tricky_records();
  for (const exp::record_field& f : records[0].fields) {
    header_end += 2 + f.key.size();
  }
  const std::uint64_t sum =
      fnv1a64(std::string_view(bytes.data(), header_end));
  for (usize b = 0; b < 8; ++b) {
    bytes[header_end + b] = static_cast<char>((sum >> (8 * b)) & 0xff);
  }
  const exp::parse_result r = exp::colfmt_decode(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("version 2"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("version 1"), std::string::npos) << r.error;
}

TEST(Colfmt, ForeignFilesAreRejectedAtTheMagic) {
  for (const std::string& foreign :
       {std::string("PK\x03\x04 not a record file"), std::string("[]\n"),
        std::string("AMOD____wrong magic padded to header size______"),
        std::string()}) {
    const exp::parse_result r = exp::colfmt_decode(foreign);
    EXPECT_FALSE(r.ok());
  }
  const exp::parse_result r = exp::colfmt_decode("garbage");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("not a .amoc file"), std::string::npos) << r.error;
}

TEST(Colfmt, StreamingReaderMatchesBufferDecode) {
  const std::vector<exp::record> records = tricky_records();
  const std::string path = ::testing::TempDir() + "/stream.amoc";
  spit(path, encode_or_die(records));

  exp::colfmt_reader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path.c_str(), error)) << error;
  EXPECT_EQ(reader.header().record_count, records.size());
  EXPECT_EQ(reader.header().chunk_count, 2u);  // cells 0 and 1
  ASSERT_EQ(reader.header().columns.size(), records[0].fields.size());
  for (usize i = 0; i < reader.header().columns.size(); ++i) {
    EXPECT_EQ(reader.header().columns[i], records[0].fields[i].key);
  }

  std::vector<exp::record> streamed;
  std::vector<exp::record> chunk;
  bool end = false;
  while (!end) {
    ASSERT_TRUE(reader.next_chunk(chunk, end, error)) << error;
    for (exp::record& r : chunk) streamed.push_back(std::move(r));
  }
  expect_same_records(records, streamed);
}

TEST(Colfmt, StreamingWriterMatchesBufferEncode) {
  const std::vector<exp::record> records = tricky_records();
  const std::string path = ::testing::TempDir() + "/writer.amoc";

  exp::colfmt_writer writer;
  std::string error;
  ASSERT_TRUE(writer.open(path.c_str(), error)) << error;
  // Same chunking rule as the buffer encoder: one chunk per cell run.
  ASSERT_TRUE(writer.add_chunk({records[0], records[1]}, error)) << error;
  ASSERT_TRUE(writer.add_chunk({records[2]}, error)) << error;
  ASSERT_TRUE(writer.finish(error)) << error;

  const std::string streamed = slurp(path);
  EXPECT_EQ(writer.bytes_written(), streamed.size());
  EXPECT_EQ(streamed, encode_or_die(records));
}

// --- the streaming merge over real sweep output ---

svc::job small_job(usize replicas) {
  svc::job j;
  j.scenarios = {"kk/random"};
  j.params.n = 64;
  j.params.m = 2;
  j.params.seeds = 2;
  j.params.replicas = replicas;
  j.scheduled_only = true;
  j.no_timing = true;
  return j;
}

TEST(Colfmt, StreamedAmocMergeIsByteIdenticalToTheSweep) {
  svc::worker_pool pool(1);
  const std::string expected = svc::execute_job(small_job(3), pool)
                                   .render_json();

  const std::string dir = ::testing::TempDir();
  std::vector<std::unique_ptr<exp::record_source>> sources;
  std::vector<std::vector<exp::record>> in_memory;
  for (usize i = 0; i < 3; ++i) {
    svc::job j = small_job(3);
    j.have_shard = true;
    j.shard = {i, 3};
    const svc::job_result r = svc::execute_job(j, pool);
    ASSERT_TRUE(r.ok()) << r.error;
    const exp::parse_result parsed = exp::parse_records(r.render_json());
    ASSERT_TRUE(parsed.ok()) << parsed.error;

    const std::string path =
        dir + "/colfmt_shard" + std::to_string(i) + ".amoc";
    std::string error;
    ASSERT_TRUE(exp::write_records_file_as(path.c_str(), parsed.records,
                                           exp::record_format::colfmt, error))
        << error;
    sources.push_back(exp::make_file_source(path));
    in_memory.push_back(parsed.records);
  }

  const exp::merge_result streamed = exp::merge_stream(std::move(sources));
  ASSERT_TRUE(streamed.ok()) << streamed.error;
  EXPECT_EQ(exp::render_records(streamed.records), expected);

  // And the in-memory front end agrees with the file-streaming fold.
  const exp::merge_result memory = exp::merge_shards(in_memory);
  ASSERT_TRUE(memory.ok()) << memory.error;
  EXPECT_EQ(exp::render_records(memory.records), expected);
}

TEST(Colfmt, SinkStreamsTheSameAggregates) {
  svc::worker_pool pool(1);
  svc::job j = small_job(2);
  const svc::job_result whole = svc::execute_job(j, pool);
  const exp::parse_result parsed = exp::parse_records(whole.render_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  // Two shards of the same job, streamed through the sink.
  std::vector<std::unique_ptr<exp::record_source>> sources;
  for (usize i = 0; i < 2; ++i) {
    svc::job s = small_job(2);
    s.have_shard = true;
    s.shard = {i, 2};
    const exp::parse_result sp =
        exp::parse_records(svc::execute_job(s, pool).render_json());
    ASSERT_TRUE(sp.ok()) << sp.error;
    sources.push_back(exp::make_memory_source(sp.records));
  }
  std::vector<exp::record> sunk;
  const exp::merge_result r = exp::merge_stream(
      std::move(sources),
      [&](exp::record&& rec, std::string&) {
        sunk.push_back(std::move(rec));
        return true;
      });
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.records.empty()) << "sink mode must not accumulate";
  expect_same_records(parsed.records, sunk);
}

TEST(Colfmt, MergeRefusesShardsOfDifferentGrids) {
  svc::worker_pool pool(1);
  std::vector<std::unique_ptr<exp::record_source>> sources;
  const std::string dir = ::testing::TempDir();
  for (usize i = 0; i < 2; ++i) {
    svc::job j = small_job(3);
    if (i == 1) j.params.n = 128;  // a different grid fingerprint
    j.have_shard = true;
    j.shard = {i, 2};
    const exp::parse_result parsed =
        exp::parse_records(svc::execute_job(j, pool).render_json());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const std::string path = dir + "/grid" + std::to_string(i) + ".amoc";
    std::string error;
    ASSERT_TRUE(exp::write_records_file_as(path.c_str(), parsed.records,
                                           exp::record_format::colfmt, error))
        << error;
    sources.push_back(exp::make_file_source(path));
  }
  const exp::merge_result r = exp::merge_stream(std::move(sources));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("disagrees"), std::string::npos) << r.error;
}

TEST(Colfmt, CorruptShardFailsTheStreamingMerge) {
  svc::worker_pool pool(1);
  svc::job j = small_job(2);
  j.have_shard = true;
  j.shard = {0, 2};
  const exp::parse_result parsed =
      exp::parse_records(svc::execute_job(j, pool).render_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  std::string bytes = encode_or_die(parsed.records);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  const std::string path = ::testing::TempDir() + "/corrupt.amoc";
  spit(path, bytes);

  std::vector<std::unique_ptr<exp::record_source>> sources;
  sources.push_back(exp::make_file_source(path));
  const exp::merge_result r = exp::merge_stream(std::move(sources));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("corrupt.amoc"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace amo
