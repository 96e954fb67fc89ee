// The columnar record format's contracts: decode(encode(x)) reproduces
// every record field INCLUDING the raw source token (so colfmt -> JSON
// conversion re-emits json_writer's exact bytes), the streaming reader
// and writer agree byte-for-byte with the buffer codec, the streaming
// merge over .amoc shard files or their bytes is byte-identical to the
// merge over memory sources and to the unsharded sweep — and the reader,
// over a file or over bytes, survives hostile input: truncation at EVERY
// byte boundary, a bit flip at EVERY byte, version skew, and foreign
// files all fail with the same diagnostic, never garbage records or a
// crash.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
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
#include "merge_arrays.hpp"
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

/// The first error of reading `bytes` to the end marker through one
/// colfmt_reader — over the image itself, or over a file holding it when
/// `path` is given; "" when the read is clean.
std::string reader_error(const std::string& bytes, const std::string& path) {
  exp::colfmt_reader reader;
  std::string error;
  bool ok = false;
  if (path.empty()) {
    ok = reader.open(open_memory(bytes), {}, false, error);
  } else {
    spit(path, bytes);
    ok = reader.open(std::fopen(path.c_str(), "rb"), {}, false, error);
  }
  std::vector<exp::record> chunk;
  for (bool end = false; ok && !end;) ok = reader.next_chunk(chunk, end, error);
  return error;
}

/// `bytes` must fail to decode, with the same text from the whole-buffer
/// decoder, the reader over the bytes and the reader over a file. (The
/// reader names no input; the source that opens a file prefixes its path,
/// which TruncatedFileViaReaderNamesThePath checks.)
void expect_every_reader_refuses(const std::string& bytes,
                                 const std::string& path,
                                 const std::string& what) {
  const exp::parse_result r = exp::colfmt_decode(bytes);
  EXPECT_FALSE(r.ok()) << what << " decoded";
  EXPECT_FALSE(r.error.empty()) << what;
  EXPECT_EQ(reader_error(bytes, ""), r.error) << what;
  EXPECT_EQ(reader_error(bytes, path), r.error) << what;
}

TEST(Colfmt, TruncationAtEveryByteIsDiagnosed) {
  const std::string bytes = encode_or_die(tricky_records());
  ASSERT_GT(bytes.size(), 100u);
  const std::string path = ::testing::TempDir() + "/every_prefix.amoc";
  for (usize len = 0; len < bytes.size(); ++len) {
    expect_every_reader_refuses(bytes.substr(0, len), path,
                                "prefix of " + std::to_string(len) + " bytes");
  }
  // One byte too many is just as dead.
  const exp::parse_result over = exp::colfmt_decode(bytes + "x");
  EXPECT_FALSE(over.ok());
  EXPECT_NE(over.error.find("after the end marker"), std::string::npos)
      << over.error;
}

TEST(Colfmt, BitFlipAtEveryByteIsDiagnosed) {
  const std::string bytes = encode_or_die(tricky_records());
  const std::string path = ::testing::TempDir() + "/every_flip.amoc";
  for (usize i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    expect_every_reader_refuses(bad, path,
                                "flip at byte " + std::to_string(i));
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
  // The streaming file source names the path in the same words.
  const auto src = exp::make_file_source(path);
  exp::source_row rec;
  std::string error;
  bool end = false;
  while (src->next(rec, end, error) && !end) {
  }
  EXPECT_EQ(error, r.error);
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
  ASSERT_TRUE(reader.open(std::fopen(path.c_str(), "rb"), {}, false, error))
      << error;
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

  // A writer given no chunk still writes a whole file: header, then end
  // marker.
  exp::colfmt_writer empty;
  ASSERT_TRUE(empty.open(path.c_str(), error)) << error;
  ASSERT_TRUE(empty.finish(error)) << error;
  EXPECT_EQ(slurp(path), encode_or_die({}));
  EXPECT_EQ(empty.bytes_written(), slurp(path).size());
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

  // And memory sources agree with the file-streaming fold.
  const exp::merge_result memory = merge_arrays(in_memory);
  ASSERT_TRUE(memory.ok()) << memory.error;
  EXPECT_EQ(exp::render_records(memory.records), expected);

  // So does a merge mixing the two: a cell's rows then come as records
  // and as .amoc block rows, whichever replica 0 is.
  for (usize records_shard = 0; records_shard < 3; ++records_shard) {
    std::vector<std::unique_ptr<exp::record_source>> mixed;
    for (usize i = 0; i < 3; ++i) {
      mixed.push_back(
          i == records_shard
              ? exp::make_memory_source(in_memory[i])
              : exp::make_file_source(dir + "/colfmt_shard" +
                                      std::to_string(i) + ".amoc"));
    }
    const exp::merge_result m = exp::merge_stream(std::move(mixed));
    ASSERT_TRUE(m.ok()) << m.error;
    EXPECT_EQ(exp::render_records(m.records), expected) << records_shard;
  }
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

// --- typed values and JSON tokens choose the same tags ---

/// The block tag of column `col` in a file whose first chunk starts right
/// after the header; only valid for col 0.
std::uint8_t first_column_tag(const std::string& bytes,
                              const std::vector<std::string>& keys) {
  usize at = 60 + 8 + 20;  // fixed header + checksum + chunk frame
  for (const std::string& k : keys) at += 2 + k.size();
  return static_cast<std::uint8_t>(bytes.at(at));
}

/// One column "v" (plus a "cell" column, so every row lands in one chunk)
/// encoded from typed values and from the records parse_records reads
/// back from json_writer's rendering of the same rows.
struct both_paths {
  std::string typed;
  std::string token;
  std::vector<exp::record> parsed;
};

both_paths encode_both(const std::vector<exp::typed_value>& column) {
  exp::record_table table;
  table.keys = {"v", "cell"};
  for (const exp::typed_value& v : column) {
    table.rows.push_back({v, exp::typed_value::u64(0)});
  }
  both_paths out;
  std::string error;
  exp::colfmt_encoder enc(out.typed);
  EXPECT_TRUE(enc.add(table, error)) << error;
  enc.finish();
  exp::json_writer json;
  json.add(table);
  exp::parse_result parsed = exp::parse_records(json.dump());
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  out.parsed = std::move(parsed.records);
  out.token = encode_or_die(out.parsed);
  return out;
}

/// Tag numbers as docs/record_format.md lists them.
enum : std::uint8_t { kU64 = 0, kF64 = 1, kStr = 2, kVerbatim = 5 };

TEST(Colfmt, EdgeValuesChooseTheSameTagOnTheTypedAndTokenPaths) {
  using T = exp::typed_value;
  constexpr std::uint64_t two53 = std::uint64_t{1} << 53;
  struct edge_case {
    const char* name;
    std::vector<T> column;
    std::uint8_t tag;
  };
  const std::vector<edge_case> cases = {
      {"u64 extremes",
       {T::u64(0), T::u64(two53), T::u64(two53 + 1), T::u64(~std::uint64_t{0})},
       kU64},
      {"integral doubles spelled in scientific form",
       {T::f64(1e16), T::f64(1e21)}, kF64},
      {"-0.0, 0.1 and the smallest denormal",
       {T::f64(-0.0), T::f64(0.1), T::f64(4.9406564584124654e-324)}, kF64},
      {"integral doubles that print as digits join a u64 column",
       {T::u64(3), T::f64(2.0), T::u64(two53 + 1), T::f64(0.0)}, kU64},
      {"a u64 whose double prints the same joins an f64 column",
       {T::u64(3), T::f64(1e5), T::f64(0.25)}, kF64},
      {"a u64 no double holds forces verbatim beside a fraction",
       {T::u64(two53 + 1), T::f64(0.5)}, kVerbatim},
      {"a u64 spelled differently as a double forces verbatim",
       {T::u64(100000), T::f64(0.5)}, kVerbatim},
      {"strings and numbers mixed", {T::str("x"), T::u64(1)}, kVerbatim},
      {"strings", {T::str("plain"), T::str("tab\there \"q\"")}, kStr},
  };
  for (const edge_case& c : cases) {
    const both_paths b = encode_both(c.column);
    EXPECT_EQ(b.typed, b.token) << c.name;
    EXPECT_EQ(first_column_tag(b.typed, {"v", "cell"}), c.tag) << c.name;

    // Decoding the typed bytes gives back the parsed records, value for
    // value and token for token, and every known encoding spells its
    // field's token: a decoded field keeps a raw token only where the
    // double cannot hold the value (a u64 of 2^53 or more).
    const exp::parse_result d = exp::colfmt_decode(b.typed);
    ASSERT_TRUE(d.ok()) << c.name << ": " << d.error;
    ASSERT_EQ(d.records.size(), b.parsed.size()) << c.name;
    for (usize r = 0; r < d.records.size(); ++r) {
      const exp::record_field& got = d.records[r].fields[0];
      const exp::record_field& want = b.parsed[r].fields[0];
      EXPECT_EQ(exp::token_of(got), exp::token_of(want))
          << c.name << " row " << r;
      EXPECT_EQ(got.type, want.type) << c.name << " row " << r;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.number),
                std::bit_cast<std::uint64_t>(want.number))
          << c.name << " row " << r;
      EXPECT_EQ(got.encoding == exp::value_encoding::unknown,
                c.tag == kVerbatim)
          << c.name << " row " << r;
      exp::value_view typed = exp::view_of(got);
      typed.raw = {};
      std::string spelled;
      exp::append_token(spelled, typed);
      if (got.encoding != exp::value_encoding::unknown) {
        EXPECT_EQ(spelled, exp::token_of(want)) << c.name << " row " << r;
        EXPECT_EQ(got.raw.empty(),
                  got.encoding != exp::value_encoding::u64 ||
                      got.number < 0x1p53)
            << c.name << " row " << r;
      }
    }
    // Re-encoding the decoded records writes the same bytes again.
    EXPECT_EQ(encode_or_die(d.records), b.typed) << c.name;
  }
}

TEST(Colfmt, NonCanonicalTokensStayVerbatim) {
  // Tokens json_writer never writes survive byte-exact; "-0" is its own
  // spelling of -0.0, so it alone earns the f64 tag.
  struct token_case {
    const char* token;
    std::uint8_t tag;
  };
  for (const token_case& c : {token_case{"1.0", kVerbatim},
                              token_case{"1E2", kVerbatim},
                              token_case{"0.10", kVerbatim},
                              token_case{"-0", kF64}}) {
    const std::string doc =
        std::string("[{\"v\": ") + c.token + ", \"cell\": 0}]";
    const exp::parse_result parsed = exp::parse_records(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const std::string bytes = encode_or_die(parsed.records);
    EXPECT_EQ(first_column_tag(bytes, {"v", "cell"}), c.tag) << c.token;
    const exp::parse_result d = exp::colfmt_decode(bytes);
    ASSERT_TRUE(d.ok()) << d.error;
    EXPECT_EQ(exp::token_of(d.records[0].fields[0]), c.token);
    EXPECT_EQ(exp::render_records(d.records), exp::render_records(parsed.records));
  }
}

TEST(Colfmt, TypedRowsRejectRaggedRowsAndNonFiniteDoubles) {
  exp::record_table table;
  table.keys = {"a", "b"};
  table.rows.push_back({exp::typed_value::u64(1)});
  std::string bytes;
  std::string error;
  EXPECT_FALSE(exp::colfmt_encoder(bytes).add(table, error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;

  table.rows[0].push_back(exp::typed_value::f64(std::nan("")));
  error.clear();
  EXPECT_FALSE(exp::colfmt_encoder(bytes).add(table, error));
  EXPECT_NE(error.find("'b'"), std::string::npos) << error;
}

TEST(Colfmt, U64PastTwoTo53SurvivesConvertToJsonExactly) {
  // A double holds every integer only up to 2^53, and a decoded u64 field
  // carries a double: past 2^53 it must keep its digits, or converting
  // the .amoc file to JSON would write a neighbouring integer.
  constexpr std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  exp::record_table table;
  table.keys = {"cell", "v"};
  table.rows = {{exp::typed_value::u64(0), exp::typed_value::u64(big)},
                {exp::typed_value::u64(0), exp::typed_value::u64(~0ull)}};
  std::string bytes;
  std::string error;
  exp::colfmt_encoder enc(bytes);
  ASSERT_TRUE(enc.add(table, error)) << error;
  enc.finish();
  const std::string dir = ::testing::TempDir();
  spit(dir + "/big.amoc", bytes);

  // What `amo_lab convert big.amoc big.json` does.
  const exp::parse_result loaded =
      exp::load_records_file((dir + "/big.amoc").c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_TRUE(exp::write_records_file_as((dir + "/big.json").c_str(),
                                         loaded.records,
                                         exp::record_format::json, error))
      << error;
  exp::json_writer json;
  json.add(table);
  EXPECT_EQ(slurp(dir + "/big.json"), json.dump());
  EXPECT_NE(json.dump().find("9007199254740993"), std::string::npos);
  EXPECT_NE(json.dump().find("18446744073709551615"), std::string::npos);
}

TEST(Colfmt, RecordFieldStaysCompact) {
  // The encoding byte sits in the padding beside type and truth.
  EXPECT_LE(sizeof(exp::record_field), 112u);
}

// --- golden bytes ---

/// A tiny grid over every scheduled family: kk (every schedule), ao2,
/// iterative, wa, tas, the Write-All baselines and model/explore_por.
svc::job golden_job() {
  svc::job j;
  j.scenarios = {"kk/round_robin",        "kk/random",
                 "kk/random+crash",       "kk/block4",
                 "kk/block64",            "kk/stale_view",
                 "kk/announce_crash",     "kk/trace_replay",
                 "iterative/round_robin", "iterative/random+crash",
                 "wa/round_robin",        "wa/random+crash",
                 "baseline/ao2",          "baseline/tas",
                 "baseline/wa_trivial",   "baseline/wa_split_scan",
                 "baseline/wa_progress_tree", "model/explore_por"};
  j.params.n = 24;
  j.params.m = 3;
  j.params.seeds = 1;
  j.params.replicas = 2;
  j.scheduled_only = true;
  j.no_timing = true;
  return j;
}

std::string golden_amoc(const svc::job& j, svc::worker_pool& pool) {
  const svc::job_result r = svc::execute_job(j, pool);
  EXPECT_TRUE(r.ok()) << r.error;
  std::string bytes;
  std::string error;
  EXPECT_TRUE(r.render_output(exp::record_format::colfmt, bytes, error))
      << error;
  return bytes;
}

TEST(Colfmt, GoldenAmocBytesAreStable) {
  // A U64 <-> F64 tag drift keeps the file size and the JSON round trip
  // identical, so only pinned bytes catch it. The hashes come from the
  // token-only encoder that typed values replaced; any change to them is
  // a format change and needs a version bump (docs/record_format.md).
  // The merge runs as the dispatcher's does: each shard's bytes pass the
  // streaming validation, then merge_stream folds byte sources over them.
  svc::worker_pool pool(2);
  std::vector<std::string> shards;
  std::vector<std::unique_ptr<exp::record_source>> sources;
  for (usize i = 0; i < 3; ++i) {
    svc::job j = golden_job();
    j.have_shard = true;
    j.shard = {i, 3};
    shards.push_back(golden_amoc(j, pool));
    std::string error;
    EXPECT_TRUE(exp::verify_shard_bytes(shards.back(), {j.shard}, error))
        << error;
    sources.push_back(exp::make_bytes_source(shards.back(), "shard"));
  }
  const std::string aggregate = golden_amoc(golden_job(), pool);
  const exp::merge_result merged = exp::merge_stream(std::move(sources));
  ASSERT_TRUE(merged.ok()) << merged.error;
  const std::string merged_bytes = encode_or_die(merged.records);

  const char* shard_fnv = "8e46559a10e6abc4";
  const char* aggregate_fnv = "cab720d342a965ba";
  EXPECT_EQ(fnv_hex64(fnv1a64(shards[1])), shard_fnv) << shards[1].size();
  EXPECT_EQ(fnv_hex64(fnv1a64(aggregate)), aggregate_fnv) << aggregate.size();
  EXPECT_EQ(fnv_hex64(fnv1a64(merged_bytes)), aggregate_fnv)
      << merged_bytes.size();
  EXPECT_EQ(merged_bytes, aggregate);
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
