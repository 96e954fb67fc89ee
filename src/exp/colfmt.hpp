// exp::colfmt — the compact columnar record format (.amoc) beside JSON.
//
// Flat JSON is the human view; .amoc is the raw-scale view of the SAME
// records: a versioned binary layout (normative byte-level spec in
// docs/record_format.md) holding one schema header — magic, version, grid
// fingerprint, grid sizes, the column (field-name) table, a header
// checksum — followed by one chunk per cell, each chunk holding one typed
// column block per field with per-block min/max for the numeric encodings
// and a content checksum, closed by an end marker. Chunks are
// self-delimiting, so a reader folds a file cell by cell in bounded
// memory (exp::merge_stream) instead of materializing every unit record.
//
// Losslessness is the contract that keeps the byte-identity invariant
// alive across the format boundary: decode(encode(records)) reproduces
// every record_field's value and token — a typed block's field carries
// its value and encoding, which spell the token on demand
// (exp::token_of), a verbatim block's field the stored token — so
// colfmt -> JSON conversion re-emits the very bytes json_writer wrote.
// The encoder picks, per column block, the narrowest encoding whose
// decode provably reproduces the raw tokens (u64 / f64 / str / bool /
// null), and falls back to verbatim raw-token storage for anything else
// (foreign escapes, exotic number spellings), so no input is ever
// approximated. It reads every value through one view (exp::value_view),
// so records and the report layer's typed rows take the same path: a
// value of known encoding is classified from the value itself, and only
// tokens read from JSON text are re-formatted to prove their tag. The
// decoder stamps each field with its block's encoding and formats no
// token.
//
// Readers validate everything — magic, version, flags, header checksum,
// per-chunk checksums, every length against the bytes actually present,
// the header counts against the decoded records — and report failures
// with the byte offset ("offset 72: ..."), plus the errno text on I/O
// errors, so a truncated or bit-flipped artifact is a precise diagnostic,
// never garbage records (fuzzed per byte in tests/test_exp_colfmt.cpp).
// Each byte is checked once: one pass computes a chunk's checksum and
// the input's content hash together, and checking an image in memory
// keeps its block index (colfmt_blocks), through which a merge reads the
// verified values in place instead of decoding them again.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/record.hpp"
#include "util/fnv.hpp"
#include "util/types.hpp"

namespace amo::exp {

/// The two on-disk spellings of a record array.
enum class record_format : std::uint8_t { json, colfmt };

/// The one version this writer emits and this reader accepts. Readers
/// must reject any other major version (docs/record_format.md).
inline constexpr std::uint16_t colfmt_version = 1;

/// The 4-byte file magic; a buffer/file starting with anything else is
/// not a .amoc file (the sniff every loader uses).
[[nodiscard]] bool is_colfmt(std::string_view bytes);

/// Format inference from a path: ".amoc" means colfmt, everything else
/// JSON — the rule behind `out=foo.amoc` in the job grammar and `--out`
/// on the CLI.
[[nodiscard]] record_format format_for_path(std::string_view path);

/// The decoded schema header of a .amoc file.
struct colfmt_header {
  std::uint64_t grid_fp = 0;      ///< grid fingerprint; 0 = records carry none
  std::uint64_t cells_total = 0;  ///< echo of the records' cells_total (0 = none)
  std::uint64_t units_total = 0;  ///< per-unit files; 0 = aggregate
  std::uint64_t replicas = 0;     ///< echo of the records' replicas (0 = none)
  std::uint64_t record_count = 0;
  std::uint64_t chunk_count = 0;
  std::vector<std::string> columns;  ///< field keys, schema order
};

/// Encodes records into .amoc bytes. The records must share one field
/// schema (identical key sequence — every record array the sweep/merge
/// emitters produce does); false with `error` otherwise, or when a raw
/// token would not survive the round trip.
[[nodiscard]] bool colfmt_encode(const std::vector<record>& records,
                                 std::string& out, std::string& error);

/// The one .amoc encoder: rows go in as they are made, and only the bytes
/// are kept. colfmt_encode adds a record array at once; a job's render
/// adds its typed rows one cell group (exp::row_group_sink) at a time, so
/// it never holds more than one cell's rows. The bytes equal
/// colfmt_encode's for the records parse_records reads from json_writer's
/// rendering of the same rows, and no token is formatted or parsed.
class colfmt_encoder {
 public:
  /// Encodes into `out`, replacing it. `rows_hint`, the rows expected in
  /// all, sizes `out` once from the first chunk.
  explicit colfmt_encoder(std::string& out, usize rows_hint = 0);

  /// Appends `count` rows of schema `columns` (read through `at`, row
  /// numbers counting from 0 in each call), one chunk per maximal run
  /// of consecutive rows sharing one integral "cell" value (rows without
  /// one stand alone; a run ends with the call). The first rows fix the
  /// schema. False with `error` (and `out` cleared) when a verbatim token
  /// would not re-parse or a typed double is not finite.
  [[nodiscard]] bool add(usize count, const std::vector<std::string>& columns,
                         const cell_at& at, std::string& error);

  /// add() of one typed row group; also false on a ragged row.
  [[nodiscard]] bool add(const record_table& group, std::string& error);

  /// Closes the bytes: end marker, header counts and checksum.
  void finish();

  /// The schema and the record and chunk counts so far.
  [[nodiscard]] const colfmt_header& header() const { return header_; }

 private:
  std::string& out_;
  usize rows_hint_ = 0;
  colfmt_header header_;  ///< the schema and the counts so far
};

/// Decodes and fully validates a .amoc buffer (a loop over colfmt_reader,
/// so both apply one rule set). Errors carry the byte offset.
[[nodiscard]] parse_result colfmt_decode(std::string_view bytes);

/// Reads + sniffs + decodes a record file of either format. File and
/// decode errors come back through .error, prefixed with the path.
[[nodiscard]] parse_result load_records_file(const char* path);

/// Renders records in the requested format: JSON via render_records,
/// colfmt via colfmt_encode. False with `error` on an encode failure.
[[nodiscard]] bool render_records_as(const std::vector<record>& records,
                                     record_format format, std::string& out,
                                     std::string& error);

/// Writes render_records_as() to `path` through util::write_file_atomic
/// (tmp + fsync + rename, so a killed writer never leaves a torn file);
/// false with `error` carrying the path and errno text.
[[nodiscard]] bool write_records_file_as(const char* path,
                                         const std::vector<record>& records,
                                         record_format format,
                                         std::string& error);

/// What checking a .amoc input learns of its chunks: each chunk's place
/// and row count and, per column, the block's encoding tag and where its
/// values start. A checked image is then read value by value through it
/// (at), with no second checksum pass and no decode into records. It
/// holds a few bytes per column block, not the values (a verbatim
/// block's tokens, parsed once when checked, excepted).
class colfmt_blocks {
 public:
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  [[nodiscard]] usize chunks() const { return chunks_.size(); }
  [[nodiscard]] usize rows(usize chunk) const { return chunks_[chunk].rows; }

  /// Row `row`, column `col` of chunk `chunk`, viewed in `image` — the
  /// bytes the index was made from, which the view points into.
  [[nodiscard]] value_view at(std::string_view image, usize chunk, usize row,
                              usize col) const;

  /// The records of an index holding one chunk (colfmt_reader::next_chunk
  /// with a frame), decoded from `image`, the chunk's bytes: how .amoc
  /// records are made, each column read front to back.
  void decode(std::string_view image, std::vector<record>& out) const;

 private:
  friend class colfmt_reader;
  struct block {
    std::uint32_t at = 0;  ///< the values' offset in the chunk; verbatim:
                           ///< the block's first token in verbatim_
    std::uint8_t tag = 0;
    /// A string block whose strings all have this length is read at a
    /// stride; kVaries walks its length prefixes.
    std::uint16_t width = 0;
  };
  static constexpr std::uint16_t kVaries = 0xFFFF;
  struct chunk {
    std::uint64_t offset = 0;  ///< where the chunk starts in the input
    std::uint32_t rows = 0;
    usize first = 0;  ///< its first block in blocks_
  };

  /// at() over chunk `c`'s bytes, starting at `bytes`.
  [[nodiscard]] value_view value(const char* bytes, const chunk& c, usize row,
                                 usize col) const;

  std::vector<std::string> columns_;
  std::vector<chunk> chunks_;
  std::vector<block> blocks_;
  std::vector<record_field> verbatim_;  ///< verbatim blocks' parsed tokens
};

/// Streaming .amoc reader over a stdio stream — a file or an in-memory
/// image: the header is read and validated at open(); next_chunk() then
/// checks one chunk at a time, so a merge of files holds the chunks its
/// current cell's rows come from, never a whole file. Every rule of docs/record_format.md is checked
/// here, once. The input is read once, front to back; a chunk's checksum
/// and, when hashing, the content hash are two FNV-1a chains of one pass
/// over its bytes (fnv1a64_append2).
class colfmt_reader {
 public:
  colfmt_reader() = default;
  ~colfmt_reader();
  colfmt_reader(const colfmt_reader&) = delete;
  colfmt_reader& operator=(const colfmt_reader&) = delete;

  /// Takes over `f` (a file, or util::open_memory over an image), which
  /// its caller may already have read `head` of (a format sniff), and
  /// validates the header. False with `error` (offset, errno text on I/O
  /// failure; the caller names the input). With `hash`, every byte read,
  /// `head` included, is folded into content_fnv64().
  [[nodiscard]] bool open(std::FILE* f, std::string_view head, bool hash,
                          std::string& error);

  /// Decodes the next chunk into `out`, replacing its contents but reusing
  /// its records' storage: the chunk is checked and indexed as below, then
  /// decoded through the index. Sets `end` (with `out` empty) once the end
  /// marker closes the input. False with `error` on any violation —
  /// including content after the end marker or an input that stops
  /// before it.
  [[nodiscard]] bool next_chunk(std::vector<record>& out, bool& end,
                                std::string& error);

  /// Checks the next chunk as the other next_chunk does, but records
  /// what it learned in `index` instead of decoding records. Without
  /// `frame` the chunk is appended, located in the input: for an image in
  /// memory, which index.at() then reads in place (an index takes the
  /// chunks of one input, in order, from its first). With `frame`, for an
  /// input read from a file, `index` holds this chunk alone and the
  /// chunk's bytes are handed over in `*frame` (its storage swapped with
  /// the reader's), which index.at() reads.
  [[nodiscard]] bool next_chunk(colfmt_blocks& index, bool& end,
                                std::string& error,
                                std::string* frame = nullptr);

  [[nodiscard]] const colfmt_header& header() const { return header_; }

  /// FNV-1a-64 of the input (opened with `hash`) once the end marker is
  /// read, or once hash_rest() completes it after a failure.
  [[nodiscard]] std::uint64_t content_fnv64() const { return fnv_; }

  /// Folds the rest of the input into content_fnv64(), so an input that
  /// failed midway still yields its whole hash. False on a read error.
  [[nodiscard]] bool hash_rest();

 private:
  bool read_header(std::string& error);
  /// next_chunk's body: checks the next frame and, for a chunk, indexes
  /// it into `index`.
  bool read_chunk(colfmt_blocks& index, bool& end, std::string& error);
  /// Checks chunk `chunk` (at input offset `base`, its checksum already
  /// verified) block by block, indexing it into `index`: the one chunk
  /// decoder, whatever is read of the chunk afterwards.
  static bool decode_chunk(std::string_view chunk, std::uint64_t base,
                           const std::vector<std::string>& columns,
                           colfmt_blocks& index, std::string& error);
  /// Extends the current frame by the input's next `n` bytes.
  bool extend(usize n, const char* what, std::string& error);
  /// Folds the frame's bytes not yet hashed into the content hash.
  void hash_frame();
  [[nodiscard]] std::string_view frame() const { return frame_; }

  std::FILE* file_ = nullptr;
  std::string frame_;  ///< the frame read so far, reused
  usize hashed_ = 0;   ///< frame_ bytes folded into fnv_
  colfmt_header header_;
  std::uint64_t offset_ = 0;  ///< input offset of the current frame
  std::uint64_t chunks_seen_ = 0;
  std::uint64_t records_seen_ = 0;
  std::uint64_t fnv_ = fnv1a64_offset;
  bool hash_ = false;  ///< fold file bytes into fnv_
  bool open_ = false;  ///< the header validated
  colfmt_blocks records_index_;  ///< next_chunk(records): the chunk's index
  std::string records_frame_;    ///< and its bytes
};

/// Streaming .amoc writer for content too large to buffer (bench_records
/// writes a million units through it): each call's chunks, made by
/// colfmt_encoder, go to the file at once. Same crash discipline as
/// util::write_file_atomic: bytes land in "<path>.tmp", the header counts
/// and checksum are patched in place, the file is fsynced, and only then
/// renamed — a killed writer never publishes a torn artifact. The schema
/// (column table) is fixed by the first chunk's first record.
class colfmt_writer {
 public:
  colfmt_writer() = default;
  ~colfmt_writer();
  colfmt_writer(const colfmt_writer&) = delete;
  colfmt_writer& operator=(const colfmt_writer&) = delete;

  [[nodiscard]] bool open(const char* path, std::string& error);

  /// Appends records (at least one; one chunk per cell run, as
  /// colfmt_encoder::add). Every record must match the schema established
  /// by the first call.
  [[nodiscard]] bool add_chunk(const std::vector<record>& rows,
                               std::string& error);

  /// Writes the end marker, patches the header, fsyncs, renames. The
  /// writer is closed afterwards whatever the outcome.
  [[nodiscard]] bool finish(std::string& error);

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::string tmp_;
  std::string buf_;  ///< encoded bytes not yet written
  colfmt_encoder enc_{buf_};
  std::vector<std::string> columns_;
  std::uint64_t bytes_ = 0;
};

}  // namespace amo::exp
