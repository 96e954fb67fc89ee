// Recombines sharded sweep outputs into the byte-identical equivalent of
// the unsharded sweep — as a STREAMING fold.
//
// Shards emit one record per (cell, replica) UNIT, keyed by
// "unit"/"units_total"; the merge re-groups the units by cell and folds
// each cell's replicas with exp::fold_cell, the one aggregate fold, which
// an unsharded sweep's cell_record_rows runs over its own unit rows. The
// output is byte identical to the unsharded sweep's because the unit
// rows read back carry their writer's exact values (json_writer::num is
// round-trip-exact) and the fold is a deterministic function of them.
//
// merge_stream is the one merge path (dispatch, `merge --manifest`,
// `amo_lab merge`). It k-way-merges record_sources — in-memory arrays,
// record files, or file images in memory — holding one head row per
// source plus at most one cell's replicas; a .amoc file streams chunk by
// chunk (exp::colfmt_reader), so a merge over million-unit shard files
// never materializes a full-sweep record vector. A .amoc input is never
// decoded into records: its rows are read in place through the block
// index its check learns (exp::colfmt_blocks), a file's chunk by chunk.
// The dispatcher verifies each shard image once — chunk checksums and
// content hash in one pass, blocks checked once — and folds the verified
// image through the index that check kept, with no second checksum pass,
// no second decode and no per-unit record. Every source must be
// index-ascending, as every writer here guarantees; one that is not is
// refused ("records out of order"), never sorted.
//
// A source told what its shard owes (shard_owed) checks it itself: the
// one shard contract of dispatch validation, `--resume` and `merge
// --manifest`, each of which reads a shard file once.
//
// The contract is strict: the shards must agree on the grid
// (fingerprint + sizes), and the union must cover the whole index space
// with no duplicate and no gap — anything else (a shard run twice, a shard
// missing, shards from different grids, a cell missing a replica) is an
// error, not a best-effort output.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/colfmt.hpp"
#include "exp/record.hpp"
#include "exp/shard.hpp"

namespace amo::exp {

struct merge_result {
  std::vector<record> records;  ///< sorted by cell index; empty on error
  usize cells_total = 0;        ///< the grid size the shards agreed on
  usize units_total = 0;        ///< units recombined
  std::string error;            ///< empty on success
  /// The error's kind: an input that could not be read as records (I/O,
  /// parse or decode failure; `amo_lab merge` exits 3), else records the
  /// contract refused (exit 2).
  bool unreadable = false;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// One record as a source yields it: a record of its own, or row `row`
/// of chunk `chunk` of checked .amoc bytes, read in place through their
/// block index — a whole image's, which outlives the merge, or one chunk
/// read from a file, which `keep` holds while the row is in use.
struct source_row {
  record rec;                             ///< the row, when blocks is null
  const colfmt_blocks* blocks = nullptr;  ///< else the bytes' index
  std::string_view image;                 ///< the bytes
  usize chunk = 0;
  usize row = 0;
  std::shared_ptr<const void> keep;  ///< owns a file chunk's bytes

  /// The first field named `key`, or value_view{} when there is none;
  /// column `hint` is tried first and left at the field found, so rows of
  /// one schema cost one key compare per lookup.
  [[nodiscard]] value_view get(std::string_view key, usize& hint) const;
};

/// One ordered stream of records (a shard). next() yields records until it
/// sets `end`; false with `error` on any failure (I/O, parse, a corrupt
/// .amoc chunk). A source is pulled single-threaded and in order.
class record_source {
 public:
  virtual ~record_source() = default;
  [[nodiscard]] virtual bool next(source_row& out, bool& end,
                                  std::string& error) = 0;
  /// After a failed next(): whether the input could not be read as
  /// records (merge_result::unreadable), rather than being refused.
  [[nodiscard]] virtual bool unreadable() const = 0;
};

/// Wraps an in-memory record array (already index-sorted) as a source.
[[nodiscard]] std::unique_ptr<record_source> make_memory_source(
    std::vector<record> records);

/// What a shard file owes: exactly the units {slice.index, slice.index +
/// slice.count, ...} below its own units_total, in order, under one
/// units_total and grid; and, once a checkpoint exists, bytes whose
/// FNV-1a-64 is `fnv64` (fnv_hex64's spelling; "" = no checkpoint).
struct shard_owed {
  shard_ref slice;
  std::string fnv64 = {};
};

/// Wraps a record file as a source, opened at the first next() and read
/// exactly once: .amoc (sniffed by magic) streams chunk by chunk through
/// colfmt_reader, its rows read in place from each checked chunk; JSON is
/// parsed whole (the slow path). Errors carry the
/// path. With `owed`, each record is checked against the slice as it is
/// yielded, every byte is hashed, and the end fails on a short slice or a
/// hash other than the checkpoint's: a merge folds only bytes it hashed.
/// Any failure of a file that does not hash to its checkpoint is reported
/// as that mismatch ("content hash ... disagrees with the manifest ...").
[[nodiscard]] std::unique_ptr<record_source> make_file_source(
    std::string path, std::optional<shard_owed> owed = std::nullopt);

/// make_file_source over a record file image in memory, which must
/// outlive the source and the merge. Errors are prefixed with `name`. A
/// .amoc image is checked chunk by chunk and its rows are read in place,
/// never decoded into records. Given `blocks`, the index verify_shard_bytes
/// learned of these very bytes, the source reads the rows through it and
/// checks nothing again: no checksum, no decode (the dispatcher's merge).
[[nodiscard]] std::unique_ptr<record_source> make_bytes_source(
    std::string_view bytes, std::string name,
    const colfmt_blocks* blocks = nullptr);

/// Where merge_stream delivers each output record when the caller wants
/// to stream them onward (e.g. into a colfmt_writer chunk by chunk)
/// instead of accumulating merge_result.records. False aborts the merge
/// with `error`. Records are provisional until the merge succeeds.
using record_sink = std::function<bool(record&&, std::string& error)>;

/// The streaming fold: k-way-merges the sources by unit index, validates
/// the grid/coverage contract, folds each complete cell's replicas, and
/// emits aggregates — to `sink` when given (records is left empty), else
/// into merge_result.records, which a failed merge leaves empty. Bounded
/// memory: one head record per source + one cell's replicas, independent
/// of sweep size.
merge_result merge_stream(std::vector<std::unique_ptr<record_source>> sources,
                          const record_sink& sink = {});

/// Drains a source over `records` told that they owe slice `s`: false
/// with `error` on the first violation of shard_owed's slice rules. An
/// empty record array passes (a shard can legitimately own zero units).
bool verify_shard_records(const std::vector<record>& records,
                          const shard_ref& s, std::string& error);

/// Drains a source over a shard file image told what it owes: false with
/// the first failure in file order, or with the checkpoint mismatch when
/// the image does not hash to it. One pass: each chunk's checksum and the
/// image's hash are computed together, and its blocks checked once.
/// `fnv64`, when given, receives the image's hash; `blocks`, the block
/// index of a .amoc image (empty for JSON or on failure), which
/// make_bytes_source then merges the image through.
bool verify_shard_bytes(std::string_view bytes, const shard_owed& owed,
                        std::string& error, std::uint64_t* fnv64 = nullptr,
                        colfmt_blocks* blocks = nullptr);

}  // namespace amo::exp
