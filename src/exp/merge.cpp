#include "exp/merge.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "exp/colfmt.hpp"
#include "exp/stats.hpp"
#include "obs/telemetry.hpp"
#include "util/fileio.hpp"
#include "util/fnv.hpp"

namespace amo::exp {

namespace {

/// Field `key` of `row`, at column `hint`: read there outright when
/// `known` (the row's schema is the one the hint was found in), else
/// looked up from it (source_row::get), which leaves the hint where the
/// field is.
value_view field_of(const source_row& row, std::string_view key, usize& hint,
                    bool known) {
  return known ? row.blocks->at(row.image, row.chunk, row.row, hint)
               : row.get(key, hint);
}

/// Reads field `key` as an index: a non-negative integer below 2^53, the
/// range a double holds exactly. False when absent, non-numeric,
/// fractional, non-finite or too large — so no spelling of a huge number
/// can be cast out of range and read as some other unit.
bool read_index(const source_row& row, const char* key, usize& out,
                usize& hint, bool known) {
  const value_view v = field_of(row, key, hint, known);
  if (v.type != json::kind::number) return false;
  if (!(v.number >= 0 && v.number < 0x1p53) ||
      v.number != std::floor(v.number)) {
    return false;
  }
  out = static_cast<usize>(v.number);
  return true;
}

std::string shard_tag(usize si) { return "shard " + std::to_string(si); }

std::string_view grid_of(const source_row& row, usize& hint, bool known) {
  const value_view g = field_of(row, "grid", hint, known);
  return g.type == json::kind::string ? g.text : std::string_view();
}

/// Where the index fields sat in the last record read and, once all were
/// found in a block index's schema, that schema: its rows are read at
/// these columns with no key compare, which would cost more than the
/// value read.
struct index_hints {
  usize unit = 0;
  usize units_total = 0;
  usize cell = 0;
  usize cells_total = 0;
  usize replica = 0;
  usize replicas = 0;
  usize grid = 0;
  const std::vector<std::string>* schema = nullptr;

  /// Whether `row` is read at the hints, finding them first in a block
  /// index schema other than the last one.
  bool known(const source_row& row) {
    if (row.blocks == nullptr) return false;
    const std::vector<std::string>& columns = row.blocks->columns();
    if (&columns == schema) return true;
    const auto find = [&](const char* key, usize& at) {
      at = static_cast<usize>(std::find(columns.begin(), columns.end(), key) -
                              columns.begin());
      return at < columns.size();
    };
    const bool all = find("unit", unit) && find("units_total", units_total) &&
                     find("cell", cell) && find("cells_total", cells_total) &&
                     find("replica", replica) && find("replicas", replicas) &&
                     find("grid", grid);
    schema = all ? &columns : nullptr;
    return all;
  }
};

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// One chunk read from a .amoc file: its bytes and their block index,
/// shared by the rows read from it until the merge lets them go.
struct file_chunk {
  std::string bytes;
  colfmt_blocks index;
};

/// The one record_source: records in memory, a record file, or a record
/// file image in memory. A file or image is opened at the first next()
/// and read once. A .amoc input is checked chunk by chunk by
/// colfmt_reader and its rows are read in place, never decoded into
/// records: an image through one block index of the whole image (given
/// the index its verification kept, with no check at all), a file
/// through each chunk's own bytes and index, recycled once no row holds
/// them. JSON is parsed whole, its grammar not being self-delimiting per
/// record. Told what a shard owes, the source checks each record it
/// yields and hashes every byte it reads, so what reaches a merge is
/// exactly what was hashed.
class buffered_source final : public record_source {
 public:
  explicit buffered_source(std::vector<record> records,
                           std::optional<shard_owed> owed = std::nullopt)
      : in_memory_(true), buffer_(std::move(records)), owed_(std::move(owed)) {}
  buffered_source(std::string path, std::optional<shard_owed> owed)
      : name_(std::move(path)), owed_(std::move(owed)) {}
  /// An image; `index` receives its block index (else the source keeps
  /// its own), or, when `verified`, already holds it.
  buffered_source(std::string_view image, std::string name,
                  std::optional<shard_owed> owed, colfmt_blocks* index,
                  const colfmt_blocks* verified = nullptr)
      : bytes_(image), name_(std::move(name)), image_(true),
        fill_(index != nullptr ? index : &own_blocks_), blocks_(verified),
        owed_(std::move(owed)) {
    if (verified != nullptr) {
      opened_ = true;
      chunks_done_ = true;
    } else {
      *fill_ = colfmt_blocks();
    }
  }

  bool next(source_row& out, bool& end, std::string& error) override {
    if (!opened_ && !open(error)) return false;
    if (!fill_rows(error)) return fail(error, true);
    if (!row_ready()) {
      end = true;
      return !owed_ || (owed_all(error) && checkpoint_matches()) ||
             fail(error, false);
    }
    if (blocks_ != nullptr) {
      out.blocks = blocks_;
      out.image = bytes_;
      out.chunk = chunk_;
      out.row = row_++;
      out.keep = chunk_owner_;
    } else {
      out.rec = std::move(buffer_[pos_++]);
      out.blocks = nullptr;
      out.keep.reset();
    }
    return !owed_ || owed_record(out, error) || fail(error, false);
  }

  [[nodiscard]] bool unreadable() const override { return unreadable_; }

  /// FNV-1a-64 of every byte read (a source told what a shard owes).
  [[nodiscard]] std::uint64_t content_fnv64() const {
    return col_ != nullptr ? col_->content_fnv64() : fnv_;
  }

 private:
  /// Whether a row is ready, skipping chunks whose rows are spent.
  bool row_ready() {
    if (blocks_ == nullptr) return pos_ < buffer_.size();
    while (chunk_ < blocks_->chunks() && row_ >= blocks_->rows(chunk_)) {
      ++chunk_;
      row_ = 0;
    }
    return chunk_ < blocks_->chunks();
  }

  /// Checks chunks until a row is ready or the input ends.
  bool fill_rows(std::string& error) {
    while (col_ != nullptr && !chunks_done_ && !row_ready()) {
      if (image_) {
        if (!col_->next_chunk(*fill_, chunks_done_, error)) return false;
        continue;
      }
      // A file: the next chunk goes into a chunk no row holds any more.
      chunk_owner_.reset();
      std::shared_ptr<file_chunk> c;
      for (const std::shared_ptr<file_chunk>& spare : file_chunks_) {
        if (spare.use_count() == 1) c = spare;
      }
      if (c == nullptr) {
        c = file_chunks_.emplace_back(std::make_shared<file_chunk>());
      }
      if (!col_->next_chunk(c->index, chunks_done_, error, &c->bytes)) {
        return false;
      }
      chunk_owner_ = c;
      blocks_ = &c->index;
      bytes_ = c->bytes;
      chunk_ = 0;
      row_ = 0;
    }
    return true;
  }

  /// Names the input in `error` and records its kind (`unreadable`: it
  /// could not be read or decoded). A shard that owes a checkpoint hash is
  /// judged by it first: bytes other than the checkpointed ones are
  /// refused as such, whatever broke in them.
  bool fail(std::string& error, bool unreadable) {
    unreadable_ = unreadable;
    if (!checkpoint_matches()) {
      unreadable_ = false;
      error = "content hash " + fnv_hex64(content_fnv64()) +
              " disagrees with the manifest checkpoint " + owed_->fnv64 +
              " (file changed since the dispatch validated it)";
    }
    if (!name_.empty()) error = name_ + ": " + error;
    return false;
  }

  /// Whether the input hashes to the checkpoint's value (true without
  /// one). Reads what is left first, so an input that failed midway is
  /// judged by its whole hash; a read error leaves the failure in hand.
  bool checkpoint_matches() {
    if (!owed_ || owed_->fnv64.empty()) return true;
    if (col_ != nullptr && !col_->hash_rest()) return true;
    return fnv_hex64(content_fnv64()) == owed_->fnv64;
  }

  bool open(std::string& error) {
    opened_ = true;
    if (owed_) {
      const shard_ref& s = owed_->slice;
      if (!s.valid()) {
        error = "invalid shard reference " + std::to_string(s.index) + "/" +
                std::to_string(s.count);
        return false;
      }
      tag_ = "shard " + to_string(s);
    }
    if (in_memory_) return true;
    std::FILE* f =
        image_ ? open_memory(bytes_) : std::fopen(name_.c_str(), "rb");
    if (f == nullptr) {
      error = "cannot open " + name_ + ": " + std::strerror(errno);
      unreadable_ = true;
      return false;
    }
    char magic[4] = {};
    const usize got = std::fread(magic, 1, sizeof magic, f);
    if (is_colfmt(std::string_view(magic, got))) {
      col_ = std::make_unique<colfmt_reader>();
      if (image_) blocks_ = fill_;  // a file's chunks bring their own
      return col_->open(f, std::string_view(magic, got), owed_.has_value(),
                        error) ||
             fail(error, true);
    }
    // JSON parses whole, once read to the end.
    std::string text(magic, got);
    const bool read = read_rest(f, text);
    std::fclose(f);
    if (!read) {
      error = "cannot read " + name_ + ": " + std::strerror(errno);
      unreadable_ = true;
      return false;
    }
    if (owed_) fnv_ = fnv1a64(text);
    parse_result parsed = parse_records(text);
    if (!parsed.ok()) {
      error = std::move(parsed.error);
      return fail(error, true);
    }
    buffer_ = std::move(parsed.records);
    return true;
  }

  /// The slice rules on the record just yielded: one units_total and grid
  /// across the file, and unit indices exactly the strided partition.
  bool owed_record(const source_row& rec, std::string& error) {
    usize idx = 0;
    usize this_total = 0;
    const bool known = hints_.known(rec);
    if (!read_index(rec, "unit", idx, hints_.unit, known) ||
        !read_index(rec, "units_total", this_total, hints_.units_total,
                    known)) {
      error = tag_ + ": record " + std::to_string(seen_) +
              " lacks integer unit/units_total fields (torn or foreign shard "
              "file?)";
      return false;
    }
    const std::string_view this_grid = grid_of(rec, hints_.grid, known);
    if (seen_ == 0) {
      total_ = this_total;
      grid_ = this_grid;
    } else if (this_total != total_ || this_grid != grid_) {
      error = tag_ + ": record " + std::to_string(seen_) +
              " disagrees with the file's own units_total/grid (corrupted "
              "shard file?)";
      return false;
    }
    if (idx >= total_) {
      error = tag_ + ": unit index " + std::to_string(idx) +
              " out of range [0, " + std::to_string(total_) + ")";
      return false;
    }
    const usize expect = owed_->slice.index + seen_ * owed_->slice.count;
    if (idx != expect) {
      error = tag_ + ": record " + std::to_string(seen_) + " holds unit " +
              std::to_string(idx) + " where unit " + std::to_string(expect) +
              " was owed (torn, truncated, or reordered shard file?)";
      return false;
    }
    ++seen_;
    return true;
  }

  /// At the end: every unit owed was there (a shard can legitimately own
  /// nothing).
  bool owed_all(std::string& error) const {
    const shard_ref& s = owed_->slice;
    const usize owed =
        total_ > s.index ? (total_ - s.index - 1) / s.count + 1 : 0;
    if (seen_ == 0 || seen_ == owed) return true;
    error = tag_ + ": holds " + std::to_string(seen_) + " of " +
            std::to_string(owed) + " owed units (units_total " +
            std::to_string(total_) + ") — truncated shard file?";
    return false;
  }

  std::string_view bytes_;  ///< the image, or the file chunk rows come from
  std::string name_;        ///< the path, or the image's name for errors
  bool image_ = false;
  bool unreadable_ = false;  ///< the last failure's kind
  bool in_memory_ = false;  ///< buffer_ holds the records from the start
  bool opened_ = false;
  bool chunks_done_ = false;
  std::unique_ptr<colfmt_reader> col_;  ///< a .amoc input being checked
  std::vector<record> buffer_;  ///< the records, or the JSON file's
  usize pos_ = 0;
  colfmt_blocks own_blocks_;       ///< an image's index, unless given one
  colfmt_blocks* fill_ = nullptr;  ///< where the reader indexes an image
  const colfmt_blocks* blocks_ = nullptr;  ///< set iff rows are read in place
  usize chunk_ = 0;  ///< the next row in place: chunk and row
  usize row_ = 0;
  /// A file's chunks, recycled when no row holds them; the current one.
  std::vector<std::shared_ptr<file_chunk>> file_chunks_;
  std::shared_ptr<const void> chunk_owner_;

  std::optional<shard_owed> owed_;  ///< what the shard owes, if told
  std::string tag_;                 ///< "shard i/k", for its errors
  std::uint64_t fnv_ = fnv1a64_offset;  ///< a JSON input's hash
  usize seen_ = 0;                      ///< records yielded
  usize total_ = 0;                     ///< the file's units_total
  std::string grid_;                    ///< the file's grid fingerprint
  index_hints hints_;
};

/// Pulls `src` to its end; false with the first failure.
bool drain(record_source& src, std::string& error) {
  source_row rec;
  for (bool end = false; !end;) {
    if (!src.next(rec, end, error)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-record validation (shared contract state of a running merge)
// ---------------------------------------------------------------------------

/// The grid agreement state every pulled record is checked against,
/// anchored by the first record seen.
struct merge_ctx {
  bool first_seen = false;
  std::string grid;
  usize units_total = 0;
  usize cells_total = 0;
};

/// One unit record's place in the grid.
struct unit_pos {
  usize unit = 0;
  usize cell = 0;
  usize replica = 0;
  usize replicas = 0;
};

/// Validates one unit record of shard `si`, yielding its place in the
/// grid; `h` is where that shard's index fields sat.
bool check_unit_record(const source_row& rec, usize si, merge_ctx& ctx,
                       index_hints& h, unit_pos& pos, std::string& error) {
  usize units_total = 0;
  usize cells_total = 0;
  const bool known = h.known(rec);
  if (!read_index(rec, "unit", pos.unit, h.unit, known) ||
      !read_index(rec, "units_total", units_total, h.units_total, known) ||
      !read_index(rec, "cell", pos.cell, h.cell, known) ||
      !read_index(rec, "cells_total", cells_total, h.cells_total, known) ||
      !read_index(rec, "replica", pos.replica, h.replica, known) ||
      !read_index(rec, "replicas", pos.replicas, h.replicas, known)) {
    error = shard_tag(si) +
            ": record without integer unit/units_total/cell/cells_total/"
            "replica/replicas fields (not a sharded sweep output?)";
    return false;
  }
  const std::string_view this_grid = grid_of(rec, h.grid, known);
  if (!ctx.first_seen) {
    ctx.units_total = units_total;
    ctx.cells_total = cells_total;
    ctx.grid = this_grid;
    ctx.first_seen = true;
  }
  if (units_total != ctx.units_total || cells_total != ctx.cells_total) {
    error = shard_tag(si) + ": units_total/cells_total " +
            std::to_string(units_total) + "/" + std::to_string(cells_total) +
            " disagree with " + std::to_string(ctx.units_total) + "/" +
            std::to_string(ctx.cells_total) + " (shards of different grids?)";
    return false;
  }
  if (this_grid != ctx.grid) {
    error = shard_tag(si) + ": grid fingerprint '" + std::string(this_grid) +
            "' disagrees with '" + ctx.grid +
            "' (shards of different sweeps)";
    return false;
  }
  if (pos.unit >= units_total || pos.cell >= cells_total ||
      pos.replica >= pos.replicas) {
    error = shard_tag(si) + ": unit " + std::to_string(pos.unit) + " (cell " +
            std::to_string(pos.cell) + ", replica " +
            std::to_string(pos.replica) + "/" + std::to_string(pos.replicas) +
            ") out of range";
    return false;
  }
  return true;
}

}  // namespace

value_view source_row::get(std::string_view key, usize& hint) const {
  if (blocks == nullptr) {
    const record_field* f = rec.find(key, hint);
    return f != nullptr ? view_of(*f) : value_view{};
  }
  const std::vector<std::string>& columns = blocks->columns();
  if (hint >= columns.size() || columns[hint] != key) {
    hint = 0;
    while (hint < columns.size() && columns[hint] != key) ++hint;
    if (hint == columns.size()) {
      hint = 0;
      return {};
    }
  }
  return blocks->at(image, chunk, row, hint);
}

std::unique_ptr<record_source> make_memory_source(std::vector<record> records) {
  return std::make_unique<buffered_source>(std::move(records));
}

std::unique_ptr<record_source> make_file_source(
    std::string path, std::optional<shard_owed> owed) {
  return std::make_unique<buffered_source>(std::move(path), std::move(owed));
}

std::unique_ptr<record_source> make_bytes_source(std::string_view bytes,
                                                 std::string name,
                                                 const colfmt_blocks* blocks) {
  return std::make_unique<buffered_source>(bytes, std::move(name),
                                           std::nullopt, nullptr, blocks);
}

namespace {

/// merge_stream's body; its caller drops the records of a failed merge.
merge_result merge_sources(std::vector<std::unique_ptr<record_source>> sources,
                           const record_sink& sink) {
  merge_result out;
  const usize k = sources.size();
  obs::span msp("merge", "merge_stream");
  msp.arg("sources", static_cast<std::uint64_t>(k));

  merge_ctx ctx;

  /// One head record per source — the whole residency of the k-way merge.
  struct head {
    source_row row;
    index_hints hints;  ///< where this source's index fields sit
    unit_pos pos;
    usize idx = 0;
    bool alive = false;
    bool any = false;    ///< this source has yielded at least one record
    usize prev_idx = 0;  ///< last index yielded (order enforcement)
  };
  std::vector<head> heads(k);
  usize seen = 0;  ///< records pulled across all sources

  // Pulls source si's next row into its head (whose row was taken).
  auto pull = [&](usize si) -> bool {
    head& h = heads[si];
    h.alive = false;
    source_row& rec = h.row;
    bool end = false;
    std::string err;
    if (!sources[si]->next(rec, end, err)) {
      out.error = std::move(err);
      out.unreadable = sources[si]->unreadable();
      return false;
    }
    if (end) return true;
    ++seen;
    // Strided progress gauges: cheap enough to leave in the pull loop.
    if ((seen & 1023) == 0) {
      obs::counter("merge", "records_in", static_cast<double>(seen));
    }
    unit_pos pos;
    if (!check_unit_record(rec, si, ctx, h.hints, pos, out.error)) {
      return false;
    }
    const usize idx = pos.unit;
    if (h.any && idx < h.prev_idx) {
      out.error = shard_tag(si) + ": records out of order (index " +
                  std::to_string(idx) + " after " +
                  std::to_string(h.prev_idx) +
                  ") — streaming merge needs index-sorted shards";
      return false;
    }
    h.pos = pos;
    h.idx = idx;
    h.alive = true;
    h.any = true;
    h.prev_idx = idx;
    return true;
  };

  for (usize si = 0; si < k; ++si) {
    if (!pull(si)) return out;
  }

  usize emitted = 0;  ///< merged records handed to the sink
  auto emit = [&](record&& rec) -> bool {
    ++emitted;
    if ((emitted & 255) == 0) {
      obs::counter("merge", "cells_out", static_cast<double>(emitted));
    }
    if (sink) {
      std::string err;
      if (!sink(std::move(rec), err)) {
        out.error = std::move(err);
        return false;
      }
      return true;
    }
    out.records.push_back(std::move(rec));
    return true;
  };

  usize expect = 0;  ///< next index owed by the union of the sources
  bool have_prev = false;
  usize prev_idx = 0;
  usize prev_shard = 0;
  // A gap does not abort immediately: the remaining records are still
  // pulled (validated, duplicate-checked) so the final message can say
  // how much of the index space the shards actually covered — and so a
  // duplicate, which outranks a gap diagnostically, is still found.
  bool gap = false;
  usize gap_at = 0;

  // Unit path: the current cell's replicas, in order. Bounded by R.
  std::vector<source_row> cell_units;
  // The fold reads the cell's rows in replica 0's schema: a block row
  // whose index has that schema by position, any other by key.
  std::vector<std::string> keys;  ///< a record replica 0's schema
  const std::vector<std::string>* columns = nullptr;
  std::vector<char> by_position;  ///< per row of the cell
  // Pairs of block-index schemas found equal, so each pair is compared
  // once per merge, not once per row. (A record's schema, in `keys`,
  // changes from cell to cell and is compared each time.)
  std::vector<std::pair<const void*, const void*>> same;
  const auto same_schema = [&](const std::vector<std::string>& a) {
    if (&a == columns) return true;
    if (columns == &keys) return a == keys;
    for (const auto& [x, y] : same) {
      if (x == &a && y == columns) return true;
    }
    if (a != *columns) return false;
    same.emplace_back(&a, columns);
    return true;
  };
  const auto at = [&](usize r, usize c) {
    const source_row& u = cell_units[r];
    if (by_position[r] != 0) return u.blocks->at(u.image, u.chunk, u.row, c);
    usize hint = c;
    return u.get((*columns)[c], hint);
  };
  record agg;
  const auto put = [&agg](std::string_view key, const value_view& v) {
    assign(agg.fields.emplace_back(), key, v);
  };
  usize expect_cell = 0;
  usize cell_replicas = 0;

  while (true) {
    usize best = k;
    for (usize si = 0; si < k; ++si) {
      if (heads[si].alive && (best == k || heads[si].idx < heads[best].idx)) {
        best = si;
      }
    }
    if (best == k) break;  // every source drained

    if (have_prev && heads[best].idx == prev_idx) {
      out.error = "duplicate unit " + std::to_string(prev_idx) + " (shards " +
                  std::to_string(prev_shard) + " and " +
                  std::to_string(best) + " both ran it)";
      return out;
    }
    if (heads[best].idx != expect && !gap) {
      gap = true;
      gap_at = expect;
    }
    expect = heads[best].idx + 1;
    have_prev = true;
    prev_idx = heads[best].idx;
    prev_shard = best;
    source_row rec = std::move(heads[best].row);
    const unit_pos pos = heads[best].pos;
    if (!pull(best)) return out;
    if (gap) continue;  // keep validating, stop folding/emitting

    // Unit coverage is contiguous so far; the records must additionally
    // tile the grid cell-major — cells 0..cells_total-1 in order, each
    // cell's replicas 0..R-1 in order. Anything else means the records
    // lie about their grid.
    const usize cell = pos.cell;
    const usize replica = pos.replica;
    const usize replicas = pos.replicas;
    if (cell_units.empty()) {
      if (cell != expect_cell) {
        out.error = "unit " + std::to_string(pos.unit) + " claims cell " +
                    std::to_string(cell) + " where cell " +
                    std::to_string(expect_cell) +
                    " was expected (inconsistent unit numbering)";
        return out;
      }
      cell_replicas = replicas;
    }
    if (cell != expect_cell || replica != cell_units.size() ||
        replicas != cell_replicas) {
      out.error = "cell " + std::to_string(expect_cell) + ": replica " +
                  std::to_string(cell_units.size()) + " of " +
                  std::to_string(cell_replicas) +
                  " missing or inconsistent";
      return out;
    }
    cell_units.push_back(std::move(rec));
    if (cell_units.size() == cell_replicas) {
      const source_row& base = cell_units.front();
      if (base.blocks != nullptr) {
        columns = &base.blocks->columns();
      } else {
        keys.resize(base.rec.fields.size());
        for (usize c = 0; c < keys.size(); ++c) {
          keys[c] = base.rec.fields[c].key;
        }
        columns = &keys;
      }
      by_position.resize(cell_units.size());
      for (usize r = 0; r < cell_units.size(); ++r) {
        const source_row& u = cell_units[r];
        by_position[r] = u.blocks != nullptr && same_schema(u.blocks->columns());
      }
      agg.fields.clear();
      agg.fields.reserve(columns->size() + 24);  // + the summaries
      if (!fold_cell(cell_units.size(), *columns, at, put, out.error) ||
          !emit(std::move(agg))) {
        return out;
      }
      cell_units.clear();
      ++expect_cell;
    }
  }

  msp.arg("records_in", static_cast<std::uint64_t>(seen));
  msp.arg("records_out", static_cast<std::uint64_t>(emitted));

  if (!ctx.first_seen) return out;  // no records anywhere: empty success

  out.cells_total = ctx.cells_total;
  out.units_total = ctx.units_total;
  if (gap || expect != ctx.units_total) {
    out.error = "coverage gap: unit " + std::to_string(gap ? gap_at : expect) +
                " missing (" + std::to_string(seen) + " of " +
                std::to_string(ctx.units_total) + " units present)";
  } else if (!cell_units.empty()) {
    out.error = "cell " + std::to_string(expect_cell) + ": replica " +
                std::to_string(cell_units.size()) + " of " +
                std::to_string(cell_replicas) + " missing or inconsistent";
  } else if (expect_cell != ctx.cells_total) {
    out.error = "coverage gap: cell " + std::to_string(expect_cell) +
                " missing (" + std::to_string(expect_cell) + " of " +
                std::to_string(ctx.cells_total) + " cells present)";
  }
  return out;
}

}  // namespace

merge_result merge_stream(std::vector<std::unique_ptr<record_source>> sources,
                          const record_sink& sink) {
  merge_result out = merge_sources(std::move(sources), sink);
  if (!out.ok()) out.records.clear();
  return out;
}

bool verify_shard_records(const std::vector<record>& records,
                          const shard_ref& s, std::string& error) {
  buffered_source src(records, shard_owed{s});
  return drain(src, error);
}

bool verify_shard_bytes(std::string_view bytes, const shard_owed& owed,
                        std::string& error, std::uint64_t* fnv64,
                        colfmt_blocks* blocks) {
  buffered_source src(bytes, {}, owed, blocks);
  if (!drain(src, error)) {
    if (blocks != nullptr) *blocks = colfmt_blocks();
    return false;
  }
  if (fnv64 != nullptr) *fnv64 = src.content_fnv64();
  return true;
}

}  // namespace amo::exp
