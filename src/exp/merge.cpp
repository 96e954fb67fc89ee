#include "exp/merge.hpp"

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

/// Reads field `key` as an index: a non-negative integer below 2^53, the
/// range a double holds exactly. False when absent, non-numeric,
/// fractional, non-finite or too large — so no spelling of a huge number
/// can be cast out of range and read as some other unit. `hint` is the
/// field's position in the last record read (record::find), so records of
/// one schema cost one key compare.
bool read_index(const record& rec, const char* key, usize& out,
                usize& hint) {
  const record_field* f = rec.find(key, hint);
  if (f == nullptr || f->type != record_field::kind::number) return false;
  if (!(f->number >= 0 && f->number < 0x1p53) ||
      f->number != std::floor(f->number)) {
    return false;
  }
  out = static_cast<usize>(f->number);
  return true;
}

std::string shard_tag(usize si) { return "shard " + std::to_string(si); }

std::string_view grid_of(const record& rec, usize& hint) {
  const record_field* g = rec.find("grid", hint);
  return g != nullptr && g->type == record_field::kind::string
             ? std::string_view(g->text)
             : std::string_view();
}

/// Where the index fields sat in the last record read.
struct index_hints {
  usize unit = 0;
  usize units_total = 0;
  usize cell = 0;
  usize cells_total = 0;
  usize replica = 0;
  usize replicas = 0;
  usize grid = 0;
};

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// The one record_source: records in memory, a record file, or a record
/// file image in memory. A file or image is opened at the first next()
/// and read once: .amoc (sniffed by magic) streams chunk by chunk through
/// colfmt_reader, reusing one chunk's record storage; JSON is parsed
/// whole, its grammar not being self-delimiting per record. Told what a
/// shard owes, the source checks each record it yields and hashes every
/// byte it reads, so what reaches a merge is exactly what was hashed.
class buffered_source final : public record_source {
 public:
  explicit buffered_source(std::vector<record> records,
                           std::optional<shard_owed> owed = std::nullopt)
      : in_memory_(true), buffer_(std::move(records)), owed_(std::move(owed)) {}
  buffered_source(std::string path, std::optional<shard_owed> owed)
      : name_(std::move(path)), owed_(std::move(owed)) {}
  buffered_source(std::string_view image, std::string name,
                  std::optional<shard_owed> owed)
      : bytes_(image), name_(std::move(name)), image_(true),
        owed_(std::move(owed)) {}

  bool next(record& out, bool& end, std::string& error) override {
    if (!opened_ && !open(error)) return false;
    if (col_ != nullptr) {
      // Refill from the next chunk; a colfmt chunk always holds at least
      // one record, but loop defensively.
      while (pos_ >= buffer_.size() && !chunks_done_) {
        pos_ = 0;
        if (!col_->next_chunk(buffer_, chunks_done_, error)) {
          return fail(error, true);
        }
      }
    }
    if (pos_ >= buffer_.size()) {
      end = true;
      return !owed_ || (owed_all(error) && checkpoint_matches()) ||
             fail(error, false);
    }
    // A swap, not a move: the caller's spent record goes back into the
    // chunk buffer, so the next chunk decodes into its storage.
    std::swap(out, buffer_[pos_++]);
    return !owed_ || owed_record(out, error) || fail(error, false);
  }

  [[nodiscard]] bool unreadable() const override { return unreadable_; }

  /// FNV-1a-64 of every byte read (a source told what a shard owes).
  [[nodiscard]] std::uint64_t content_fnv64() const {
    return col_ != nullptr ? col_->content_fnv64() : fnv_;
  }

 private:
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
  bool owed_record(const record& rec, std::string& error) {
    usize idx = 0;
    usize this_total = 0;
    if (!read_index(rec, "unit", idx, hints_.unit) ||
        !read_index(rec, "units_total", this_total, hints_.units_total)) {
      error = tag_ + ": record " + std::to_string(seen_) +
              " lacks integer unit/units_total fields (torn or foreign shard "
              "file?)";
      return false;
    }
    const std::string_view this_grid = grid_of(rec, hints_.grid);
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

  std::string_view bytes_;  ///< the image
  std::string name_;        ///< the path, or the image's name for errors
  bool image_ = false;
  bool unreadable_ = false;  ///< the last failure's kind
  bool in_memory_ = false;  ///< buffer_ holds the records from the start
  bool opened_ = false;
  bool chunks_done_ = false;
  std::unique_ptr<colfmt_reader> col_;  ///< set iff the input is .amoc
  std::vector<record> buffer_;  ///< the records, the JSON file, or a chunk
  usize pos_ = 0;

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
  record rec;
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
  index_hints hints;
};

/// One unit record's place in the grid.
struct unit_pos {
  usize unit = 0;
  usize cell = 0;
  usize replica = 0;
  usize replicas = 0;
};

/// Validates one unit record, yielding its place in the grid.
bool check_unit_record(const record& rec, usize si, merge_ctx& ctx,
                       unit_pos& pos, std::string& error) {
  index_hints& h = ctx.hints;
  usize units_total = 0;
  usize cells_total = 0;
  if (!read_index(rec, "unit", pos.unit, h.unit) ||
      !read_index(rec, "units_total", units_total, h.units_total) ||
      !read_index(rec, "cell", pos.cell, h.cell) ||
      !read_index(rec, "cells_total", cells_total, h.cells_total) ||
      !read_index(rec, "replica", pos.replica, h.replica) ||
      !read_index(rec, "replicas", pos.replicas, h.replicas)) {
    error = shard_tag(si) +
            ": record without integer unit/units_total/cell/cells_total/"
            "replica/replicas fields (not a sharded sweep output?)";
    return false;
  }
  const std::string_view this_grid = grid_of(rec, h.grid);
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

std::unique_ptr<record_source> make_memory_source(std::vector<record> records) {
  return std::make_unique<buffered_source>(std::move(records));
}

std::unique_ptr<record_source> make_file_source(
    std::string path, std::optional<shard_owed> owed) {
  return std::make_unique<buffered_source>(std::move(path), std::move(owed));
}

std::unique_ptr<record_source> make_bytes_source(std::string_view bytes,
                                                 std::string name) {
  return std::make_unique<buffered_source>(bytes, std::move(name),
                                           std::nullopt);
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
    record rec;
    unit_pos pos;
    usize idx = 0;
    bool alive = false;
    bool any = false;    ///< this source has yielded at least one record
    usize prev_idx = 0;  ///< last index yielded (order enforcement)
  };
  std::vector<head> heads(k);
  usize seen = 0;  ///< records pulled across all sources
  // Folded unit records, handed back to the sources (next() swaps them into
  // its chunk buffer), so each chunk decodes into storage used before.
  std::vector<record> spare;

  auto pull = [&](usize si) -> bool {
    head& h = heads[si];
    h.alive = false;
    record rec;
    if (!spare.empty()) {
      rec = std::move(spare.back());
      spare.pop_back();
    }
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
    if (!check_unit_record(rec, si, ctx, pos, out.error)) return false;
    const usize idx = pos.unit;
    if (h.any && idx < h.prev_idx) {
      out.error = shard_tag(si) + ": records out of order (index " +
                  std::to_string(idx) + " after " +
                  std::to_string(h.prev_idx) +
                  ") — streaming merge needs index-sorted shards";
      return false;
    }
    h.rec = std::move(rec);
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
  std::vector<record> cell_units;
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
    record rec = std::move(heads[best].rec);
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
      record agg;
      if (!fold_cell(cell_units, agg, out.error)) return out;
      if (!emit(std::move(agg))) return out;
      for (record& u : cell_units) spare.push_back(std::move(u));
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
                        std::string& error, std::uint64_t* fnv64) {
  buffered_source src(bytes, {}, owed);
  if (!drain(src, error)) return false;
  if (fnv64 != nullptr) *fnv64 = src.content_fnv64();
  return true;
}

}  // namespace amo::exp
