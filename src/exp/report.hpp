// The one JSON emitter every bench, test and the amo_lab CLI share, and
// the output-row builders behind every sweep, shard and serve document.
//
// json_writer replaces the per-bench benchx::json_report copies; unlike its
// predecessor, str() escapes the full set JSON requires — quote, backslash,
// and every control character below 0x20 (\n, \t, \r named; the rest as
// \u00XX) — so a label can never produce an unparseable file.
//
// The row builders (cell_record_rows, unit_record_rows) map run_reports
// onto the unified record schema (documented in README.md and emitted by
// amo_lab) as typed values, one cell group at a time: a record_table
// holds the schema's keys once and one typed_value per field for the
// rows of one cell, read off the caller's reports in place. json_writer
// formats each group into tokens; exp::colfmt_encoder writes it straight
// into one .amoc chunk. A renderer therefore holds one cell's rows, never
// a whole document's, and a number is formatted only where a JSON token
// is made. An aggregate row is not written here field by field: it is
// exp::fold_cell, the one aggregate fold the merge also runs, over the
// cell's unit rows.
// `include_timing = false` drops the wall-clock fields, which is what
// makes sweep output byte-comparable across pool sizes.
#pragma once

#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "exp/record.hpp"
#include "exp/shard.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"

namespace amo::exp {

/// Accumulates flat {string: value} records and renders them as a JSON
/// array. Values are passed pre-encoded via num()/str()/boolean(), or as
/// typed values that add() formats the same way.
class json_writer {
 public:
  /// Shortest round-trip decimal via std::to_chars: locale-independent
  /// (always '.'-separated, whatever LC_NUMERIC says) and value-exact —
  /// parsing the token back yields bit-equal v, which is what lets
  /// exp::merge_stream fold parsed unit records into the aggregates the
  /// unsharded sweep folds from its own unit rows.
  static std::string num(double v);
  static std::string num(std::uint64_t v) { return std::to_string(v); }
  static std::string str(const std::string& s);
  static std::string boolean(bool b) { return b ? "true" : "false"; }

  /// The same tokens, appended to `out`.
  static void append_num(std::string& out, double v);
  static void append_num(std::string& out, std::uint64_t v);
  static void append_str(std::string& out, std::string_view s);

  void add(std::initializer_list<std::pair<std::string, std::string>> fields);
  void add(const std::vector<std::pair<std::string, std::string>>& fields);
  /// One typed row: keys[i] is the key of values[i].
  void add(const std::vector<std::string>& keys,
           const std::vector<typed_value>& values);
  /// Every row of `table`.
  void add(const record_table& table);

  /// The full `[ {...}, ... ]` document, newline-terminated.
  [[nodiscard]] std::string dump() const;

  /// Writes dump() to `path`; returns false on I/O failure.
  [[nodiscard]] bool write(const char* path) const;

  [[nodiscard]] usize size() const { return rows_.size(); }

 private:
  void add_row(const std::pair<std::string, std::string>* fields, usize count);

  std::vector<std::string> rows_;
};

/// Extra caller-supplied fields appended at the end of each record (e.g.
/// the serve layer's per-job timing fields).
using extra_fields = std::vector<std::pair<std::string, typed_value>>;

/// Receives output rows one cell group at a time, in output order: the
/// schema's keys and the rows of one cell (an aggregate cell's row, or
/// the consecutive units of one cell that a shard owns). The group is
/// reused between calls. False stops the rows.
using row_group_sink = std::function<bool(const record_table& group)>;

/// Aggregate cell rows — what an unsharded sweep emits: one record per
/// cell, exp::fold_cell over the cell's unit rows (exactly what
/// unit_record_rows emits for the whole grid), then `extra`. Aggregate
/// output is always the whole grid (sharded sweeps emit per-unit records
/// instead), so record i's "cell" index is i and cells_total is
/// swept.cells.size(); exp::merge_stream runs the same fold over the
/// shards' unit records. One group per cell, and one cell's unit rows
/// held at a time; false iff `sink` returned false (rows built from
/// run_reports always fold).
bool cell_record_rows(const sweep_result& swept, std::uint64_t grid,
                      const row_group_sink& sink, bool include_timing = true,
                      const extra_fields& extra = {});

/// Per-replica unit rows — what a sharded sweep emits: one record per
/// owned (cell, replica) unit, {"unit", "units_total", "cell",
/// "cells_total", "replica", "replicas", "grid"} then the replica's
/// run-report fields in schema order (its "seed" is the
/// exp::replica_seed-derived seed; "wall_seconds", last, only with
/// include_timing). Every run/sweep record has exactly this shape, so
/// downstream tooling parses one.
/// Requires units.size() == reports.size(). One group per run of
/// consecutive units of one cell; false iff `sink` returned false.
bool unit_record_rows(const std::vector<run_report>& reports,
                      const std::vector<unit_ref>& units, usize units_total,
                      usize cells_total, std::uint64_t grid,
                      const row_group_sink& sink, bool include_timing = true,
                      const extra_fields& extra = {});

/// A sink that adds every group to `out` (json_writer::add).
[[nodiscard]] row_group_sink json_rows(json_writer& out);

}  // namespace amo::exp
