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
// amo_lab) as typed values: a record_table holds the schema's keys once
// and one typed_value per field per row. json_writer formats a table into
// tokens; exp::colfmt_encode writes the same table straight into .amoc
// column blocks. A number is formatted only where a JSON token is made.
// `include_timing = false` drops the wall-clock fields, which is what
// makes sweep output byte-comparable across pool sizes.
#pragma once

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
  /// exp::merge_stream re-fold parsed replica records into aggregates
  /// byte-identical to the in-process fold.
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

/// The unified record for one run_report, in schema order. Every amo_lab /
/// bench record uses exactly these fields (prefixed by any caller-supplied
/// extras), so downstream tooling parses one shape.
[[nodiscard]] extra_fields report_fields(const run_report& r,
                                         bool include_timing = true);

/// Appends one record per report. `include_timing = false` omits
/// wall_seconds so identical executions dump identical bytes.
void add_reports(json_writer& out, const std::vector<run_report>& reports,
                 bool include_timing = true);

/// Aggregate cell rows — what an unsharded sweep emits: one record per
/// cell, {"cell", "cells_total", "grid", "replicas"}, then the base
/// replica's report_fields with the safety fields (at_most_once,
/// quiescent, wa_complete, duplicate) replaced by their any-replica fold,
/// then exp::summary_values, then the cell's summed wall clock (timing
/// runs only). Aggregate output is always the whole grid (sharded sweeps
/// emit per-unit records instead), so record i's "cell" index is i and
/// cells_total is swept.cells.size(). exp::merge_stream rebuilds exactly
/// these bytes from per-unit shard records.
[[nodiscard]] record_table cell_record_rows(
    const sweep_result& swept, std::uint64_t grid, bool include_timing = true,
    const extra_fields& extra = {});

/// Per-replica unit rows — what a sharded sweep emits: one record per
/// owned (cell, replica) unit, {"unit", "units_total", "cell",
/// "cells_total", "replica", "replicas", "grid"} then the replica's
/// report_fields (its "seed" is the exp::replica_seed-derived seed).
/// Requires units.size() == reports.size().
[[nodiscard]] record_table unit_record_rows(
    const std::vector<run_report>& reports, const std::vector<unit_ref>& units,
    usize units_total, usize cells_total, std::uint64_t grid,
    bool include_timing = true, const extra_fields& extra = {});

/// json_writer::add of cell_record_rows.
void add_cell_records(json_writer& out, const sweep_result& swept,
                      std::uint64_t grid, bool include_timing = true,
                      const extra_fields& extra = {});

/// json_writer::add of unit_record_rows.
void add_unit_records(json_writer& out, const std::vector<run_report>& reports,
                      const std::vector<unit_ref>& units, usize units_total,
                      usize cells_total, std::uint64_t grid,
                      bool include_timing = true,
                      const extra_fields& extra = {});

}  // namespace amo::exp
