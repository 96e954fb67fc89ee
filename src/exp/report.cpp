#include "exp/report.hpp"

#include <charconv>
#include <cstdio>

#include "exp/stats.hpp"
#include "util/fileio.hpp"

namespace amo::exp {

void json_writer::append_num(std::string& out, double v) {
  // std::to_chars: shortest representation that parses back to exactly v,
  // locale-independent by definition (snprintf %g obeys LC_NUMERIC and
  // would emit "0,5" under a comma-decimal locale — an unparseable record).
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec == std::errc{}) {
    out.append(buf, end);
  } else {
    out += '0';
  }
}

void json_writer::append_num(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, end);
}

void json_writer::append_str(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string json_writer::num(double v) {
  std::string out;
  append_num(out, v);
  return out;
}

std::string json_writer::str(const std::string& s) {
  std::string out;
  append_str(out, s);
  return out;
}

void json_writer::add_row(const std::pair<std::string, std::string>* fields,
                          usize count) {
  std::string row = "  {";
  for (usize i = 0; i < count; ++i) {
    if (i != 0) row += ", ";
    append_str(row, fields[i].first);
    row += ": ";
    row += fields[i].second;
  }
  row += "}";
  rows_.push_back(std::move(row));
}

void json_writer::add(
    std::initializer_list<std::pair<std::string, std::string>> fields) {
  add_row(fields.begin(), fields.size());
}

void json_writer::add(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  add_row(fields.data(), fields.size());
}

void json_writer::add(const std::vector<std::string>& keys,
                      const std::vector<typed_value>& values) {
  std::string row = "  {";
  for (usize i = 0; i < values.size(); ++i) {
    if (i != 0) row += ", ";
    append_str(row, keys[i]);
    row += ": ";
    append_token(row, view_of(values[i]));
  }
  row += "}";
  rows_.push_back(std::move(row));
}

void json_writer::add(const record_table& table) {
  for (const std::vector<typed_value>& row : table.rows) add(table.keys, row);
}

std::string json_writer::dump() const {
  std::string out = "[\n";
  for (usize i = 0; i < rows_.size(); ++i) {
    out += rows_[i];
    out += i + 1 < rows_.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

bool json_writer::write(const char* path) const {
  std::string ignored;
  return write_file_atomic(path, dump(), ignored);
}

namespace {

/// Refills `t` with the value `v` views (a field of known encoding, as
/// every unit row and exp::fold_cell output is), keeping its storage.
void assign_typed(typed_value& t, const value_view& v) {
  using E = value_encoding;
  t.enc = v.enc == E::unknown ? E::null : v.enc;
  t.truth = t.enc == E::boolean && v.truth;
  t.u = t.enc == E::u64 ? v.u : 0;
  t.f = t.enc == E::f64 ? v.number : 0.0;
  t.text.assign(t.enc == E::str ? v.text : std::string_view());
}

/// Refills one row of a table value by value, in place: each value keeps
/// its storage, so a string (the 16-digit grid, a long label) allocates on
/// a table's first rows only. On the first row of a table without a
/// schema the keys are written too, so the schema is written once.
struct row_sink {
  record_table& table;
  std::vector<typed_value>& row;
  bool keys = table.keys.empty();
  usize n = 0;

  void put(std::string_view key, const value_view& v) {
    if (keys) table.keys.emplace_back(key);
    if (n == row.size()) row.emplace_back();
    assign_typed(row[n++], v);
  }
  void u64(std::string_view key, std::uint64_t v) {
    value_view w;
    w.enc = value_encoding::u64;
    w.u = v;
    put(key, w);
  }
  void f64(std::string_view key, double v) {
    value_view w;
    w.enc = value_encoding::f64;
    w.number = v;
    put(key, w);
  }
  void boolean(std::string_view key, bool v) {
    value_view w;
    w.enc = value_encoding::boolean;
    w.truth = v;
    put(key, w);
  }
  void str(std::string_view key, std::string_view v) {
    value_view w;
    w.enc = value_encoding::str;
    w.text = v;
    put(key, w);
  }
  void put_all(const extra_fields& extra) {
    for (const auto& [key, value] : extra) put(key, view_of(value));
  }
  /// Drops what the row held past the values put.
  void finish() { row.resize(n); }
};

/// The run-report schema: what every unit row carries after its position
/// fields, and what exp::fold_cell folds into a cell row.
void put_report(row_sink& out, const run_report& r, bool include_timing) {
  out.str("scenario", r.label);
  out.str("algo", to_string(r.algo));
  out.str("driver", to_string(r.driver));
  out.str("memory", to_string(r.memory));
  out.str("free_set", "bitset");  // constant identity field
  out.str("adversary", r.adversary);
  out.u64("seed", r.seed);
  out.u64("n", r.n);
  out.u64("m", r.m);
  out.u64("beta", r.beta);
  out.u64("eps_inv", r.eps_inv);
  out.u64("crash_budget", r.crash_budget);
  out.u64("steps", r.total_steps);
  out.u64("crashes", r.crashes);
  out.boolean("quiescent", r.quiescent);
  out.u64("terminated", r.terminated);
  out.u64("effectiveness", r.effectiveness);
  out.u64("perform_events", r.perform_events);
  out.boolean("at_most_once", r.at_most_once);
  out.u64("duplicate", r.duplicate);
  out.u64("shared_reads", r.total_work.shared_reads);
  out.u64("shared_writes", r.total_work.shared_writes);
  out.u64("local_ops", r.total_work.local_ops);
  out.u64("actions", r.total_work.actions);
  out.u64("work", r.total_work.total());
  out.u64("collisions", r.total_collisions);
  out.f64("worst_pair_ratio", r.worst_pair_ratio);
  out.u64("num_levels", r.num_levels);
  out.boolean("wa_complete", r.wa_complete);
  out.u64("wa_written", r.wa_written);
  out.u64("trace_events", r.trace.size());
  if (include_timing) out.f64("wall_seconds", r.wall_seconds);
}

std::string grid_hex(std::uint64_t grid) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(grid));
  return buf;
}

}  // namespace

bool cell_record_rows(const sweep_result& swept, std::uint64_t grid,
                      const row_group_sink& sink, bool include_timing,
                      const extra_fields& extra) {
  // The whole grid's units, cell-major: unit i's report is reports[i].
  std::vector<unit_ref> units;
  units.reserve(swept.reports.size());
  for (usize c = 0; c < swept.cells.size(); ++c) {
    const cell_report& cr = swept.cells[c];
    for (usize r = 0; r < cr.replicas; ++r) {
      units.push_back({cr.first + r, c, r, cr.replicas});
    }
  }
  // Each cell's unit rows, exactly as a shard writes them, go through the
  // one aggregate fold as they are; the job's extras follow the folded
  // fields.
  record_table group;
  group.rows.resize(1);
  std::string error;
  const auto fold = [&](const record_table& rows) {
    row_sink out{group, group.rows.front()};
    if (!fold_cell(
            rows.rows.size(), rows.keys,
            [&](usize r, usize c) { return view_of(rows.rows[r][c]); },
            [&](std::string_view key, const value_view& v) { out.put(key, v); },
            error)) {
      return false;
    }
    out.put_all(extra);
    out.finish();
    return sink(group);
  };
  return unit_record_rows(swept.reports, units, swept.reports.size(),
                          swept.cells.size(), grid, fold, include_timing);
}

bool unit_record_rows(const std::vector<run_report>& reports,
                      const std::vector<unit_ref>& units, usize units_total,
                      usize cells_total, std::uint64_t grid,
                      const row_group_sink& sink, bool include_timing,
                      const extra_fields& extra) {
  const std::string fp = grid_hex(grid);
  record_table group;
  for (usize first = 0, last = 0; first < reports.size(); first = last) {
    while (last < reports.size() && units[last].cell == units[first].cell) {
      ++last;
    }
    group.rows.resize(last - first);
    for (usize i = first; i < last; ++i) {
      const unit_ref& u = units[i];
      row_sink out{group, group.rows[i - first]};
      out.u64("unit", u.unit);
      out.u64("units_total", units_total);
      out.u64("cell", u.cell);
      out.u64("cells_total", cells_total);
      out.u64("replica", u.replica);
      out.u64("replicas", u.cell_replicas);
      out.str("grid", fp);
      put_report(out, reports[i], include_timing);
      out.put_all(extra);
      out.finish();
    }
    if (!sink(group)) return false;
  }
  return true;
}

row_group_sink json_rows(json_writer& out) {
  return [&out](const record_table& group) {
    out.add(group);
    return true;
  };
}

}  // namespace amo::exp
