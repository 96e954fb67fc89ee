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

/// Appends one row's values to a table, and on the first row of a table
/// without a schema the keys too, so the schema is written once.
struct row_sink {
  record_table& table;
  std::vector<typed_value>& row;
  bool keys;

  void put(std::string_view key, typed_value v) {
    if (keys) table.keys.emplace_back(key);
    row.push_back(std::move(v));
  }
  void put_all(const extra_fields& extra) {
    for (const auto& [key, value] : extra) put(key, value);
  }
};

/// Refills row `i` of `table`, keeping the row's storage.
row_sink fill_row(record_table& table, usize i, usize fields) {
  std::vector<typed_value>& row = table.rows[i];
  row.clear();
  row.reserve(fields);
  return {table, row, table.keys.empty()};
}

/// The run-report schema: what every unit row carries after its position
/// fields, and what exp::fold_cell folds into a cell row.
void put_report(row_sink& out, const run_report& r, bool include_timing) {
  using T = typed_value;
  out.put("scenario", T::str(r.label));
  out.put("algo", T::str(to_string(r.algo)));
  out.put("driver", T::str(to_string(r.driver)));
  out.put("memory", T::str(to_string(r.memory)));
  out.put("free_set", T::str("bitset"));  // constant identity field
  out.put("adversary", T::str(r.adversary));
  out.put("seed", T::u64(r.seed));
  out.put("n", T::u64(r.n));
  out.put("m", T::u64(r.m));
  out.put("beta", T::u64(r.beta));
  out.put("eps_inv", T::u64(r.eps_inv));
  out.put("crash_budget", T::u64(r.crash_budget));
  out.put("steps", T::u64(r.total_steps));
  out.put("crashes", T::u64(r.crashes));
  out.put("quiescent", T::boolean(r.quiescent));
  out.put("terminated", T::u64(r.terminated));
  out.put("effectiveness", T::u64(r.effectiveness));
  out.put("perform_events", T::u64(r.perform_events));
  out.put("at_most_once", T::boolean(r.at_most_once));
  out.put("duplicate", T::u64(r.duplicate));
  out.put("shared_reads", T::u64(r.total_work.shared_reads));
  out.put("shared_writes", T::u64(r.total_work.shared_writes));
  out.put("local_ops", T::u64(r.total_work.local_ops));
  out.put("actions", T::u64(r.total_work.actions));
  out.put("work", T::u64(r.total_work.total()));
  out.put("collisions", T::u64(r.total_collisions));
  out.put("worst_pair_ratio", T::f64(r.worst_pair_ratio));
  out.put("num_levels", T::u64(r.num_levels));
  out.put("wa_complete", T::boolean(r.wa_complete));
  out.put("wa_written", T::u64(r.wa_written));
  out.put("trace_events", T::u64(r.trace.size()));
  if (include_timing) out.put("wall_seconds", T::f64(r.wall_seconds));
}

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
    std::vector<typed_value>& row = group.rows.front();
    const bool keys = group.keys.empty();
    usize n = 0;
    const auto put = [&](std::string_view key, const value_view& v) {
      if (keys) group.keys.emplace_back(key);
      if (n == row.size()) row.emplace_back();
      assign_typed(row[n++], v);
    };
    if (!fold_cell(
            rows.rows.size(), rows.keys,
            [&](usize r, usize c) { return view_of(rows.rows[r][c]); }, put,
            error)) {
      return false;
    }
    for (const auto& [key, value] : extra) put(key, view_of(value));
    row.resize(n);
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
  using T = typed_value;
  const std::string fp = grid_hex(grid);
  record_table group;
  for (usize first = 0, last = 0; first < reports.size(); first = last) {
    while (last < reports.size() && units[last].cell == units[first].cell) {
      ++last;
    }
    group.rows.resize(last - first);
    for (usize i = first; i < last; ++i) {
      const unit_ref& u = units[i];
      row_sink out = fill_row(group, i - first, 40);
      out.put("unit", T::u64(u.unit));
      out.put("units_total", T::u64(units_total));
      out.put("cell", T::u64(u.cell));
      out.put("cells_total", T::u64(cells_total));
      out.put("replica", T::u64(u.replica));
      out.put("replicas", T::u64(u.cell_replicas));
      out.put("grid", T::str(fp));
      put_report(out, reports[i], include_timing);
      out.put_all(extra);
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
