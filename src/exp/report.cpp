#include "exp/report.hpp"

#include <charconv>
#include <cstdio>

#include "util/fileio.hpp"

namespace amo::exp {

std::string json_writer::num(double v) {
  // std::to_chars: shortest representation that parses back to exactly v,
  // locale-independent by definition (snprintf %g obeys LC_NUMERIC and
  // would emit "0,5" under a comma-decimal locale — an unparseable record).
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

std::string json_writer::str(const std::string& s) {
  std::string out = "\"";
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
  return out;
}

void json_writer::add_row(const std::pair<std::string, std::string>* fields,
                          usize count) {
  std::string row = "  {";
  for (usize i = 0; i < count; ++i) {
    if (i != 0) row += ", ";
    row += str(fields[i].first) + ": " + fields[i].second;
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

std::vector<std::pair<std::string, std::string>> report_fields(
    const run_report& r, bool include_timing) {
  using W = json_writer;
  std::vector<std::pair<std::string, std::string>> f;
  f.reserve(32);
  f.emplace_back("scenario", W::str(r.label));
  f.emplace_back("algo", W::str(to_string(r.algo)));
  f.emplace_back("driver", W::str(to_string(r.driver)));
  f.emplace_back("memory", W::str(to_string(r.memory)));
  f.emplace_back("free_set", W::str("bitset"));  // constant identity field
  f.emplace_back("adversary", W::str(r.adversary));
  f.emplace_back("seed", W::num(std::uint64_t{r.seed}));
  f.emplace_back("n", W::num(std::uint64_t{r.n}));
  f.emplace_back("m", W::num(std::uint64_t{r.m}));
  f.emplace_back("beta", W::num(std::uint64_t{r.beta}));
  f.emplace_back("eps_inv", W::num(std::uint64_t{r.eps_inv}));
  f.emplace_back("crash_budget", W::num(std::uint64_t{r.crash_budget}));
  f.emplace_back("steps", W::num(std::uint64_t{r.total_steps}));
  f.emplace_back("crashes", W::num(std::uint64_t{r.crashes}));
  f.emplace_back("quiescent", W::boolean(r.quiescent));
  f.emplace_back("terminated", W::num(std::uint64_t{r.terminated}));
  f.emplace_back("effectiveness", W::num(std::uint64_t{r.effectiveness}));
  f.emplace_back("perform_events", W::num(std::uint64_t{r.perform_events}));
  f.emplace_back("at_most_once", W::boolean(r.at_most_once));
  f.emplace_back("duplicate", W::num(std::uint64_t{r.duplicate}));
  f.emplace_back("shared_reads", W::num(r.total_work.shared_reads));
  f.emplace_back("shared_writes", W::num(r.total_work.shared_writes));
  f.emplace_back("local_ops", W::num(r.total_work.local_ops));
  f.emplace_back("actions", W::num(r.total_work.actions));
  f.emplace_back("work", W::num(r.total_work.total()));
  f.emplace_back("collisions", W::num(std::uint64_t{r.total_collisions}));
  f.emplace_back("worst_pair_ratio", W::num(r.worst_pair_ratio));
  f.emplace_back("num_levels", W::num(std::uint64_t{r.num_levels}));
  f.emplace_back("wa_complete", W::boolean(r.wa_complete));
  f.emplace_back("wa_written", W::num(std::uint64_t{r.wa_written}));
  f.emplace_back("trace_events", W::num(std::uint64_t{r.trace.size()}));
  if (include_timing) f.emplace_back("wall_seconds", W::num(r.wall_seconds));
  return f;
}

void add_reports(json_writer& out, const std::vector<run_report>& reports,
                 bool include_timing) {
  for (const run_report& r : reports) {
    out.add(report_fields(r, include_timing));
  }
}

namespace {

std::string grid_hex(std::uint64_t grid) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(grid));
  return buf;
}

void append_moved(std::vector<std::pair<std::string, std::string>>& dst,
                  std::vector<std::pair<std::string, std::string>>&& src) {
  dst.insert(dst.end(), std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.end()));
}

}  // namespace

std::vector<record_row> cell_record_rows(const sweep_result& swept,
                                         std::uint64_t grid,
                                         bool include_timing,
                                         const extra_fields& extra) {
  using W = json_writer;
  const std::string fp = grid_hex(grid);
  std::vector<record_row> rows;
  rows.reserve(swept.cells.size());
  for (usize i = 0; i < swept.cells.size(); ++i) {
    const cell_report& cr = swept.cells[i];
    const cell_stats& st = cr.stats;
    const run_report& base = swept.reports[cr.first];

    record_row& fields = rows.emplace_back();
    fields.reserve(64);
    fields.emplace_back("cell", W::num(std::uint64_t{i}));
    fields.emplace_back("cells_total",
                        W::num(std::uint64_t{swept.cells.size()}));
    fields.emplace_back("grid", W::str(fp));
    fields.emplace_back("replicas", W::num(std::uint64_t{cr.replicas}));

    // The base replica's record, with the safety fields replaced by their
    // any-replica fold: one violating replica marks the whole cell. The
    // per-draw metrics (effectiveness, work, ...) stay the base-seed
    // draw's, so replicas = 1 preserves the pre-replica record values.
    auto base_fields = report_fields(base, /*include_timing=*/false);
    for (auto& [key, value] : base_fields) {
      if (key == "at_most_once") {
        value = W::boolean(st.at_most_once);
      } else if (key == "quiescent") {
        value = W::boolean(st.quiescent);
      } else if (key == "wa_complete") {
        value = W::boolean(st.wa_complete);
      } else if (key == "duplicate") {
        value = W::num(std::uint64_t{st.duplicate});
      }
    }
    append_moved(fields, std::move(base_fields));
    append_moved(fields, summary_fields(st));
    if (include_timing) {
      fields.emplace_back("wall_seconds", W::num(st.wall_seconds));
    }
    fields.insert(fields.end(), extra.begin(), extra.end());
  }
  return rows;
}

std::vector<record_row> unit_record_rows(const std::vector<run_report>& reports,
                                         const std::vector<unit_ref>& units,
                                         usize units_total, usize cells_total,
                                         std::uint64_t grid,
                                         bool include_timing,
                                         const extra_fields& extra) {
  using W = json_writer;
  const std::string fp = grid_hex(grid);
  std::vector<record_row> rows;
  rows.reserve(reports.size());
  for (usize i = 0; i < reports.size(); ++i) {
    const unit_ref& u = units[i];
    record_row& fields = rows.emplace_back();
    fields.reserve(40);
    fields.emplace_back("unit", W::num(std::uint64_t{u.unit}));
    fields.emplace_back("units_total", W::num(std::uint64_t{units_total}));
    fields.emplace_back("cell", W::num(std::uint64_t{u.cell}));
    fields.emplace_back("cells_total", W::num(std::uint64_t{cells_total}));
    fields.emplace_back("replica", W::num(std::uint64_t{u.replica}));
    fields.emplace_back("replicas", W::num(std::uint64_t{u.cell_replicas}));
    fields.emplace_back("grid", W::str(fp));
    append_moved(fields, report_fields(reports[i], include_timing));
    fields.insert(fields.end(), extra.begin(), extra.end());
  }
  return rows;
}

void add_cell_records(json_writer& out, const sweep_result& swept,
                      std::uint64_t grid, bool include_timing,
                      const extra_fields& extra) {
  for (const record_row& row :
       cell_record_rows(swept, grid, include_timing, extra)) {
    out.add(row);
  }
}

void add_unit_records(json_writer& out, const std::vector<run_report>& reports,
                      const std::vector<unit_ref>& units, usize units_total,
                      usize cells_total, std::uint64_t grid,
                      bool include_timing, const extra_fields& extra) {
  for (const record_row& row :
       unit_record_rows(reports, units, units_total, cells_total, grid,
                        include_timing, extra)) {
    out.add(row);
  }
}

bool rows_to_records(std::vector<record_row> rows, std::vector<record>& out,
                     std::string& error) {
  out.clear();
  out.reserve(rows.size());
  for (usize i = 0; i < rows.size(); ++i) {
    record& rec = out.emplace_back();
    rec.fields.reserve(rows[i].size());
    for (auto& [key, token] : rows[i]) {
      record_field& f = rec.fields.emplace_back();
      if (!parse_value_token(token, f, error)) {
        error =
            "record " + std::to_string(i) + " field '" + key + "': " + error;
        out.clear();
        return false;
      }
      f.key = std::move(key);
    }
    record_row().swap(rows[i]);  // peak = one row + the records, not both
  }
  return true;
}

}  // namespace amo::exp
