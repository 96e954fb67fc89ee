#include "exp/stats.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "exp/timing_keys.hpp"

namespace amo::exp {

namespace {

/// Nearest-rank percentile over an ascending sample: the ceil(p*n/100)-th
/// value, 1-based. Integer arithmetic, so the rank choice never depends
/// on floating-point rounding.
double percentile(const std::vector<double>& ascending, usize p) {
  const usize n = ascending.size();
  const usize rank = (n * p + 99) / 100;  // ceil(n*p/100), >= 1 for n >= 1
  return ascending[rank == 0 ? 0 : rank - 1];
}

/// The headline metrics, schema order.
constexpr const char* kMetrics[] = {"effectiveness", "work", "collisions",
                                    "steps"};

/// Keys of a unit record that the aggregate record must not copy
/// verbatim: positions are re-emitted, wall clocks are re-summed, per-job
/// serve fields are job-scoped not cell-scoped. The timing half lives in
/// exp::timing_keys(), shared with diff's classify_field so the two
/// ignore surfaces cannot drift.
bool is_unit_bookkeeping(const std::string& key) {
  return key == "unit" || key == "units_total" || key == "cell" ||
         key == "cells_total" || key == "replica" || key == "replicas" ||
         key == "grid" || is_timing_key(key);
}

/// The first column named `key`, or columns.size().
usize column_of(const std::vector<std::string>& columns, std::string_view key) {
  usize c = 0;
  while (c < columns.size() && columns[c] != key) ++c;
  return c;
}

/// The aggregate's summary keys, <metric>_<stat> in output order.
const std::vector<std::string>& summary_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    for (const char* metric : kMetrics) {
      for (const char* stat : {"_min", "_mean", "_max", "_stddev", "_p50",
                               "_p95"}) {
        out.push_back(std::string(metric) + stat);
      }
    }
    return out;
  }();
  return keys;
}

value_view f64_view(double v) {
  value_view out;
  out.enc = value_encoding::f64;
  out.type = json::kind::number;
  out.number = v;
  return out;
}

value_view bool_view(bool v) {
  value_view out;
  out.enc = value_encoding::boolean;
  out.type = json::kind::boolean;
  out.truth = v;
  return out;
}

}  // namespace

metric_summary summarize(const std::vector<double>& values) {
  metric_summary s;
  if (values.empty()) return s;

  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());

  double varsum = 0.0;
  for (const double v : values) varsum += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(varsum / static_cast<double>(values.size()));

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = percentile(sorted, 50);
  s.p95 = percentile(sorted, 95);
  return s;
}

bool fold_cell(usize rows, const std::vector<std::string>& columns,
               const cell_at& at, const field_sink& put, std::string& error) {
  const auto read = [&](usize r, usize c) {
    return c < columns.size() ? at(r, c) : value_view{};
  };
  /// "unit N" for an error about row `r`.
  const auto unit_tag = [&](usize r) {
    const usize c = column_of(columns, "unit");
    std::string tag = "unit ";
    if (c == columns.size()) return tag + "?";
    append_token(tag, at(r, c));
    return tag;
  };

  metric_summary summaries[std::size(kMetrics)];
  std::vector<double> samples(rows);
  for (usize i = 0; i < std::size(kMetrics); ++i) {
    const usize c = column_of(columns, kMetrics[i]);
    for (usize r = 0; r < rows; ++r) {
      const value_view v = read(r, c);
      if (v.type != json::kind::number) {
        error = unit_tag(r) + ": record has no numeric '" + kMetrics[i] +
                "' field — cannot fold replica aggregates";
        return false;
      }
      samples[r] = v.number;
    }
    summaries[i] = summarize(samples);
  }
  // at_most_once, quiescent, wa_complete: AND over the replicas.
  constexpr const char* kFlags[] = {"at_most_once", "quiescent",
                                    "wa_complete"};
  bool flags[std::size(kFlags)];
  usize flag_cols[std::size(kFlags)];
  for (usize i = 0; i < std::size(kFlags); ++i) {
    const usize c = flag_cols[i] = column_of(columns, kFlags[i]);
    flags[i] = true;
    for (usize r = 0; r < rows; ++r) {
      const value_view v = read(r, c);
      if (v.type != json::kind::boolean) {
        error = unit_tag(r) + ": record has no boolean '" + kFlags[i] +
                "' field";
        return false;
      }
      flags[i] = flags[i] && v.truth;
    }
  }

  // duplicate: the first replica's duplicate job, replica order. Its
  // token, value and encoding travel together.
  value_view duplicate;
  duplicate.enc = value_encoding::u64;
  duplicate.type = json::kind::number;
  const usize dup_col = column_of(columns, "duplicate");
  for (usize r = 0; r < rows; ++r) {
    const value_view d = read(r, dup_col);
    if (d.type == json::kind::number && d.number != 0) {
      duplicate = d;
      break;
    }
  }

  // Summed wall clock, present iff the unit rows carried one.
  bool have_wall = false;
  double wall = 0.0;
  const usize wall_col = column_of(columns, "wall_seconds");
  for (usize r = 0; r < rows; ++r) {
    const value_view w = read(r, wall_col);
    if (w.type == json::kind::number) {
      have_wall = true;
      wall += w.number;
    }
  }

  // Every value the fold writes is spelled as json_writer spells it, so
  // each output field carries its encoding and no token: one is made
  // only where text is written.
  for (const char* key : {"cell", "cells_total", "grid", "replicas"}) {
    const usize c = column_of(columns, key);
    if (c < columns.size()) put(key, at(0, c));
  }
  for (usize c = 0; c < columns.size(); ++c) {
    const std::string& key = columns[c];
    if (is_unit_bookkeeping(key)) continue;
    const usize flag = static_cast<usize>(
        std::find(std::begin(flag_cols), std::end(flag_cols), c) -
        std::begin(flag_cols));
    if (flag < std::size(kFlags)) {
      put(key, bool_view(flags[flag]));
    } else if (c == dup_col) {
      put(key, duplicate);
    } else {
      put(key, at(0, c));
    }
  }
  const std::vector<std::string>& keys = summary_keys();
  for (usize i = 0; i < std::size(kMetrics); ++i) {
    const metric_summary& s = summaries[i];
    const double stats[] = {s.min, s.mean, s.max, s.stddev, s.p50, s.p95};
    for (usize j = 0; j < std::size(stats); ++j) {
      put(keys[6 * i + j], f64_view(stats[j]));
    }
  }
  if (have_wall) put("wall_seconds", f64_view(wall));
  return true;
}

}  // namespace amo::exp
