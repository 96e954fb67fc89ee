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

/// "unit N" for an error about record `u`.
std::string unit_tag(const record& u) {
  const record_field* f = u.find("unit");
  return "unit " + (f != nullptr ? token_of(*f) : std::string("?"));
}

/// Reads the named numeric field of every unit into a replica-ordered
/// sample vector. The units of a cell share one schema, so the field is
/// found once and then read at its position.
bool metric_samples(const std::vector<record>& units, const char* key,
                    std::vector<double>& out, std::string& error) {
  out.clear();
  out.reserve(units.size());
  usize hint = 0;
  for (const record& u : units) {
    const record_field* f = u.find(key, hint);
    if (f == nullptr || f->type != record_field::kind::number) {
      error = unit_tag(u) + ": record has no numeric '" + key +
              "' field — cannot fold replica aggregates";
      return false;
    }
    out.push_back(f->number);
  }
  return true;
}

/// AND-folds the named boolean field; false (plus `error`) when a record
/// lacks it.
bool fold_flag(const std::vector<record>& units, const char* key, bool& out,
               std::string& error) {
  out = true;
  usize hint = 0;
  for (const record& u : units) {
    const record_field* f = u.find(key, hint);
    if (f == nullptr || f->type != record_field::kind::boolean) {
      error = unit_tag(u) + ": record has no boolean '" + key + "' field";
      return false;
    }
    out = out && f->truth;
  }
  return true;
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

bool fold_cell(const std::vector<record>& units, record& agg,
               std::string& error) {
  agg.fields.clear();
  const record& base = units.front();

  metric_summary summaries[std::size(kMetrics)];
  std::vector<double> samples;
  for (usize i = 0; i < std::size(kMetrics); ++i) {
    if (!metric_samples(units, kMetrics[i], samples, error)) return false;
    summaries[i] = summarize(samples);
  }
  bool at_most_once = true;
  bool quiescent = true;
  bool wa_complete = true;
  if (!fold_flag(units, "at_most_once", at_most_once, error) ||
      !fold_flag(units, "quiescent", quiescent, error) ||
      !fold_flag(units, "wa_complete", wa_complete, error)) {
    return false;
  }

  // duplicate: the first replica's duplicate job, replica order. Its
  // token, value and encoding travel together.
  const record_field* duplicate = nullptr;
  usize hint = 0;
  for (const record& u : units) {
    const record_field* d = u.find("duplicate", hint);
    if (d != nullptr && d->type == record_field::kind::number &&
        d->number != 0) {
      duplicate = d;
      break;
    }
  }

  // Summed wall clock, present iff the unit records carried one.
  bool have_wall = false;
  double wall = 0.0;
  hint = 0;
  for (const record& u : units) {
    const record_field* w = u.find("wall_seconds", hint);
    if (w != nullptr && w->type == record_field::kind::number) {
      have_wall = true;
      wall += w->number;
    }
  }

  auto copy_field = [&agg, &base](const char* key) {
    const record_field* f = base.find(key);
    if (f != nullptr) agg.fields.push_back(*f);
  };
  // Every value the fold writes is spelled as json_writer spells it, so
  // each output field carries its encoding and no token: one is made
  // only where text is written.
  auto push_number = [&agg](std::string key, double value) {
    record_field f;
    f.key = std::move(key);
    f.type = record_field::kind::number;
    f.encoding = value_encoding::f64;
    f.number = value;
    agg.fields.push_back(std::move(f));
  };
  auto set_flag = [](record_field& g, bool v) {
    g.raw.clear();
    g.truth = v;
    g.encoding = value_encoding::boolean;
  };
  agg.fields.reserve(base.fields.size() + 6 * std::size(kMetrics));
  copy_field("cell");
  copy_field("cells_total");
  copy_field("grid");
  copy_field("replicas");
  for (const record_field& f : base.fields) {
    if (is_unit_bookkeeping(f.key)) continue;
    record_field g = f;
    if (f.key == "at_most_once") {
      set_flag(g, at_most_once);
    } else if (f.key == "quiescent") {
      set_flag(g, quiescent);
    } else if (f.key == "wa_complete") {
      set_flag(g, wa_complete);
    } else if (f.key == "duplicate") {
      if (duplicate != nullptr) {
        g = *duplicate;
      } else {
        g.raw.clear();
        g.number = 0.0;
        g.encoding = value_encoding::u64;
      }
    }
    agg.fields.push_back(std::move(g));
  }
  for (usize i = 0; i < std::size(kMetrics); ++i) {
    const std::string name = kMetrics[i];
    const metric_summary& s = summaries[i];
    push_number(name + "_min", s.min);
    push_number(name + "_mean", s.mean);
    push_number(name + "_max", s.max);
    push_number(name + "_stddev", s.stddev);
    push_number(name + "_p50", s.p50);
    push_number(name + "_p95", s.p95);
  }
  if (have_wall) push_number("wall_seconds", wall);
  return true;
}

}  // namespace amo::exp
