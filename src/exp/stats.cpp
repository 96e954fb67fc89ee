#include "exp/stats.hpp"

#include <algorithm>
#include <cmath>

#include "exp/report.hpp"

namespace amo::exp {

namespace {

/// Nearest-rank percentile over an ascending sample: the ceil(p*n/100)-th
/// value, 1-based. Integer arithmetic, so the rank choice can never drift
/// between the fold-from-reports and fold-from-records paths.
double percentile(const std::vector<double>& ascending, usize p) {
  const usize n = ascending.size();
  const usize rank = (n * p + 99) / 100;  // ceil(n*p/100), >= 1 for n >= 1
  return ascending[rank == 0 ? 0 : rank - 1];
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

std::span<const summary_metric> summary_metrics() {
  static constexpr summary_metric kMetrics[] = {
      {"effectiveness", &cell_stats::effectiveness,
       [](const run_report& r) { return static_cast<double>(r.effectiveness); }},
      {"work", &cell_stats::work,
       [](const run_report& r) {
         return static_cast<double>(r.total_work.total());
       }},
      {"collisions", &cell_stats::collisions,
       [](const run_report& r) {
         return static_cast<double>(r.total_collisions);
       }},
      {"steps", &cell_stats::steps,
       [](const run_report& r) { return static_cast<double>(r.total_steps); }},
  };
  return kMetrics;
}

cell_stats fold_replicas(std::span<const run_report> runs) {
  cell_stats st;
  st.replicas = runs.size();

  for (const run_report& r : runs) {
    st.at_most_once = st.at_most_once && r.at_most_once;
    st.quiescent = st.quiescent && r.quiescent;
    st.wa_complete = st.wa_complete && r.wa_complete;
    if (st.duplicate == no_job) st.duplicate = r.duplicate;
    st.wall_seconds += r.wall_seconds;
  }
  std::vector<double> samples;
  samples.reserve(runs.size());
  for (const summary_metric& m : summary_metrics()) {
    samples.clear();
    for (const run_report& r : runs) samples.push_back(m.sample(r));
    st.*m.summary = summarize(samples);
  }
  return st;
}

std::vector<std::pair<std::string, double>> summary_values(
    const cell_stats& stats) {
  std::vector<std::pair<std::string, double>> f;
  f.reserve(24);
  for (const summary_metric& m : summary_metrics()) {
    const std::string base = m.name;
    const metric_summary& s = stats.*m.summary;
    f.emplace_back(base + "_min", s.min);
    f.emplace_back(base + "_mean", s.mean);
    f.emplace_back(base + "_max", s.max);
    f.emplace_back(base + "_stddev", s.stddev);
    f.emplace_back(base + "_p50", s.p50);
    f.emplace_back(base + "_p95", s.p95);
  }
  return f;
}

}  // namespace amo::exp
