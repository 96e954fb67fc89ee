// exp::stats — the distribution layer between one execution and one
// experiment cell.
//
// Everything the randomized adversaries measure (effectiveness under
// random+crash, collision ratios, work) is a distribution, but a
// run_report is one draw. A cell is run_spec × R deterministic replicas
// (seeds derived by exp::replica_seed), and this layer folds the R
// per-replica run_reports into one cell_stats: min/mean/max/stddev and
// p50/p95 for the four headline metrics, plus any-replica safety folding
// (one violating replica marks the whole cell).
//
// Every number here is a deterministic function of the replica values *in
// replica order* — the mean/stddev accumulate in input order, percentiles
// sort a copy — so folding in the sweep process and re-folding parsed
// replica records in `amo_lab merge` produce bit-equal doubles, which is
// what keeps the shard/merge byte-identity contract alive at replica
// granularity.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exp/spec.hpp"

namespace amo::exp {

/// Distribution summary of one metric over a cell's replicas. All six
/// numbers are deterministic functions of the sample multiset and order.
struct metric_summary {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double p50 = 0.0;     ///< nearest-rank percentiles: ceil(p*R/100)-th
  double p95 = 0.0;     ///< smallest sample (1-based, ascending)

  friend bool operator==(const metric_summary&, const metric_summary&) = default;
};

/// Summarizes one sample vector (replica order). mean/stddev accumulate in
/// the given order; percentiles use a sorted copy. Empty input yields all
/// zeros.
[[nodiscard]] metric_summary summarize(const std::vector<double>& values);

/// The folded view of one cell: distribution summaries for the headline
/// metrics and the any-replica safety fold (a flag is only true when EVERY
/// replica kept it true — one bad draw marks the cell).
struct cell_stats {
  usize replicas = 0;

  metric_summary effectiveness;  ///< run_report::effectiveness
  metric_summary work;           ///< run_report::total_work.total()
  metric_summary collisions;     ///< run_report::total_collisions
  metric_summary steps;          ///< run_report::total_steps

  bool at_most_once = true;  ///< AND over replicas (any violation ORs in)
  bool quiescent = true;     ///< AND over replicas
  bool wa_complete = true;   ///< AND over replicas
  job_id duplicate = no_job; ///< first replica's duplicate, replica order

  double wall_seconds = 0.0; ///< sum over replicas (total cell compute)

  friend bool operator==(const cell_stats&, const cell_stats&) = default;
};

/// Folds the per-replica reports of one cell (replica order). Requires at
/// least one report.
[[nodiscard]] cell_stats fold_replicas(std::span<const run_report> runs);

/// One headline metric: its record-field name, where its fold lands in
/// cell_stats, and how a replica's run_report samples it. The single table
/// (summary_metrics) keeps fold_replicas, summary_values and
/// exp::merge_stream's re-fold structurally in lockstep — adding a metric
/// here adds it to all three, so the merge byte-identity cannot silently
/// lose a field.
struct summary_metric {
  const char* name;
  metric_summary cell_stats::* summary;
  double (*sample)(const run_report&);
};

/// The headline metrics, schema order: effectiveness, work, collisions,
/// steps.
[[nodiscard]] std::span<const summary_metric> summary_metrics();

/// The aggregate-record suffix every cell record carries, in schema order:
/// <metric>_{min,mean,max,stddev,p50,p95} for effectiveness, work,
/// collisions, steps, as doubles — shared by the sweep's row builder and
/// exp::merge_stream's re-fold, so both write bit-equal values.
[[nodiscard]] std::vector<std::pair<std::string, double>> summary_values(
    const cell_stats& stats);

}  // namespace amo::exp
