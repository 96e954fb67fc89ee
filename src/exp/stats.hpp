// exp::stats — the distribution layer between one execution and one
// experiment cell, and the one definition of an aggregate cell record.
//
// Everything the randomized adversaries measure (effectiveness under
// random+crash, collision ratios, work) is a distribution, but a
// run_report is one draw. A cell is run_spec × R deterministic replicas
// (seeds derived by exp::replica_seed), each written as one unit record
// (exp::unit_record_rows), and fold_cell turns a cell's R unit rows
// into its aggregate record: min/mean/max/stddev and p50/p95 for the four
// headline metrics, plus any-replica safety folding (one violating
// replica marks the whole cell).
//
// fold_cell is the only code that builds an aggregate record, and it
// reads its inputs through one (row, col) -> value_view accessor, the
// shape the column encoder takes. An unsharded sweep
// (exp::cell_record_rows) folds the typed unit rows of its own reports,
// and every merge (exp::merge_stream) folds the unit rows it reads from
// shards — decoded records, or a checked .amoc image's column blocks read
// in place — so sweep == merge(shards) holds by construction, with no
// row converted on the way in.
// Every number is a deterministic function of the replica values *in
// replica order* — the mean/stddev accumulate in input order, percentiles
// sort a copy — and a unit row read back from a shard carries the exact
// value its writer had (json_writer::num round-trips), so the fold's inputs, and
// hence its output bytes, do not depend on where the units ran.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/record.hpp"

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

/// Receives an aggregate record's fields, in order.
using field_sink =
    std::function<void(std::string_view key, const value_view& value)>;

/// Folds ONE cell's `rows` unit rows (at least one, complete, replica
/// order; schema `columns`, read through `at`) into its aggregate record,
/// whose fields go to `put` in this order:
/// - "cell", "cells_total", "grid" and "replicas", copied from replica 0
///   (a field replica 0 lacks is left out, never written empty);
/// - replica 0's other fields, in order, without the unit bookkeeping
///   ("unit", "units_total", "replica") and the exp::timing_keys, except:
///   at_most_once, quiescent and wa_complete AND-fold over the replicas,
///   and duplicate is the first non-zero duplicate in replica order (else
///   0);
/// - <metric>_{min,mean,max,stddev,p50,p95} of effectiveness, work,
///   collisions and steps (exp::summarize), as f64 values;
/// - "wall_seconds", the replicas' summed wall clock, iff they carry one.
/// The fold reads only views: typed rows, decoded records and checked
/// .amoc blocks reach it as they are. False with `error` (and nothing
/// put) when a row lacks a metric or a flag.
[[nodiscard]] bool fold_cell(usize rows,
                             const std::vector<std::string>& columns,
                             const cell_at& at, const field_sink& put,
                             std::string& error);

}  // namespace amo::exp
