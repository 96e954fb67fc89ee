// exp::sweep — run many independent experiment cells on the work-stealing
// pool. A cell is run_spec × R deterministic replicas (per-replica seeds
// derived by exp::replica_seed), and the sweep's work queue is flattened to
// (cell, replica) granularity: each replica is its own pool task and steals
// across the pool exactly like cells do, except that a cell whose schedule
// ignores its seed (exp::batchable, exp/batch.hpp) runs once for all its
// replicas. Each unit is a self-contained pure function of its spec +
// replica index, so per-replica results are bit-identical regardless of
// pool size or execution order; results come back in cell-major (cell,
// replica) order. A cell's aggregate record is made where it is rendered:
// exp::fold_cell over the cell's unit rows (exp::cell_record_rows).
//
// Two entry points: the options form spins up a pool for this one sweep,
// the svc::worker_pool form runs the units
// on a caller-owned persistent pool — the service path, where one pool
// outlives thousands of small sweeps and thread startup is paid once
// (bench_pool measures the difference). Both produce identical reports.
#pragma once

#include <vector>

#include "exp/shard.hpp"

namespace amo::svc {
class worker_pool;
}  // namespace amo::svc

namespace amo::exp {

struct sweep_options {
  /// Worker threads; 0 = hardware_concurrency, 1 = serial reference run.
  usize pool_size = 0;
};

/// One swept cell: where its replicas' run_reports live in
/// sweep_result::reports, [first, first + replicas) — flattened storage,
/// so single-replica sweeps cost exactly what they did before the replica
/// refactor. (The cell's spec is not duplicated here: cells[i] corresponds
/// to the caller's input cells[i], which it already holds.)
struct cell_report {
  usize first = 0;    ///< index of replica 0 in sweep_result::reports
  usize replicas = 1; ///< resolved replica count
};

struct sweep_result {
  /// Per-replica reports, cell-major: cell i's replicas occupy
  /// [cells[i].first, cells[i].first + cells[i].replicas). For a grid of
  /// single-replica cells this is exactly one report per cell, in cell
  /// order — the pre-replica contract every bench still relies on.
  std::vector<run_report> reports;
  std::vector<cell_report> cells;  ///< cells[i] corresponds to input cells[i]
  double wall_seconds = 0.0;       ///< whole-sweep wall clock
  usize pool_size = 0;             ///< workers actually used (1 when serial)
};

/// Runs every (cell, replica) unit; blocks until all are done. A throwing
/// unit (e.g. an unknown adversary name) does not stop the others: the
/// remaining units still run — at any pool size, including the serial path
/// — and the first exception is rethrown once the sweep drains (that
/// unit's report slot is left default-constructed).
sweep_result sweep(const std::vector<run_spec>& cells,
                   const sweep_options& opt = {});

/// Same contract, on a caller-owned long-lived pool (no threads spawned
/// here). Byte-identical reports to the options form at any pool size.
sweep_result sweep(const std::vector<run_spec>& cells, svc::worker_pool& pool);

struct unit_run_result {
  std::vector<run_report> reports;  ///< reports[i] corresponds to units[i]
  usize pool_size = 0;              ///< workers actually used
};

/// The unit-execution kernel: runs an explicit (cell, replica) unit list —
/// the whole grid, or a shard slice — on the pool, reports in unit-list
/// order. sweep() and svc::execute_job's sharded path both go through
/// here, so whole-grid and sharded executions cannot drift apart (the
/// byte-identity the merge layer depends on). Consecutive units of the
/// same batchable cell (adjacent in every shard_units output: slices are
/// strided ascending over the cell-major unit space) are one pool task that
/// runs the cell once and copies the report into each unit's slot with the
/// unit's own seed; every other unit is its own task.
/// Same error contract as sweep(): all units run, the first exception
/// rethrows after the drain.
unit_run_result run_units(const std::vector<run_spec>& cells,
                          const std::vector<unit_ref>& units,
                          svc::worker_pool& pool);

}  // namespace amo::exp
