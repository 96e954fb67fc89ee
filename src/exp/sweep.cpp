#include "exp/sweep.hpp"

#include <optional>

#include "exp/batch.hpp"
#include "exp/engine.hpp"
#include "obs/telemetry.hpp"
#include "sim/adversary.hpp"
#include "svc/worker_pool.hpp"
#include "util/stopwatch.hpp"

namespace amo::exp {

bool batchable(const run_spec& cell) {
  if (cell.driver != driver_kind::scheduled) return false;
  if (cell.algo == algo_family::model_explore_por) return false;
  // Names the grammar rejects run per replica, so each unit throws as
  // exp::run does.
  const std::optional<sim::any_adversary> adv =
      sim::parse_adversary(cell.adversary.name, cell.adversary.seed);
  return adv && !sim::seeded(*adv);
}

namespace {

/// One pool task: units[first .. first+count). count > 1 only for the
/// consecutive units of one batchable cell, which run once.
struct unit_task {
  usize first = 0;
  usize count = 1;
};

/// Groups the unit list into pool tasks: each maximal run of consecutive
/// units of one batchable cell becomes one task, every other unit is its
/// own. Grouping is a pure function of (units, cells), so every shard
/// groups the replicas it owns wherever they are adjacent.
std::vector<unit_task> plan_unit_tasks(const std::vector<run_spec>& cells,
                                       const std::vector<unit_ref>& units) {
  std::vector<unit_task> tasks;
  tasks.reserve(units.size());
  usize i = 0;
  while (i < units.size()) {
    usize j = i + 1;
    while (j < units.size() && units[j].cell == units[i].cell) ++j;
    if (batchable(cells[units[i].cell])) {
      tasks.push_back({i, j - i});
    } else {
      for (usize k = i; k < j; ++k) tasks.push_back({k, 1});
    }
    i = j;
  }
  return tasks;
}

}  // namespace

unit_run_result run_units(const std::vector<run_spec>& cells,
                          const std::vector<unit_ref>& units,
                          svc::worker_pool& pool) {
  unit_run_result out;
  out.reports.resize(units.size());

  // POR cells invert the parallelism: each unit is one whole-state-graph
  // exploration whose frontier wants the pool to itself, and nesting
  // run_indexed inside a pool task would deadlock. When the sweep is all
  // POR, run the units serially on the caller thread and hand each one the
  // pool. Reports are bit-identical either way (the POR frontier is
  // deterministic at any pool size), so mixed sweeps lose nothing but
  // frontier parallelism by taking the generic path below (where POR cells
  // run with a serial frontier, pool = nullptr).
  const bool all_por = [&] {
    for (const unit_ref& u : units) {
      if (cells[u.cell].algo != algo_family::model_explore_por) return false;
    }
    return !units.empty();
  }();
  if (all_por) {
    for (usize i = 0; i < units.size(); ++i) {
      const unit_ref& u = units[i];
      obs::span sp("sweep", "unit");
      sp.arg("cell", static_cast<std::uint64_t>(u.cell));
      sp.arg("replica", static_cast<std::uint64_t>(u.replica));
      out.reports[i] = run_por(replica_spec(cells[u.cell], u.replica), pool);
    }
    out.pool_size = pool.size();
    return out;
  }

  const std::vector<unit_task> tasks = plan_unit_tasks(cells, units);
  out.pool_size = pool.run_indexed(tasks.size(), [&](usize t) {
    const unit_task& tk = tasks[t];
    if (tk.count == 1) {
      const unit_ref& u = units[tk.first];
      obs::span sp("sweep", "unit");
      sp.arg("cell", static_cast<std::uint64_t>(u.cell));
      sp.arg("replica", static_cast<std::uint64_t>(u.replica));
      out.reports[tk.first] = run(replica_spec(cells[u.cell], u.replica));
      return;
    }
    // Every replica of a batchable cell is the same execution: run it
    // once and copy the report, echoing each replica's own seed.
    const run_spec& cell = cells[units[tk.first].cell];
    obs::span sp("sweep", "replica_block");
    sp.arg("cell", static_cast<std::uint64_t>(units[tk.first].cell));
    sp.arg("replicas", static_cast<std::uint64_t>(tk.count));
    const run_report once = run(replica_spec(cell, units[tk.first].replica));
    for (usize k = 0; k < tk.count; ++k) {
      run_report& rep = out.reports[tk.first + k];
      rep = once;
      rep.seed = replica_seed(cell.adversary.seed, units[tk.first + k].replica);
    }
  });
  return out;
}

sweep_result sweep(const std::vector<run_spec>& cells, svc::worker_pool& pool) {
  sweep_result out;
  out.cells.reserve(cells.size());

  // Flatten to (cell, replica) units so replicas steal across the pool
  // exactly like cells do. The full unit list is cell-major, so reports in
  // unit order are exactly the flattened [cells[i].first, +replicas) layout.
  const std::vector<unit_ref> units = shard_units(cells, shard_ref{0, 1});
  usize first = 0;
  for (const run_spec& c : cells) {
    cell_report cr;
    cr.first = first;
    cr.replicas = resolved_replicas(c);
    first += cr.replicas;
    out.cells.push_back(cr);
  }

  stopwatch clock;
  unit_run_result ur = run_units(cells, units, pool);
  out.reports = std::move(ur.reports);
  out.pool_size = ur.pool_size;
  out.wall_seconds = clock.seconds();
  return out;
}

sweep_result sweep(const std::vector<run_spec>& cells, const sweep_options& opt) {
  svc::worker_pool pool(opt.pool_size);
  return sweep(cells, pool);
}

}  // namespace amo::exp
