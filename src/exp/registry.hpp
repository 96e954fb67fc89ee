// Named scenarios: every workload the repo knows how to exercise, centrally
// registered so a new experiment is a registry entry instead of a new
// binary. Each scenario expands a scenario_params (size / process count /
// seed knobs, CLI-overridable) into a vector of run_spec cells for
// exp::sweep. The set covers every adversary in standard_adversaries(),
// the Theorem 4.4 announce_crash worst case (with its required
// crash_budget = m-1), trace replays, the iterated and Write-All
// algorithms, the comparison baselines (AO2, TAS, the Write-All baseline
// suite), exhaustive model exploration, and the real-thread runtime.
#pragma once

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "exp/spec.hpp"

namespace amo::exp {

struct scenario_params {
  usize n = 4096;         ///< job universe
  usize m = 4;            ///< processes / threads
  usize beta = 0;         ///< kk family; 0 = m
  unsigned eps_inv = 2;   ///< iterative families
  std::uint64_t seed = 1; ///< first adversary seed
  usize seeds = 2;        ///< seed variants per scenario (distinct cells)
  usize replicas = 1;     ///< deterministic replicas per cell (run_spec::
                          ///< replicas; folded by exp::fold_cell). seeds
                          ///< multiplies CELLS, replicas multiplies RUNS
                          ///< per cell — 0 means 1.

  friend bool operator==(const scenario_params&, const scenario_params&) = default;
};

struct scenario {
  std::string name;
  std::string description;
  std::function<std::vector<run_spec>(const scenario_params&)> make_cells;
};

/// All registered scenarios, stable order, unique names.
std::span<const scenario> scenario_registry();

/// Lookup by exact name; nullptr when absent.
const scenario* find_scenario(std::string_view name);

/// Expands one scenario (by name) into cells. Throws std::invalid_argument
/// for an unknown name.
std::vector<run_spec> scenario_cells(std::string_view name,
                                     const scenario_params& params);

/// Cells of every registered scenario, concatenated in registry order —
/// the "standard sweep".
std::vector<run_spec> all_scenario_cells(const scenario_params& params);

}  // namespace amo::exp
