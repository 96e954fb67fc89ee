// Deterministic k-way partition of a sweep grid — the distribution layer
// that lets one logical sweep run across processes or hosts.
//
// Since the replica refactor the partitioned index space is the grid's
// UNIT space — every (cell, replica) pair, cell-major — so shard i of k
// owns exactly the units whose global index is congruent to i modulo k (a
// strided partition: balanced even when cell cost varies with grid
// position, and one expensive cell's replicas spread across shards).
// Because every unit is a pure function of (its cell's run_spec, its
// replica index), a sharded sweep followed by exp::merge_stream reproduces
// the unsharded sweep's aggregate records byte-for-byte; the partition
// itself is pure arithmetic, so any two invocations — on any host — agree
// on the assignment.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/spec.hpp"

namespace amo::exp {

/// One slice of a k-way partition, written "i/k" on the command line.
struct shard_ref {
  usize index = 0;  ///< i, in [0, count)
  usize count = 1;  ///< k >= 1; 1/1 means "the whole grid"

  [[nodiscard]] bool valid() const { return count >= 1 && index < count; }

  friend bool operator==(const shard_ref&, const shard_ref&) = default;
};

/// Parses "i/k" (e.g. "0/3"). Returns false — leaving `out` untouched — on
/// malformed input, k = 0, or i >= k.
bool parse_shard(std::string_view text, shard_ref& out);

/// The canonical "i/k" spelling.
std::string to_string(const shard_ref& s);

/// One schedulable unit of a replica-aware grid: replica `replica` of cell
/// `cell`. The unit space enumerates every (cell, replica) pair in
/// cell-major order — unit 0 is (cell 0, replica 0) — so a grid of C cells
/// with R replicas each has C*R units, and sharding partitions WORK (unit
/// indices), not cells: one expensive cell's replicas spread across shards.
struct unit_ref {
  usize unit = 0;           ///< global unit index
  usize cell = 0;           ///< global cell index
  usize replica = 0;        ///< replica index within the cell
  usize cell_replicas = 1;  ///< the cell's resolved replica count

  friend bool operator==(const unit_ref&, const unit_ref&) = default;
};

/// Total units of a grid: sum of resolved_replicas over every cell.
[[nodiscard]] usize unit_count(const std::vector<run_spec>& cells);

/// The units shard `s` owns out of the grid's unit space, ascending:
/// units {s.index, s.index + s.count, s.index + 2*s.count, ...}, mapped
/// back to (cell, replica) pairs. s = 0/1 yields every unit, cell-major.
std::vector<unit_ref> shard_units(const std::vector<run_spec>& cells,
                                  const shard_ref& s);

/// Order-sensitive 64-bit fingerprint of a whole grid (every spec, in cell
/// order). Sweep records carry it as the "grid" field, which is how
/// exp::merge_stream refuses shards of *different* grids even when their
/// cell counts happen to agree. Shard invocations fingerprint the full
/// grid, not their slice, so all shards of one sweep agree.
std::uint64_t grid_fingerprint(const std::vector<run_spec>& cells);

}  // namespace amo::exp
