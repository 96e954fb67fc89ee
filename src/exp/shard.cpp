#include "exp/shard.hpp"

#include "util/fnv.hpp"
#include "util/parse.hpp"

namespace amo::exp {

bool parse_shard(std::string_view text, shard_ref& out) {
  const usize slash = text.find('/');
  if (slash == std::string_view::npos) return false;
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  if (!parse_u64(text.substr(0, slash), index) ||
      !parse_u64(text.substr(slash + 1), count)) {
    return false;
  }
  const shard_ref s{static_cast<usize>(index), static_cast<usize>(count)};
  if (!s.valid()) return false;
  out = s;
  return true;
}

std::string to_string(const shard_ref& s) {
  return std::to_string(s.index) + "/" + std::to_string(s.count);
}

usize unit_count(const std::vector<run_spec>& cells) {
  usize total = 0;
  for (const run_spec& c : cells) total += resolved_replicas(c);
  return total;
}

std::vector<unit_ref> shard_units(const std::vector<run_spec>& cells,
                                  const shard_ref& s) {
  std::vector<unit_ref> units;
  if (!s.valid()) return units;
  const usize total = unit_count(cells);
  units.reserve(total / s.count + 1);
  // Walk the cell-major unit space once, keeping (cell, replica) in step
  // with the strided unit index — O(total) and allocation-free beyond the
  // output, instead of a per-unit binary search over prefix sums.
  usize cell = 0;
  usize cell_first = 0;  // unit index of (cell, replica 0)
  usize reps = cells.empty() ? 0 : resolved_replicas(cells[0]);
  for (usize u = s.index; u < total; u += s.count) {
    while (u >= cell_first + reps) {
      cell_first += reps;
      ++cell;
      reps = resolved_replicas(cells[cell]);
    }
    units.push_back({u, cell, u - cell_first, reps});
  }
  return units;
}

std::uint64_t grid_fingerprint(const std::vector<run_spec>& cells) {
  // FNV-1a over the bytes of everything that makes a spec's value
  // identity, from the published 64-bit basis (not util/fnv.hpp's
  // fnv1a64_offset): every grid value written so far was hashed from it.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto value = [&h](const auto& v) {
    h = fnv1a64_append(
        h, std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
  };
  const auto str = [&](const std::string& s) {
    value(s.size());  // length-prefixed: "ab"+"c" != "a"+"bc"
    h = fnv1a64_append(h, s);
  };
  value(cells.size());
  for (const run_spec& s : cells) {
    str(s.label);
    value(s.algo);
    value(s.driver);
    value(s.memory);
    value(std::uint8_t{0});  // the retired free_set knob, kept so older
                             // manifests still resume
    value(s.n);
    value(s.m);
    value(s.beta);
    value(s.eps_inv);
    value(s.rule);
    value(s.crash_budget);
    value(s.max_steps);
    value(s.replicas);
    str(s.adversary.name);
    value(s.adversary.seed);
    value(s.crashes.what);
    for (const usize c : s.crashes.per_thread) value(c);
    value(s.crashes.count);
    value(s.record_trace);
  }
  return h;
}

}  // namespace amo::exp
