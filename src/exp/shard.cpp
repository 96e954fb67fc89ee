#include "exp/shard.hpp"

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

std::vector<usize> shard_indices(usize total_cells, const shard_ref& s) {
  std::vector<usize> indices;
  if (!s.valid()) return indices;
  indices.reserve(total_cells / s.count + 1);
  for (usize i = s.index; i < total_cells; i += s.count) indices.push_back(i);
  return indices;
}

std::vector<run_spec> shard_cells(const std::vector<run_spec>& all,
                                  const shard_ref& s) {
  std::vector<run_spec> cells;
  const std::vector<usize> indices = shard_indices(all.size(), s);
  cells.reserve(indices.size());
  for (const usize i : indices) cells.push_back(all[i]);
  return cells;
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

namespace {

/// FNV-1a over the bytes of everything that makes a spec's value identity.
struct fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void bytes(const void* data, usize len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (usize i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  void str(const std::string& s) {
    const usize len = s.size();
    bytes(&len, sizeof len);  // length-prefixed: "ab"+"c" != "a"+"bc"
    bytes(s.data(), len);
  }
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
};

}  // namespace

std::uint64_t grid_fingerprint(const std::vector<run_spec>& cells) {
  fnv1a f;
  f.value(cells.size());
  for (const run_spec& s : cells) {
    f.str(s.label);
    f.value(s.algo);
    f.value(s.driver);
    f.value(s.memory);
    f.value(std::uint8_t{0});  // the retired free_set knob, kept so older
                               // manifests still resume
    f.value(s.n);
    f.value(s.m);
    f.value(s.beta);
    f.value(s.eps_inv);
    f.value(s.rule);
    f.value(s.crash_budget);
    f.value(s.max_steps);
    f.value(s.replicas);
    f.str(s.adversary.name);
    f.value(s.adversary.seed);
    f.value(s.crashes.what);
    for (const usize c : s.crashes.per_thread) f.value(c);
    f.value(s.crashes.count);
    f.value(s.record_trace);
  }
  return f.h;
}

}  // namespace amo::exp
