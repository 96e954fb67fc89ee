#include "sim/adversary.hpp"

#include <array>

#include "sim/trace.hpp"
#include "util/parse.hpp"

namespace amo::sim {

scripted_adversary scripted_adversary::steps(std::vector<process_id> pids) {
  std::vector<trace_event> script;
  script.reserve(pids.size());
  for (const process_id pid : pids) script.push_back({decision::kind::step, pid});
  return scripted_adversary(std::move(script));
}

namespace {

/// Strips `prefix` from `name`; false when `name` does not start with it.
bool consume(std::string_view& name, std::string_view prefix) {
  if (!name.starts_with(prefix)) return false;
  name.remove_prefix(prefix.size());
  return true;
}

}  // namespace

std::optional<any_adversary> parse_adversary(std::string_view name,
                                             std::uint64_t seed) {
  if (name == "round_robin") return round_robin_adversary{};
  if (name == "random") return random_adversary(seed);
  if (name == "random+crash") return random_adversary(seed, 1, 500);
  if (name == "block4") return block_adversary(seed, 4);
  if (name == "block64") return block_adversary(seed, 64);
  if (name == "stale_view") return stale_view_adversary(50000);
  if (name == "announce_crash") return announce_crash_adversary{};

  std::string_view rest = name;
  if (consume(rest, "random+crash:")) {
    const usize slash = rest.find('/');
    std::uint64_t num = 0;
    std::uint64_t den = 0;
    if (slash == std::string_view::npos ||
        !parse_u64(rest.substr(0, slash), num) ||
        !parse_u64(rest.substr(slash + 1), den) || den == 0) {
      return std::nullopt;
    }
    return random_adversary(seed, num, den);
  }
  if (consume(rest, "block:")) {
    std::uint64_t quantum = 0;
    if (!parse_u64(rest, quantum)) return std::nullopt;
    return block_adversary(seed, static_cast<usize>(quantum));
  }
  if (consume(rest, "stale_view:")) {
    std::uint64_t leader = 0;
    if (!parse_u64(rest, leader)) return std::nullopt;
    return stale_view_adversary(static_cast<usize>(leader));
  }
  if (consume(rest, "scripted:") || consume(rest, "replay:")) {
    trace t;
    if (!trace::parse(rest, t)) return std::nullopt;
    return scripted_adversary(t.events());
  }
  return std::nullopt;
}

std::span<const char* const> standard_adversaries() {
  static constexpr std::array<const char*, 6> kStandard{
      "round_robin", "random", "random+crash", "block4", "block64", "stale_view"};
  return kStandard;
}

}  // namespace amo::sim
