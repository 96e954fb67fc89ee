#include "sim/trace.hpp"

#include <limits>

#include "util/parse.hpp"

namespace amo::sim {

std::string trace::serialize() const {
  std::string out;
  out.reserve(events_.size() * 4);
  for (const trace_event& e : events_) {
    if (!out.empty()) out += ' ';
    out += e.what == decision::kind::crash ? 'c' : 's';
    out += std::to_string(e.pid);
  }
  return out;
}

bool trace::parse(std::string_view text, trace& out) {
  trace result;
  usize i = 0;
  const usize n = text.size();
  while (i < n) {
    while (i < n && text[i] == ' ') ++i;
    if (i == n) break;
    trace_event e;
    if (text[i] == 's') {
      e.what = decision::kind::step;
    } else if (text[i] == 'c') {
      e.what = decision::kind::crash;
    } else {
      return false;
    }
    ++i;
    const usize digits = i;
    while (i < n && text[i] >= '0' && text[i] <= '9') ++i;
    // Traces arrive from outside (replay: names, corpus files): a pid that
    // does not fit process_id is malformed, not wrapped.
    std::uint64_t pid = 0;
    if (!parse_u64(text.substr(digits, i - digits), pid) || pid == 0 ||
        pid > std::numeric_limits<process_id>::max()) {
      return false;
    }
    e.pid = static_cast<process_id>(pid);
    result.append(e);
  }
  out = std::move(result);
  return true;
}

trace trace::prefix(usize count) const {
  trace out;
  for (usize i = 0; i < count && i < events_.size(); ++i) {
    out.append(events_[i]);
  }
  return out;
}

decision recording_adversary::decide(const sched_view& v) {
  decision d = inner_.decide(v);
  trace_event e;
  e.pid = d.pid;
  // Mirror the scheduler's budget rule so the trace records what actually
  // happens rather than what was requested.
  e.what = (d.what == decision::kind::crash && v.crashes_used < v.crash_budget)
               ? decision::kind::crash
               : decision::kind::step;
  out_.append(e);
  return d;
}

}  // namespace amo::sim
