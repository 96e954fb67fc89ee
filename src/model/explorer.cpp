#include "model/explorer.hpp"

#include <unordered_set>
#include <vector>

namespace amo::model {

namespace {

/// A scheduler/adversary choice at a node of the DFS.
struct choice {
  bool is_crash = false;
  process_id pid = 1;
};

/// Enumerates the successor choices of `s`: one step per runnable process,
/// plus one crash per runnable process while budget remains.
std::vector<choice> choices_of(const sys_state& s, const model_config& cfg) {
  std::vector<choice> out;
  for (process_id p = 1; p <= cfg.m; ++p) {
    if (runnable(s, cfg, p)) out.push_back({false, p});
  }
  if (s.crashes < cfg.crash_budget) {
    for (process_id p = 1; p <= cfg.m; ++p) {
      if (runnable(s, cfg, p)) out.push_back({true, p});
    }
  }
  return out;
}

struct frame {
  sys_state state;
  fingerprint fp;
  std::vector<choice> choices;
  usize next_choice = 0;
};

}  // namespace

explore_result explore(const explore_options& opt) {
  const model_config& cfg = opt.cfg;
  check_config(cfg, "explore");
  explore_result result;

  std::unordered_set<fingerprint, fingerprint_hash> visited;
  std::unordered_set<fingerprint, fingerprint_hash> on_path;
  std::vector<frame> stack;

  auto enter = [&](sys_state&& s) {
    const fingerprint fp = fingerprint_of(s, cfg);
    if (visited.contains(fp)) {
      if (on_path.contains(fp)) result.cycle_found = true;
      return false;
    }
    visited.insert(fp);
    on_path.insert(fp);
    ++result.states;
    if (s.duplicate) result.duplicate_found = true;
    if (!lemma62_holds(s, cfg)) result.lemma62_violated = true;
    if (quiescent(s, cfg)) {
      ++result.quiescent_states;
      const usize e = jobs_performed(s);
      if (e < result.min_effectiveness) result.min_effectiveness = e;
      if (e > result.max_effectiveness) result.max_effectiveness = e;
    }
    frame f;
    f.choices = choices_of(s, cfg);
    f.state = std::move(s);
    f.fp = fp;
    stack.push_back(std::move(f));
    if (stack.size() > result.max_depth) result.max_depth = stack.size();
    return true;
  };

  // The ~usize{0} running-minimum initializer must never escape: a capped
  // run with no quiescent state yet would otherwise report a giant
  // min_effectiveness through run_report/JSON (regression-tested in
  // tests/test_model_por.cpp).
  auto normalized = [&result]() -> explore_result& {
    if (result.quiescent_states == 0) result.min_effectiveness = 0;
    return result;
  };

  enter(initial_state(cfg));
  while (!stack.empty()) {
    if (result.states >= opt.max_states) {
      return normalized();  // capped: result.complete stays false
    }
    frame& top = stack.back();
    if (top.next_choice >= top.choices.size()) {
      on_path.erase(top.fp);
      stack.pop_back();
      continue;
    }
    const choice c = top.choices[top.next_choice++];
    ++result.transitions;
    sys_state succ = c.is_crash ? crash(top.state, cfg, c.pid)
                                : step(top.state, cfg, c.pid);
    enter(std::move(succ));
  }
  result.complete = true;
  return normalized();
}

}  // namespace amo::model
