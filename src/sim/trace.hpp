// Execution traces: record the exact decision sequence of any adversary and
// replay it later, byte-for-byte deterministically.
//
// Because the simulator is deterministic given the decision sequence (the
// algorithm has no internal randomness — Section 1: "our solutions are
// deterministic"), a trace fully identifies an execution: replaying it
// reproduces every announcement, collision, crash and do action. Traces
// serialize to a compact text form ("s3 s1 c2 s1 ...") suitable for bug
// reports and regression corpora.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/adversary.hpp"

namespace amo::sim {

/// A decision sequence; scripted_adversary(t.events()) replays it.
class trace {
 public:
  void append(trace_event e) { events_.push_back(e); }
  [[nodiscard]] usize size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::vector<trace_event>& events() const { return events_; }

  /// "s3 s1 c2 ..." — s = step, c = crash, number = 1-based pid.
  [[nodiscard]] std::string serialize() const;

  /// Parses the serialize() format; returns false on malformed input.
  static bool parse(std::string_view text, trace& out);

  /// First `count` events (schedule-prefix truncation for debugging).
  [[nodiscard]] trace prefix(usize count) const;

  friend bool operator==(const trace&, const trace&) = default;

 private:
  std::vector<trace_event> events_;
};

/// Wraps any adversary and records the decisions the scheduler will actually
/// execute (an over-budget crash request is recorded as the step it gets
/// downgraded to, so replay matches execution exactly).
class recording_adversary final : public adversary {
 public:
  recording_adversary(adversary& inner, trace& out) : inner_(inner), out_(out) {}
  decision decide(const sched_view& v) override;
  [[nodiscard]] const char* name() const override { return "recording"; }

 private:
  adversary& inner_;
  trace& out_;
};

}  // namespace amo::sim
