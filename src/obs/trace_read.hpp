// Reader for Chrome trace-event JSON documents — the inverse of
// obs::export_json, used by `amo_lab stats` and the round-trip tests.
//
// A thin schema over util/json_scan, the lexer the record reader uses too,
// so strings (escapes, \u surrogate pairs) and numbers (a leading '+',
// overflow clamping) follow one set of rules. It reads the trace-event
// container shape ({"traceEvents":[...], "otherData":{...}} or a bare
// event array) and only *captures* the fields the summary fold needs;
// any other value, however deeply nested, is skipped without recursion.
// pid/tid outside [0, INT_MAX] or dropped_events outside [0, 2^64) make
// the document malformed. It parses any conformant producer's file, not
// just ours.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace amo::obs {

/// One parsed trace event. `ph` is the trace-event phase ('X' complete
/// span, 'C' counter, 'i' instant, 'M' metadata, ...).
struct trace_event {
  char ph = 0;
  std::string cat;
  std::string name;
  int pid = 0;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::vector<std::pair<std::string, std::string>> args;
  double counter_value = 0.0;  ///< args.value on 'C' events
  bool has_value = false;
};

struct trace_parse_result {
  std::vector<trace_event> events;
  std::uint64_t dropped = 0;  ///< otherData.dropped_events, if present
  std::string error;          ///< empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses a trace-event JSON document. On malformed input, `error`
/// describes the first offence: "malformed trace: why at byte N".
[[nodiscard]] trace_parse_result parse_trace(std::string_view text);

/// read_file + parse_trace; I/O failures land in `error` ("cannot ...").
[[nodiscard]] trace_parse_result parse_trace_file(const char* path);

}  // namespace amo::obs
