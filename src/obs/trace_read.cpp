#include "obs/trace_read.hpp"

#include "util/fileio.hpp"
#include "util/json_scan.hpp"

namespace amo::obs {

namespace {

/// A number in [0, limit): an id or a count. Anything else (negative, too
/// large, non-finite) is a malformed document, not a cast with undefined
/// behaviour.
bool read_bounded(json::scanner& sc, double limit, double& v) {
  if (!sc.number(v)) return false;
  if (!(v >= 0 && v < limit)) return sc.fail("number out of range");
  return true;
}

bool read_id(json::scanner& sc, int& out) {
  double v = 0;
  if (!read_bounded(sc, 0x1p31, v)) return false;  // INT_MAX + 1
  out = static_cast<int>(v);
  return true;
}

// Every args member is kept as text: a string decoded, a number or literal
// as its raw token, a container skipped and captured as "".
bool read_args(json::scanner& sc, trace_event& ev) {
  return sc.object("args", [&](std::string& key) {
    std::string text;
    const char c = sc.peek();
    if (c == '{' || c == '[') {
      if (!sc.skip_value()) return false;
    } else {
      json::token t;
      if (!sc.scalar(t, text)) return false;
      if (t.type != json::kind::string) text.assign(t.raw);
      if (key == "value" && t.type == json::kind::number) {
        ev.counter_value = t.number;
        ev.has_value = true;
      }
    }
    ev.args.emplace_back(std::move(key), std::move(text));
    return true;
  });
}

bool read_event(json::scanner& sc, trace_event& ev) {
  return sc.object("event", [&](const std::string& key) {
    if (key == "ph") {
      std::string ph;
      if (!sc.string(ph)) return false;
      ev.ph = ph.empty() ? '\0' : ph[0];
      return true;
    }
    if (key == "cat") return sc.string(ev.cat);
    if (key == "name") return sc.string(ev.name);
    if (key == "pid") return read_id(sc, ev.pid);
    if (key == "tid") return read_id(sc, ev.tid);
    if (key == "ts") return sc.number(ev.ts_us);
    if (key == "dur") return sc.number(ev.dur_us);
    if (key == "args" && sc.peek() == '{') return read_args(sc, ev);
    return sc.skip_value();
  });
}

bool read_events(json::scanner& sc, trace_parse_result& out) {
  return sc.array("traceEvents", [&] {
    return read_event(sc, out.events.emplace_back());
  });
}

bool read_other_data(json::scanner& sc, trace_parse_result& out) {
  return sc.object("otherData", [&](const std::string& key) {
    if (key != "dropped_events") return sc.skip_value();
    double v = 0;
    if (!read_bounded(sc, 0x1p64, v)) return false;
    out.dropped = static_cast<std::uint64_t>(v);
    return true;
  });
}

}  // namespace

trace_parse_result parse_trace(std::string_view text) {
  trace_parse_result out;
  json::scanner sc(text);
  // Both container shapes are valid trace-event JSON: a bare event array,
  // or the object form with "traceEvents".
  const bool parsed =
      sc.peek() == '['
          ? read_events(sc, out)
          : sc.object("document", [&](const std::string& key) {
              if (key == "traceEvents") return read_events(sc, out);
              if (key == "otherData") return read_other_data(sc, out);
              return sc.skip_value();
            });
  if (parsed && !sc.at_end()) sc.fail("trailing content");
  if (sc.failed()) {
    out.error = "malformed trace: " + sc.why() + " at byte " +
                std::to_string(sc.error_pos());
    out.events.clear();
  }
  return out;
}

trace_parse_result parse_trace_file(const char* path) {
  std::string content;
  trace_parse_result out;
  if (!read_file(path, content, out.error)) return out;
  return parse_trace(content);
}

}  // namespace amo::obs
