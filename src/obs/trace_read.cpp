#include "obs/trace_read.hpp"

#include <charconv>
#include <cmath>

#include "util/fileio.hpp"

namespace amo::obs {

namespace {

// Recursive-descent JSON reader over a string_view. Each parse_* returns
// false after recording the first error; callers propagate immediately.
struct parser {
  std::string_view s;
  usize p = 0;
  std::string error;

  bool fail(const char* what) {
    if (error.empty()) {
      error = std::string(what) + " at byte " + std::to_string(p);
    }
    return false;
  }

  void skip_ws() {
    while (p < s.size() && (s[p] == ' ' || s[p] == '\t' || s[p] == '\n' ||
                            s[p] == '\r')) {
      ++p;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return p < s.size() ? s[p] : '\0';
  }

  bool expect(char c) {
    if (peek() != c) return fail("unexpected character");
    ++p;
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (p < s.size()) {
      const char c = s[p];
      if (c == '"') {
        ++p;
        return true;
      }
      if (c == '\\') {
        if (p + 1 >= s.size()) return fail("truncated escape");
        const char e = s[p + 1];
        p += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (p + 4 > s.size()) return fail("truncated \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s[p + static_cast<usize>(i)];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            p += 4;
            append_utf8(out, cp);
            break;
          }
          default:
            return fail("bad escape");
        }
        continue;
      }
      out += c;
      ++p;
    }
    return fail("unterminated string");
  }

  bool parse_number(double& out) {
    skip_ws();
    const usize start = p;
    if (p < s.size() && (s[p] == '-' || s[p] == '+')) ++p;
    while (p < s.size() && ((s[p] >= '0' && s[p] <= '9') || s[p] == '.' ||
                            s[p] == 'e' || s[p] == 'E' || s[p] == '-' ||
                            s[p] == '+')) {
      ++p;
    }
    if (p == start) return fail("expected number");
    const auto [end, ec] =
        std::from_chars(s.data() + start, s.data() + p, out);
    if (ec != std::errc() || end != s.data() + p) {
      p = start;
      return fail("malformed number");
    }
    return true;
  }

  // Parses any JSON value without capturing it.
  bool skip_value() {  // NOLINT(misc-no-recursion)
    const char c = peek();
    if (c == '"') {
      std::string ignored;
      return parse_string(ignored);
    }
    if (c == '{') return skip_container('{', '}');
    if (c == '[') return skip_container('[', ']');
    if (c == 't') return skip_literal("true");
    if (c == 'f') return skip_literal("false");
    if (c == 'n') return skip_literal("null");
    double ignored = 0;
    return parse_number(ignored);
  }

  bool skip_literal(std::string_view lit) {
    skip_ws();
    if (s.substr(p, lit.size()) != lit) return fail("bad literal");
    p += lit.size();
    return true;
  }

  bool skip_container(char open, char close) {  // NOLINT(misc-no-recursion)
    if (!expect(open)) return false;
    if (peek() == close) {
      ++p;
      return true;
    }
    while (true) {
      if (open == '{') {
        std::string key;
        if (!parse_string(key) || !expect(':')) return false;
      }
      if (!skip_value()) return false;
      const char c = peek();
      if (c == ',') {
        ++p;
        continue;
      }
      if (c == close) {
        ++p;
        return true;
      }
      return fail("expected ',' or container end");
    }
  }

  // Captures any scalar value as text: decoded string, raw number/literal
  // token. Containers are skipped and captured as "".
  bool capture_value(std::string& out, double& num, bool& is_num) {  // NOLINT(misc-no-recursion)
    is_num = false;
    const char c = peek();
    if (c == '"') return parse_string(out);
    if (c == '{' || c == '[') {
      out.clear();
      return skip_value();
    }
    if (c == 't' || c == 'f' || c == 'n') {
      const usize start = p;
      if (!skip_value()) return false;
      out.assign(s.substr(start, p - start));
      return true;
    }
    usize start = p;
    if (!parse_number(num)) return false;
    skip_ws_back(start);
    out.assign(s.substr(start, p - start));
    is_num = true;
    return true;
  }

  // capture_value grabbed [start, p) as the number token; trim any leading
  // whitespace skip_ws consumed before the digits.
  void skip_ws_back(usize& start) {
    while (start < p && (s[start] == ' ' || s[start] == '\t' ||
                         s[start] == '\n' || s[start] == '\r')) {
      ++start;
    }
  }

  bool parse_event_args(trace_event& ev) {
    if (!expect('{')) return false;
    if (peek() == '}') {
      ++p;
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key) || !expect(':')) return false;
      std::string text;
      double num = 0;
      bool is_num = false;
      if (!capture_value(text, num, is_num)) return false;
      if (key == "value" && is_num) {
        ev.counter_value = num;
        ev.has_value = true;
      }
      ev.args.emplace_back(std::move(key), std::move(text));
      const char c = peek();
      if (c == ',') {
        ++p;
        continue;
      }
      if (c == '}') {
        ++p;
        return true;
      }
      return fail("expected ',' or '}' in args");
    }
  }

  bool parse_event(trace_event& ev) {
    if (!expect('{')) return false;
    if (peek() == '}') {
      ++p;
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key) || !expect(':')) return false;
      if (key == "ph") {
        std::string ph;
        if (!parse_string(ph)) return false;
        ev.ph = ph.empty() ? '\0' : ph[0];
      } else if (key == "cat") {
        if (!parse_string(ev.cat)) return false;
      } else if (key == "name") {
        if (!parse_string(ev.name)) return false;
      } else if (key == "pid" || key == "tid") {
        double v = 0;
        if (!parse_number(v)) return false;
        (key == "pid" ? ev.pid : ev.tid) = static_cast<int>(v);
      } else if (key == "ts" || key == "dur") {
        if (!parse_number(key == "ts" ? ev.ts_us : ev.dur_us)) return false;
      } else if (key == "args") {
        if (peek() == '{') {
          if (!parse_event_args(ev)) return false;
        } else if (!skip_value()) {
          return false;
        }
      } else {
        if (!skip_value()) return false;
      }
      const char c = peek();
      if (c == ',') {
        ++p;
        continue;
      }
      if (c == '}') {
        ++p;
        return true;
      }
      return fail("expected ',' or '}' in event");
    }
  }

  bool parse_other_data(trace_parse_result& out) {
    if (!expect('{')) return false;
    if (peek() == '}') {
      ++p;
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key) || !expect(':')) return false;
      if (key == "dropped_events") {
        double v = 0;
        if (!parse_number(v)) return false;
        if (v > 0) out.dropped = static_cast<std::uint64_t>(v);
      } else {
        if (!skip_value()) return false;
      }
      const char c = peek();
      if (c == ',') {
        ++p;
        continue;
      }
      if (c == '}') {
        ++p;
        return true;
      }
      return fail("expected ',' or '}' in otherData");
    }
  }

  bool parse_events_array(trace_parse_result& out) {
    if (!expect('[')) return false;
    if (peek() == ']') {
      ++p;
      return true;
    }
    while (true) {
      trace_event ev;
      if (!parse_event(ev)) return false;
      out.events.push_back(std::move(ev));
      const char c = peek();
      if (c == ',') {
        ++p;
        continue;
      }
      if (c == ']') {
        ++p;
        return true;
      }
      return fail("expected ',' or ']' in traceEvents");
    }
  }

  bool parse_document(trace_parse_result& out) {
    // Both container shapes are valid trace-event JSON: a bare event
    // array, or the object form with "traceEvents".
    if (peek() == '[') return parse_events_array(out);
    if (!expect('{')) return false;
    if (peek() == '}') {
      ++p;
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key) || !expect(':')) return false;
      if (key == "traceEvents") {
        if (!parse_events_array(out)) return false;
      } else if (key == "otherData") {
        if (!parse_other_data(out)) return false;
      } else {
        if (!skip_value()) return false;
      }
      const char c = peek();
      if (c == ',') {
        ++p;
        continue;
      }
      if (c == '}') {
        ++p;
        return true;
      }
      return fail("expected ',' or '}' in document");
    }
  }
};

}  // namespace

trace_parse_result parse_trace(std::string_view text) {
  trace_parse_result out;
  parser ps{text, 0, {}};
  if (!ps.parse_document(out)) {
    out.error = "malformed trace: " + ps.error;
    out.events.clear();
    return out;
  }
  ps.skip_ws();
  if (ps.p != text.size()) {
    out.error = "malformed trace: trailing content at byte " +
                std::to_string(ps.p);
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
