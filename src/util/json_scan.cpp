#include "util/json_scan.hpp"

#include <locale.h>
#include <stdlib.h>

#include <algorithm>
#include <charconv>

namespace amo::json {

namespace {

void append_utf8(std::string& out, unsigned code) {
  static constexpr unsigned char lead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out += static_cast<char>(lead[tail] | (code >> (6 * tail)));
  for (int i = tail - 1; i >= 0; --i) {
    out += static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F));
  }
}

bool numeric(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

}  // namespace

bool scanner::fail(std::string_view why) {
  if (why_.empty()) {
    why_.assign(why);
    error_pos_ = pos_;
  }
  return false;
}

usize scanner::error_line() const {
  const usize end = std::min(error_pos_, doc_.size());
  return 1 + static_cast<usize>(
                 std::count(doc_.begin(), doc_.begin() + end, '\n'));
}

bool scanner::next(std::string_view what, char close) {
  skip_ws();
  if (eof()) return fail("unterminated " + std::string(what));
  const char c = doc_[pos_];
  if (c == ',' || c == close) {
    ++pos_;
    return c == ',';
  }
  return fail(std::string("expected ',' or '") + close + "' in " +
              std::string(what));
}

bool scanner::hex4(unsigned& code) {
  if (doc_.size() - pos_ < 4) {
    pos_ = doc_.size();
    return fail("truncated \\u escape");
  }
  const char* first = doc_.data() + pos_;
  const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
  pos_ += 4;
  return (ec == std::errc{} && end == first + 4) || fail("bad \\u escape");
}

bool scanner::string(std::string& out, std::string_view* raw) {
  if (!expect('"')) return false;
  const usize start = pos_ - 1;
  // Copy the escape-free prefix (usually the whole string) in one go.
  usize end = pos_;
  while (end < doc_.size() && doc_[end] != '"' && doc_[end] != '\\') ++end;
  out.assign(doc_.data() + pos_, end - pos_);
  pos_ = end;
  while (true) {
    if (eof()) return fail("unterminated string");
    const char c = doc_[pos_++];
    if (c == '"') break;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (eof()) return fail("unterminated escape");
    switch (doc_[pos_++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': {
        unsigned code = 0;
        if (!hex4(code)) return false;
        if (code >= 0xD800 && code <= 0xDBFF) {
          // A non-BMP codepoint split across two escapes decodes to one
          // 4-byte UTF-8 sequence, not CESU-8: the same label written
          // escaped or raw must compare equal in diff/merge identity keys.
          if (doc_.substr(pos_, 2) != "\\u") {
            return fail("unpaired high surrogate in \\u escape");
          }
          pos_ += 2;
          unsigned low = 0;
          if (!hex4(low)) return false;
          if (low < 0xDC00 || low > 0xDFFF) {
            return fail("bad low surrogate in \\u escape");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          return fail("unpaired low surrogate in \\u escape");
        }
        append_utf8(out, code);
        break;
      }
      default: return fail("unknown escape");
    }
  }
  if (raw != nullptr) *raw = doc_.substr(start, pos_ - start);
  return true;
}

bool scanner::number(double& out, std::string_view* raw) {
  skip_ws();
  const usize start = pos_;
  while (!eof() && numeric(doc_[pos_])) ++pos_;
  if (pos_ == start) return fail("expected a number");
  const std::string_view tok = doc_.substr(start, pos_ - start);
  if (raw != nullptr) *raw = tok;
  // from_chars is locale-independent and round-trip-exact against
  // json_writer::num; it rejects the leading '+' strtod tolerated, which
  // foreign documents ("+1e3") may carry, so skip it.
  const char* first = tok.data();
  const char* last = first + tok.size();
  if (*first == '+') ++first;
  const auto [end, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range && end == last) {
    // Well-formed but beyond double (1e999, 1e-999): clamp to ±inf / ±0 as
    // strtod does. from_chars leaves `out` unmodified here, so take the
    // direction from strtod pinned to the "C" locale (a comma-decimal
    // LC_NUMERIC must not re-read the '.'), on a NUL-terminated copy. If
    // newlocale ever failed (ENOMEM), fall back to the ambient strtod
    // rather than hand strtod_l a null locale_t.
    static const locale_t c_locale = ::newlocale(LC_ALL_MASK, "C", nullptr);
    const std::string copy(first, last);
    out = c_locale != static_cast<locale_t>(nullptr)
              ? ::strtod_l(copy.c_str(), nullptr, c_locale)
              : ::strtod(copy.c_str(), nullptr);
  } else if (ec != std::errc{} || end != last) {
    return fail("malformed number '" + std::string(tok) + "'");
  }
  return true;
}

bool scanner::scalar(token& t, std::string& text) {
  const char c = peek();
  if (c == '"') {
    t.type = kind::string;
    return string(text, &t.raw);
  }
  text.clear();
  if (c == 't' || c == 'f' || c == 'n') {
    for (const std::string_view w : {"true", "false", "null"}) {
      if (doc_.substr(pos_, w.size()) == w) {
        t.raw = doc_.substr(pos_, w.size());
        pos_ += w.size();
        t.type = c == 'n' ? kind::null : kind::boolean;
        t.truth = c == 't';
        return true;
      }
    }
    return fail("bad literal");
  }
  if (!numeric(c)) return fail("expected a value");
  t.type = kind::number;
  return number(t.number, &t.raw);
}

bool scanner::skip_value() {
  std::string closers;  // pending container ends, innermost last
  std::string scratch;
  token ignored;
  // One member per pass: its key inside an object, then either a container
  // opening or a scalar that may complete any number of containers.
  while (true) {
    if (!closers.empty() && closers.back() == '}' &&
        !(string(scratch) && expect(':'))) {
      return false;
    }
    const char c = peek();
    if (c == '{' || c == '[') {
      ++pos_;
      closers += c == '{' ? '}' : ']';
      if (!consume(closers.back())) continue;  // a first member follows
      closers.pop_back();
    } else if (!scalar(ignored, scratch)) {
      return false;
    }
    while (!closers.empty() && !next("container", closers.back())) {
      if (failed()) return false;
      closers.pop_back();
    }
    if (closers.empty()) return true;
  }
}

}  // namespace amo::json
