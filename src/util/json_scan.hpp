// The one JSON lexer. The flat record reader (exp/record) and the
// trace-event reader (obs/trace_read) are thin schemas over this scanner,
// so both accept exactly the same strings and numbers:
//
//   - strings: the JSON escapes, with \u surrogate pairs decoded to one
//     4-byte UTF-8 sequence; a lone or mismatched surrogate is an error;
//   - numbers: the maximal [-+0-9.eE] run, validated by from_chars (locale-
//     independent). A leading '+' is tolerated; a well-formed number whose
//     magnitude overflows double clamps to ±inf / ±0 like strtod;
//   - the literals true, false and null.
//
// Every scalar keeps its raw token (a view into the document) beside the
// decoded value, which is what lets records re-render byte-exactly.
//
// The cursor is a byte offset only. The first failure is kept with its
// offset; callers spell it as a byte position or, via error_line(), as a
// line number worked out from the offset. skip_value() walks containers
// with an explicit stack, so no nesting depth can overflow the call stack.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace amo::json {

enum class kind : std::uint8_t { string, number, boolean, null };

/// One scalar value token.
struct token {
  kind type = kind::null;
  std::string_view raw;  ///< the token exactly as written (quotes included)
  double number = 0.0;   ///< number tokens
  bool truth = false;    ///< boolean tokens
};

class scanner {
 public:
  explicit scanner(std::string_view doc) : doc_(doc) {}

  /// Skips whitespace, then returns the next byte without consuming it
  /// ('\0' at EOF).
  [[nodiscard]] char peek() {
    skip_ws();
    return eof() ? '\0' : doc_[pos_];
  }
  /// Skips whitespace; true iff nothing follows.
  [[nodiscard]] bool at_end() {
    skip_ws();
    return eof();
  }

  /// Records the first failure at the cursor; always returns false.
  bool fail(std::string_view why);
  [[nodiscard]] bool failed() const { return !why_.empty(); }
  [[nodiscard]] const std::string& why() const { return why_; }
  [[nodiscard]] usize error_pos() const { return error_pos_; }
  /// 1-based line of error_pos().
  [[nodiscard]] usize error_line() const;

  /// A string value: decoded bytes into `out` (copied once when the token
  /// has no escapes).
  bool string(std::string& out, std::string_view* raw = nullptr);
  /// A number token into `out`.
  bool number(double& out, std::string_view* raw = nullptr);
  /// One scalar: string, number, true, false or null. `text` receives a
  /// string's decoded bytes and is cleared for every other kind.
  bool scalar(token& t, std::string& text);
  /// Any value, containers included, without capturing it.
  bool skip_value();

  /// '{' (key ':' member(key) (',' ...)*)? '}' — member(key) reads the
  /// value and may move the key out. `what` names the object in errors
  /// ("unterminated <what>", "expected ',' or '}' in <what>").
  template <class Fn>
  bool object(std::string_view what, Fn&& member) {
    if (!expect('{')) return false;
    if (consume('}')) return true;
    std::string key;
    do {
      if (!string(key) || !expect(':') || !member(key)) return false;
    } while (next(what, '}'));
    return !failed();
  }

  /// '[' (element() (',' ...)*)? ']', with errors as for object().
  template <class Fn>
  bool array(std::string_view what, Fn&& element) {
    if (!expect('[')) return false;
    if (consume(']')) return true;
    do {
      if (!element()) return false;
    } while (next(what, ']'));
    return !failed();
  }

 private:
  /// Skips whitespace, then consumes `c` if it comes next.
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  /// As consume(), but a missing `c` fails with "expected 'c'".
  bool expect(char c) {
    return consume(c) || fail(std::string("expected '") + c + "'");
  }
  [[nodiscard]] bool eof() const { return pos_ >= doc_.size(); }
  void skip_ws() {
    while (pos_ < doc_.size() && (doc_[pos_] == ' ' || doc_[pos_] == '\n' ||
                                  doc_[pos_] == '\r' || doc_[pos_] == '\t')) {
      ++pos_;
    }
  }
  /// After a member: true on ',' (another follows), false on `close`
  /// (consumed) or on failure.
  bool next(std::string_view what, char close);
  bool hex4(unsigned& code);

  std::string_view doc_;
  usize pos_ = 0;
  std::string why_;
  usize error_pos_ = 0;
};

}  // namespace amo::json
