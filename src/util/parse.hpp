// Overflow-checked decimal parsing, line splitting and tokenization and the
// "line N:" error spelling, shared by the adversary-name parser
// (engine.cpp), the trace reader (sim/trace.cpp), the shard-reference
// parser (shard.cpp), the amo_lab option table (svc/cli.cpp) and the
// job/corpus/record line parsers — one definition of "what counts as a
// number (or a token, or a line) on a command line".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace amo {

/// Parses an entire non-negative decimal string. False — leaving `out`
/// untouched — when empty, containing any non-digit, or > 2^64 - 1.
[[nodiscard]] inline bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (~std::uint64_t{0} - digit) / 10) return false;  // overflow
    v = v * 10 + digit;
  }
  out = v;
  return true;
}

/// "line N: why" — the position spelling of every line-numbered parse
/// error (records, batch jobs, corpus files); amo_lab's exit-code mapping
/// keys on ": line ".
[[nodiscard]] inline std::string line_error(std::size_t line_no,
                                            std::string_view why) {
  return "line " + std::to_string(line_no) + ": " + std::string(why);
}

/// Invokes fn(line_no, line) for each '\n'-separated line of `text`, with
/// 1-based line numbers (the line-oriented grammars: batch jobs, corpus
/// files). A trailing '\r' stays on the line; for_each_token treats it as
/// whitespace. `fn` returns false to abort the scan; for_each_line returns
/// false iff it aborted.
template <class Fn>
inline bool for_each_line(std::string_view text, Fn&& fn) {
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    if (!fn(++line_no, text.substr(pos, nl - pos))) return false;
    pos = nl + 1;
  }
  return true;
}

/// Invokes fn(token) for each whitespace-separated token of `line` (the
/// line-oriented grammars: batch jobs, corpus files), stopping silently at
/// a token that starts with '#' (comment to end of line). `fn` returns
/// false to abort the scan; for_each_token returns false iff it aborted.
template <class Fn>
inline bool for_each_token(std::string_view line, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r')) {
      ++pos;
    }
    if (pos >= line.size()) break;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '\r') {
      ++end;
    }
    const std::string_view tok = line.substr(pos, end - pos);
    pos = end;
    if (tok.front() == '#') break;
    if (!fn(tok)) return false;
  }
  return true;
}

}  // namespace amo
