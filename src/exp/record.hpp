// The flat JSON record layer: parse and re-render the one document shape
// every BENCH_*.json file and every amo_lab --out file uses — a JSON array
// of flat objects whose values are strings, numbers, booleans or null
// (exactly what exp::json_writer emits; see docs/json_schema.md).
//
// Each field carries its decoded value (for exp::report_diff's numeric
// comparisons) and its token, read through one accessor
// (append_token(view_of(f)), or token_of). A field parsed from JSON text
// keeps the raw source token verbatim. A field decoded from a typed .amoc
// column block, or built by the merge fold, records its encoding instead:
// its token is json_writer's spelling of its value, made only where text
// is written, so decoding formats nothing. Re-rendering tokens in
// json_writer's row format makes parse ∘ render the identity on
// writer-produced documents, which is what lets exp::merge_stream promise
// byte-identical output without ever reformatting a number.
//
// typed_value is the other side of the same schema: a value before it has
// a token. The report layer builds its output rows as typed values
// (exp::record_table); json_writer formats them into tokens and the
// column encoder writes them straight into column blocks.
//
// Lexing is util/json_scan's, shared with the trace reader: the string,
// \u-surrogate and number rules are one definition, and only the schema
// (a flat array of flat objects) and the "line N: why" error spelling
// live here.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json_scan.hpp"
#include "util/types.hpp"

namespace amo::exp {

/// How a value is spelled as a JSON token. A known encoding means the
/// token is exactly json_writer's: the decimal digits of a u64
/// (json_writer::num(std::uint64_t)), json_writer::num(double) for f64,
/// json_writer::str for str, true/false, null. `unknown` is a token read
/// from JSON text, which may be spelled any way the grammar allows.
enum class value_encoding : std::uint8_t { unknown, u64, f64, str, boolean, null };

/// One key/value field of a flat record.
struct record_field {
  using kind = json::kind;  ///< string, number, boolean, null

  std::string key;      ///< decoded key
  kind type = kind::null;
  /// Known when the token is json_writer's spelling of the value
  /// (decoded .amoc blocks, merge output); `unknown` for JSON text.
  value_encoding encoding = value_encoding::unknown;
  bool truth = false;   ///< boolean fields
  std::string text;     ///< decoded value (string fields)
  double number = 0.0;  ///< numeric value (number fields)
  /// The token as written in the source. Empty when `encoding` spells it
  /// from the value; a u64 of 2^53 or more keeps its digits, which the
  /// double cannot hold. Read it only through view_of / token_of.
  std::string raw;
};

/// One output value before it has a token: what the report layer's row
/// builders produce. `enc` is never unknown.
struct typed_value {
  value_encoding enc = value_encoding::null;
  bool truth = false;
  std::uint64_t u = 0;  ///< u64 values
  double f = 0.0;       ///< f64 values
  std::string text;     ///< str values, decoded

  static typed_value u64(std::uint64_t v) {
    return {value_encoding::u64, false, v, 0.0, {}};
  }
  static typed_value f64(double v) {
    return {value_encoding::f64, false, 0, v, {}};
  }
  static typed_value str(std::string v) {
    return {value_encoding::str, false, 0, 0.0, std::move(v)};
  }
  static typed_value boolean(bool v) {
    return {value_encoding::boolean, v, 0, 0.0, {}};
  }
  static typed_value null() { return {}; }
};

/// Typed output rows sharing one schema: keys[i] names rows[r][i].
struct record_table {
  std::vector<std::string> keys;
  std::vector<std::vector<typed_value>> rows;
};

/// A non-owning view of one value, the form json_writer and the column
/// encoder read: a record_field or a typed_value. `raw` is set only for a
/// token the encoding does not spell (JSON text, a u64 past 2^53). `u` is
/// the exact integer when enc is u64; `number` is the double every number
/// has.
struct value_view {
  value_encoding enc = value_encoding::unknown;
  json::kind type = json::kind::null;
  bool truth = false;
  std::uint64_t u = 0;
  double number = 0.0;
  std::string_view text;
  std::string_view raw;
};

[[nodiscard]] value_view view_of(const record_field& f);
[[nodiscard]] value_view view_of(const typed_value& v);

/// Row `row`, column `col` of rows sharing one schema: how the column
/// encoder and the aggregate fold (exp::fold_cell) read records, typed
/// rows and checked .amoc blocks alike. A column a row lacks reads as
/// value_view{} (a null without a token).
using cell_at = std::function<value_view(usize row, usize col)>;

/// Refills `f` as field `key` holding `v`, keeping its strings' capacity:
/// the value and its encoding, plus the token where the encoding does not
/// spell it (JSON text, a u64 of 2^53 or more).
void assign(record_field& f, std::string_view key, const value_view& v);

/// Appends v's JSON token to `out`: its raw token when it has one, else
/// json_writer's spelling of its typed value.
void append_token(std::string& out, const value_view& v);

/// f's JSON token, append_token(view_of(f)): how every reader that needs a
/// field's text (render, diff keys and deltas) gets it.
[[nodiscard]] std::string token_of(const record_field& f);

/// One flat object, fields in source order.
struct record {
  std::vector<record_field> fields;

  /// First field named `key`, or nullptr.
  [[nodiscard]] const record_field* find(std::string_view key) const;

  /// find(key), trying position `hint` first and leaving the found
  /// position in it: records of one schema cost one key compare per
  /// lookup instead of a linear scan.
  [[nodiscard]] const record_field* find(std::string_view key,
                                         usize& hint) const;
};

struct parse_result {
  std::vector<record> records;
  std::string error;  ///< empty on success, else "line N: why"

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses a whole document. Arbitrary JSON whitespace is accepted; nested
/// arrays/objects are rejected (the record schema is flat by contract).
parse_result parse_records(std::string_view doc);

/// Parses ONE value token (the exact value grammar parse_records accepts:
/// string, number, true/false/null) into `f`, which keeps the token as its
/// raw. The whole token must be consumed. This is how the columnar format
/// decodes verbatim-stored tokens with semantics identical to the document
/// parser's. False with `error` on a malformed or trailing-content token,
/// in which case `f` holds whatever was read before the failure.
bool parse_value_token(std::string_view token, record_field& f,
                       std::string& error);

/// Renders records exactly as json_writer would have ("[\n  {...},\n ...]\n"),
/// re-emitting each value's token (token_of).
std::string render_records(const std::vector<record>& records);

}  // namespace amo::exp
