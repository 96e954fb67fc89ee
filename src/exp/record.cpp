#include "exp/record.hpp"

#include <charconv>

#include "exp/report.hpp"
#include "util/parse.hpp"

namespace amo::exp {

namespace {

/// One flat-record value: any scalar, never a container.
bool read_value(json::scanner& sc, record_field& f) {
  const char c = sc.peek();
  if (c == '{' || c == '[') {
    return sc.fail("nested containers are not part of the flat record schema");
  }
  json::token t;
  if (!sc.scalar(t, f.text)) return false;
  f.type = t.type;
  f.raw.assign(t.raw);
  f.number = t.number;
  f.truth = t.truth;
  return true;
}

}  // namespace

const record_field* record::find(std::string_view key) const {
  for (const record_field& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

const record_field* record::find(std::string_view key, usize& hint) const {
  if (hint < fields.size() && fields[hint].key == key) return &fields[hint];
  const record_field* f = find(key);
  if (f != nullptr) hint = static_cast<usize>(f - fields.data());
  return f;
}

value_view view_of(const record_field& f) {
  value_view v{f.encoding, f.type, f.truth, 0, f.number, f.text, f.raw};
  if (f.encoding == value_encoding::u64) {
    // Exact through the double below 2^53; past it only the token is.
    if (f.number < 9007199254740992.0) {
      v.u = static_cast<std::uint64_t>(f.number);
    } else {
      std::from_chars(f.raw.data(), f.raw.data() + f.raw.size(), v.u);
    }
  }
  return v;
}

value_view view_of(const typed_value& t) {
  using E = value_encoding;
  using K = json::kind;
  value_view v{t.enc, K::null, t.truth, t.u, t.f, t.text, {}};
  switch (t.enc) {
    case E::u64:
      v.type = K::number;
      v.number = static_cast<double>(t.u);
      break;
    case E::f64: v.type = K::number; break;
    case E::str: v.type = K::string; break;
    case E::boolean: v.type = K::boolean; break;
    default: break;
  }
  return v;
}

void assign(record_field& f, std::string_view key, const value_view& v) {
  f.key.assign(key);
  f.type = v.type;
  f.encoding = v.enc;
  f.truth = v.truth;
  f.text.assign(v.text);
  f.number = v.number;
  f.raw.assign(v.raw);
  // Past 2^53 the double is not the value: keep its exact digits.
  if (v.enc == value_encoding::u64 && f.raw.empty() &&
      v.u >= std::uint64_t{1} << 53) {
    json_writer::append_num(f.raw, v.u);
  }
}

void append_token(std::string& out, const value_view& v) {
  using E = value_encoding;
  if (!v.raw.empty()) {
    out += v.raw;
    return;
  }
  switch (v.enc) {
    case E::u64: json_writer::append_num(out, v.u); break;
    case E::f64: json_writer::append_num(out, v.number); break;
    case E::str: json_writer::append_str(out, v.text); break;
    case E::boolean: out += v.truth ? "true" : "false"; break;
    default: out += "null"; break;
  }
}

std::string token_of(const record_field& f) {
  std::string out;
  append_token(out, view_of(f));
  return out;
}

bool parse_value_token(std::string_view token, record_field& f,
                       std::string& error) {
  json::scanner sc(token);
  if (!read_value(sc, f)) {
    error = line_error(sc.error_line(), sc.why());
    return false;
  }
  if (!sc.at_end()) {
    error = "trailing content after value token '" + std::string(token) + "'";
    return false;
  }
  return true;
}

parse_result parse_records(std::string_view doc) {
  parse_result out;
  json::scanner sc(doc);
  const bool parsed = sc.array("array", [&] {
    record& rec = out.records.emplace_back();
    return sc.object("object", [&](std::string& key) {
      record_field& f = rec.fields.emplace_back();
      f.key = std::move(key);
      return read_value(sc, f);
    });
  });
  if (parsed && !sc.at_end()) {
    sc.fail("trailing content after the record array");
  }
  if (sc.failed()) {
    out.error = line_error(sc.error_line(), sc.why());
    // A failure at EOF is the signature of a document cut short mid-token:
    // name the likely cause (a torn artifact from a non-atomic writer) so
    // merge/dispatch diagnostics point at the file, not the parser.
    if (sc.error_pos() == doc.size()) out.error += " (truncated document?)";
    out.records.clear();
  }
  return out;
}

std::string render_records(const std::vector<record>& records) {
  // Rebuilt through json_writer so the row format ("  {...}," etc.) has
  // exactly one definition; values pass through as their tokens.
  json_writer json;
  for (const record& rec : records) {
    std::vector<std::pair<std::string, std::string>> fields;
    fields.reserve(rec.fields.size());
    for (const record_field& f : rec.fields) {
      fields.emplace_back(f.key, token_of(f));
    }
    json.add(fields);
  }
  return json.dump();
}

}  // namespace amo::exp
