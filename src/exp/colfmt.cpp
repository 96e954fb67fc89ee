#include "exp/colfmt.hpp"

#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <functional>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "exp/report.hpp"
#include "obs/telemetry.hpp"
#include "util/fileio.hpp"
#include "util/fnv.hpp"

namespace amo::exp {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'O', 'C'};
constexpr char kChunkMagic[4] = {'C', 'H', 'N', 'K'};
constexpr char kEndMarker[8] = {'A', 'M', 'O', 'C', 'E', 'N', 'D', '\n'};
constexpr usize kHeaderFixed = 60;  ///< magic..column_count, before the table
constexpr usize kChunkFixed = 20;   ///< magic, length, cell, row_count
/// "no cell field" sentinel for a chunk's cell number.
constexpr std::uint64_t kNoCell = ~std::uint64_t{0};

/// Column-block encoding tags (docs/record_format.md).
enum : std::uint8_t {
  kTagU64 = 0,   ///< raw == std::to_string(u64 value)
  kTagF64 = 1,   ///< raw == json_writer::num(double value)
  kTagStr = 2,   ///< raw == json_writer::str(decoded text)
  kTagBool = 3,  ///< raw == "true" / "false"
  kTagNull = 4,  ///< raw == "null"
  kTagVerbatim = 5,  ///< anything else: the raw token, stored byte-exact
};

// --- little-endian primitives --------------------------------------------

/// Appends the low `n` bytes of v, least significant first.
void put_le(std::string& out, std::uint64_t v, usize n) {
  char b[8];
  for (usize i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(b, n);
}

void put_u16(std::string& out, std::uint16_t v) { put_le(out, v, 2); }
void put_u32(std::string& out, std::uint32_t v) { put_le(out, v, 4); }
void put_u64(std::string& out, std::uint64_t v) { put_le(out, v, 8); }

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void patch_u64(std::string& bytes, usize at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes[at + static_cast<usize>(i)] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// Reads the little-endian unsigned integer at `p`: one load on a
/// little-endian host.
template <class T>
T get_le(const char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (usize i = sizeof v; i-- > 0;) {
      v = static_cast<T>((v << 8) | static_cast<unsigned char>(p[i]));
    }
  }
  return v;
}

std::uint16_t get_u16(const char* p) { return get_le<std::uint16_t>(p); }
std::uint32_t get_u32(const char* p) { return get_le<std::uint32_t>(p); }
std::uint64_t get_u64(const char* p) { return get_le<std::uint64_t>(p); }

double get_f64(const char* p) { return std::bit_cast<double>(get_u64(p)); }

/// Bounds-checked reader over a byte slice; `base` is the slice's offset
/// in the file, so every failure names an absolute position. A read past
/// the end is flagged as likely truncation — the signature of a partial
/// copy or a torn non-atomic writer.
struct cursor {
  std::string_view bytes;
  usize pos = 0;
  std::uint64_t base = 0;
  std::string error;

  [[nodiscard]] bool failed() const { return !error.empty(); }
  [[nodiscard]] std::uint64_t offset() const { return base + pos; }

  void fail(const std::string& why) {
    if (error.empty()) {
      error = "offset " + std::to_string(offset()) + ": " + why;
    }
  }

  [[nodiscard]] bool need(usize n, const char* what) {
    if (bytes.size() - pos >= n) return true;
    fail(std::string("file ends inside ") + what + " (need " +
         std::to_string(n) + " bytes, " + std::to_string(bytes.size() - pos) +
         " left) (truncated .amoc file?)");
    return false;
  }

  [[nodiscard]] const char* take(usize n) {
    const char* p = bytes.data() + pos;
    pos += n;
    return p;
  }

  void skip(usize n) { pos += n; }
};

// --- value access ---------------------------------------------------------

/// The first column named `key`, or columns.size() (record::find's rule).
usize column_of(const std::vector<std::string>& columns, const char* key) {
  usize c = 0;
  while (c < columns.size() && columns[c] != key) ++c;
  return c;
}

// --- schema metadata ------------------------------------------------------

/// Reads a non-negative integral number field a u64 holds.
bool meta_index(const value_view& v, std::uint64_t& out) {
  if (v.type != json::kind::number) return false;
  if (!(v.number >= 0 && v.number < 0x1p64) ||
      v.number != std::floor(v.number)) {
    return false;
  }
  out = static_cast<std::uint64_t>(v.number);
  return true;
}

/// The grid fingerprint as the records spell it: 16 lowercase hex digits.
std::uint64_t meta_grid(const value_view& v) {
  if (v.type != json::kind::string || v.text.size() != 16) return 0;
  std::uint64_t out = 0;
  const auto [end, ec] =
      std::from_chars(v.text.data(), v.text.data() + 16, out, 16);
  if (ec != std::errc{} || end != v.text.data() + 16) return 0;
  return out;
}

/// Fills the header's record-derived fields from row 0.
void header_meta_from(const std::vector<std::string>& columns,
                      const cell_at& at, colfmt_header& h) {
  const auto field = [&](const char* key, value_view& v) {
    const usize c = column_of(columns, key);
    if (c == columns.size()) return false;
    v = at(0, c);
    return true;
  };
  value_view v;
  if (field("grid", v)) h.grid_fp = meta_grid(v);
  if (field("cells_total", v)) meta_index(v, h.cells_total);
  if (field("units_total", v)) meta_index(v, h.units_total);
  if (field("replicas", v)) meta_index(v, h.replicas);
}

/// Serializes the header image with the given counts; the checksum is the
/// final u64, over every preceding byte.
std::string build_header_bytes(const colfmt_header& h) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u16(out, colfmt_version);
  put_u16(out, 0);  // flags: must be zero in v1
  put_u64(out, h.grid_fp);
  put_u64(out, h.cells_total);
  put_u64(out, h.units_total);
  put_u64(out, h.replicas);
  put_u64(out, h.record_count);
  put_u64(out, h.chunk_count);
  put_u32(out, static_cast<std::uint32_t>(h.columns.size()));
  for (const std::string& key : h.columns) {
    put_u16(out, static_cast<std::uint16_t>(key.size()));
    out += key;
  }
  put_u64(out, fnv1a64(out));
  return out;
}

bool schema_matches(const record& rec, const std::vector<std::string>& columns,
                    usize rec_no, std::string& error) {
  if (rec.fields.size() != columns.size()) {
    error = "record " + std::to_string(rec_no) + " has " +
            std::to_string(rec.fields.size()) + " fields where the file schema has " +
            std::to_string(columns.size()) +
            " (colfmt requires one uniform record schema per file)";
    return false;
  }
  for (usize i = 0; i < columns.size(); ++i) {
    if (rec.fields[i].key != columns[i]) {
      error = "record " + std::to_string(rec_no) + " field " +
              std::to_string(i) + " is '" + rec.fields[i].key +
              "' where the file schema has '" + columns[i] +
              "' (colfmt requires one uniform record schema per file)";
      return false;
    }
  }
  return true;
}

// --- block classification -------------------------------------------------
//
// A tag admits a value when decoding that tag reproduces the value's token
// byte-exactly. For a value of known encoding the token is json_writer's,
// so the answer follows from the value; only a number that changes
// spelling between the two numeric tags (an integral double, a u64 a
// double cannot hold) is formatted, into a stack buffer. A token of
// unknown encoding (JSON text) is checked by re-formatting its value.

std::string_view f64_token(double v, char (&buf)[32]) {
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, ec == std::errc{} ? static_cast<usize>(end - buf) : 0};
}

/// True when `tok` is the decimal spelling of a u64 (no sign, no leading
/// zero), which goes to `out`.
bool canonical_u64(std::string_view tok, std::uint64_t& out) {
  const char* last = tok.data() + tok.size();
  const auto [end, ec] = std::from_chars(tok.data(), last, out);
  if (ec != std::errc{} || end != last) return false;
  char buf[24];
  const char* e = std::to_chars(buf, buf + sizeof buf, out).ptr;
  return tok == std::string_view(buf, static_cast<usize>(e - buf));
}

/// True when v's token is a u64's decimal digits (the U64 tag's promise);
/// `out` is that u64.
bool u64_token(const value_view& v, std::uint64_t& out) {
  using E = value_encoding;
  switch (v.enc) {
    case E::u64: out = v.u; return true;
    case E::f64: {
      // Only a non-negative integral double can print as digits.
      if (!(v.number >= 0) || v.number != std::floor(v.number)) return false;
      char buf[32];
      return canonical_u64(f64_token(v.number, buf), out);
    }
    case E::unknown:
      return v.type == json::kind::number && canonical_u64(v.raw, out);
    default: return false;
  }
}

/// True when v's token is json_writer::num(v.number) (the F64 tag's).
bool f64_token_matches(const value_view& v) {
  using E = value_encoding;
  char buf[32];
  switch (v.enc) {
    case E::f64: return true;
    case E::u64: {
      char digits[24];
      const char* end = std::to_chars(digits, digits + sizeof digits, v.u).ptr;
      return f64_token(v.number, buf) ==
             std::string_view(digits, static_cast<usize>(end - digits));
    }
    case E::unknown:
      return v.type == json::kind::number && f64_token(v.number, buf) == v.raw;
    default: return false;
  }
}

/// True when decoding tag `t` provably reproduces this value byte-exactly.
bool admits(const value_view& v, std::uint8_t t) {
  using E = value_encoding;
  using K = json::kind;
  const bool token = v.enc == E::unknown;
  switch (t) {
    case kTagU64: {
      std::uint64_t ignored = 0;
      return u64_token(v, ignored);
    }
    case kTagF64: return f64_token_matches(v);
    case kTagStr: {
      if (!token) return v.enc == E::str;
      if (v.type != K::string) return false;
      std::string quoted;
      json_writer::append_str(quoted, v.text);
      return quoted == v.raw;
    }
    case kTagBool:
      return token ? v.type == K::boolean &&
                         v.raw == (v.truth ? "true" : "false")
                   : v.enc == E::boolean;
    case kTagNull:
      return token ? v.type == K::null && v.raw == "null" : v.enc == E::null;
    default: return true;  // verbatim admits everything parseable
  }
}

std::uint8_t classify_column(const std::vector<value_view>& col) {
  static constexpr std::uint8_t order[] = {kTagBool, kTagNull, kTagU64,
                                           kTagF64, kTagStr};
  for (const std::uint8_t t : order) {
    bool all = true;
    for (const value_view& v : col) {
      if (!admits(v, t)) {
        all = false;
        break;
      }
    }
    if (all) return t;
  }
  return kTagVerbatim;
}

// --- chunk encode ---------------------------------------------------------

/// Appends one chunk (magic..checksum) for rows [first, last) that
/// already passed the schema check to `out`; `seen` records precede
/// them in the file. False when a verbatim token would not re-parse or a
/// typed double is not finite.
bool encode_chunk_bytes(usize first, usize last,
                        const std::vector<std::string>& columns,
                        const cell_at& at, std::uint64_t cell,
                        std::uint64_t seen, std::string& out,
                        std::string& error) {
  const usize base = out.size();
  out.append(kChunkMagic, sizeof kChunkMagic);
  put_u32(out, 0);  // chunk_bytes, patched below
  put_u64(out, cell);
  put_u32(out, static_cast<std::uint32_t>(last - first));

  std::vector<value_view> col(last - first);
  for (usize c = 0; c < columns.size(); ++c) {
    for (usize r = first; r < last; ++r) {
      value_view& v = col[r - first];
      v = at(r, c);
      // A typed double has no token yet, and JSON has none for these.
      if (v.enc == value_encoding::f64 && v.raw.empty() &&
          !std::isfinite(v.number)) {
        error = "record " + std::to_string(seen + r) + " field '" + columns[c] +
                "' holds " + json_writer::num(v.number) +
                ", which no JSON number spells";
        return false;
      }
    }
    const std::uint8_t tag = classify_column(col);
    out.push_back(static_cast<char>(tag));
    switch (tag) {
      case kTagU64: {
        std::uint64_t lo = ~std::uint64_t{0};
        std::uint64_t hi = 0;
        const usize at_min = out.size();
        out.resize(out.size() + 16);  // min/max, patched below
        for (const value_view& v : col) {
          std::uint64_t u = 0;
          u64_token(v, u);
          if (u < lo) lo = u;
          if (u > hi) hi = u;
          put_u64(out, u);
        }
        if (col.empty()) lo = 0;
        patch_u64(out, at_min, lo);
        patch_u64(out, at_min + 8, hi);
        break;
      }
      case kTagF64: {
        double lo = 0.0;
        double hi = 0.0;
        const usize at_min = out.size();
        out.resize(out.size() + 16);
        for (usize i = 0; i < col.size(); ++i) {
          const double v = col[i].number;
          if (i == 0 || v < lo) lo = v;
          if (i == 0 || v > hi) hi = v;
          put_f64(out, v);
        }
        patch_u64(out, at_min, std::bit_cast<std::uint64_t>(lo));
        patch_u64(out, at_min + 8, std::bit_cast<std::uint64_t>(hi));
        break;
      }
      case kTagStr:
        for (const value_view& v : col) {
          put_u32(out, static_cast<std::uint32_t>(v.text.size()));
          out += v.text;
        }
        break;
      case kTagBool:
        for (usize i = 0; i < col.size(); i += 8) {
          unsigned byte = 0;
          for (usize b = 0; b < 8 && i + b < col.size(); ++b) {
            if (col[i + b].truth) byte |= 1u << b;
          }
          out.push_back(static_cast<char>(byte));
        }
        break;
      case kTagNull: break;
      default: {  // verbatim: a token read from JSON text must re-parse
        std::string token;
        for (const value_view& v : col) {
          token.clear();
          append_token(token, v);
          if (v.enc == value_encoding::unknown) {
            record_field check;
            std::string perr;
            if (!parse_value_token(token, check, perr)) {
              error = "field '" + columns[c] + "' holds token '" + token +
                      "' that no encoding can round-trip: " + perr;
              return false;
            }
          }
          put_u32(out, static_cast<std::uint32_t>(token.size()));
          out += token;
        }
        break;
      }
    }
  }

  out.resize(out.size() + 8);  // checksum slot
  const std::uint32_t total = static_cast<std::uint32_t>(out.size() - base);
  for (usize i = 0; i < 4; ++i) {
    out[base + 4 + i] = static_cast<char>((total >> (8 * i)) & 0xFF);
  }
  patch_u64(out, out.size() - 8,
            fnv1a64(std::string_view(out.data() + base, total - 8)));
  return true;
}

// --- chunk decode ---------------------------------------------------------

/// Post-decode consistency: the header's record-derived fields must match
/// what the first record says (`first`, row 0; all zero when the file
/// holds none and `first` is empty).
bool check_header_meta(const colfmt_header& h, const cell_at& first,
                       std::string& error) {
  colfmt_header from_records;
  if (first) header_meta_from(h.columns, first, from_records);
  if (h.grid_fp != from_records.grid_fp ||
      h.cells_total != from_records.cells_total ||
      h.units_total != from_records.units_total ||
      h.replicas != from_records.replicas) {
    error = "header grid/cells_total/units_total/replicas disagree with the "
            "decoded records (inconsistent .amoc file)";
    return false;
  }
  return true;
}

}  // namespace

bool is_colfmt(std::string_view bytes) {
  return bytes.size() >= sizeof kMagic &&
         std::memcmp(bytes.data(), kMagic, sizeof kMagic) == 0;
}

record_format format_for_path(std::string_view path) {
  return path.size() >= 5 && path.substr(path.size() - 5) == ".amoc"
             ? record_format::colfmt
             : record_format::json;
}

bool colfmt_encode(const std::vector<record>& records, std::string& out,
                   std::string& error) {
  std::vector<std::string> columns;
  if (!records.empty()) {
    columns.reserve(records[0].fields.size());
    for (const record_field& f : records[0].fields) columns.push_back(f.key);
  }
  for (usize i = 0; i < records.size(); ++i) {
    if (!schema_matches(records[i], columns, i, error)) return false;
  }
  colfmt_encoder enc(out, records.size());
  if (!enc.add(
          records.size(), columns,
          [&](usize r, usize c) { return view_of(records[r].fields[c]); },
          error)) {
    return false;
  }
  enc.finish();
  return true;
}

colfmt_encoder::colfmt_encoder(std::string& out, usize rows_hint)
    : out_(out), rows_hint_(rows_hint) {
  out_.clear();
}

bool colfmt_encoder::add(usize count, const std::vector<std::string>& columns,
                         const cell_at& at, std::string& error) {
  if (count == 0) return true;
  if (header_.record_count == 0) {
    header_.columns = columns;
    header_meta_from(columns, at, header_);
    out_ = build_header_bytes(header_);
  }
  const usize cell_col = column_of(columns, "cell");
  const auto cell_of = [&](usize r, std::uint64_t& cell) {
    return cell_col < columns.size() && meta_index(at(r, cell_col), cell);
  };
  for (usize first = 0, last = 0; first < count; first = last) {
    std::uint64_t cell = kNoCell;
    last = first + 1;
    if (cell_of(first, cell)) {
      std::uint64_t next = 0;
      while (last < count && cell_of(last, next) && next == cell) ++last;
    }
    const usize before = out_.size();
    if (!encode_chunk_bytes(first, last, columns, at, cell,
                            header_.record_count, out_, error)) {
      out_.clear();
      return false;
    }
    if (header_.chunk_count++ == 0 && rows_hint_ > last) {
      // Size the buffer once from the first chunk's bytes per row, so a
      // large file is not copied and re-faulted through every doubling.
      out_.reserve(out_.size() +
                   (out_.size() - before) * (rows_hint_ - last) / last * 9 / 8 +
                   sizeof kEndMarker);
    }
    header_.record_count += last - first;
  }
  return true;
}

bool colfmt_encoder::add(const record_table& group, std::string& error) {
  for (usize r = 0; r < group.rows.size(); ++r) {
    if (group.rows[r].size() != group.keys.size()) {
      error = "record " + std::to_string(header_.record_count + r) + " has " +
              std::to_string(group.rows[r].size()) +
              " fields where the file schema has " +
              std::to_string(group.keys.size()) +
              " (colfmt requires one uniform record schema per file)";
      return false;
    }
  }
  return add(
      group.rows.size(), group.keys,
      [&](usize r, usize c) { return view_of(group.rows[r][c]); }, error);
}

void colfmt_encoder::finish() {
  // The header was written with the first rows; only its counts change.
  const std::string head = build_header_bytes(header_);
  out_.replace(0, out_.empty() ? 0 : head.size(), head);
  out_.append(kEndMarker, sizeof kEndMarker);
}

parse_result colfmt_decode(std::string_view bytes) {
  parse_result out;
  colfmt_reader reader;
  if (!reader.open(open_memory(bytes), {}, false, out.error)) return out;
  std::vector<record> chunk;
  for (bool end = false;;) {
    if (!reader.next_chunk(chunk, end, out.error)) {
      out.records.clear();
      return out;
    }
    if (end) return out;
    out.records.insert(out.records.end(), std::make_move_iterator(chunk.begin()),
                       std::make_move_iterator(chunk.end()));
  }
}

parse_result load_records_file(const char* path) {
  parse_result out;
  std::string content;
  if (!read_file(path, content, out.error)) return out;
  out = is_colfmt(content) ? colfmt_decode(content) : parse_records(content);
  if (!out.ok()) out.error = std::string(path) + ": " + out.error;
  return out;
}

bool render_records_as(const std::vector<record>& records,
                       record_format format, std::string& out,
                       std::string& error) {
  if (format == record_format::json) {
    out = render_records(records);
    return true;
  }
  return colfmt_encode(records, out, error);
}

bool write_records_file_as(const char* path,
                           const std::vector<record>& records,
                           record_format format, std::string& error) {
  std::string content;
  if (!render_records_as(records, format, content, error)) return false;
  return write_file_atomic(path, content, error);
}

// --- block index ----------------------------------------------------------

value_view colfmt_blocks::value(const char* bytes, const chunk& c, usize row,
                                usize col) const {
  using K = json::kind;
  using E = value_encoding;
  const block& b = blocks_[c.first + col];
  const char* p = bytes + b.at;
  value_view v;
  switch (b.tag) {
    case kTagU64:
      v.enc = E::u64;
      v.type = K::number;
      v.u = get_u64(p + 8 * row);
      v.number = static_cast<double>(v.u);  // correctly rounded, as parsing
      break;
    case kTagF64:
      v.enc = E::f64;
      v.type = K::number;
      v.number = get_f64(p + 8 * row);
      break;
    case kTagStr:
      if (b.width != kVaries) {
        p += row * (4 + usize{b.width});
      } else {
        for (usize r = 0; r < row; ++r) p += 4 + get_u32(p);
      }
      v.enc = E::str;
      v.type = K::string;
      v.text = std::string_view(p + 4, get_u32(p));
      break;
    case kTagBool:
      v.enc = E::boolean;
      v.type = K::boolean;
      v.truth = (static_cast<unsigned char>(p[row / 8]) >> (row % 8)) & 1;
      break;
    case kTagNull:
      v.enc = E::null;
      v.type = K::null;
      break;
    default: return view_of(verbatim_[b.at + row]);
  }
  return v;
}

value_view colfmt_blocks::at(std::string_view image, usize chunk, usize row,
                             usize col) const {
  const struct chunk& c = chunks_[chunk];
  return value(image.data() + c.offset, c, row, col);
}

void colfmt_blocks::decode(std::string_view image,
                           std::vector<record>& out) const {
  const chunk& c = chunks_.front();
  const char* bytes = image.data() + c.offset;
  out.resize(c.rows);
  for (record& rec : out) rec.fields.resize(columns_.size());
  for (usize col = 0; col < columns_.size(); ++col) {
    const block& b = blocks_[c.first + col];
    // A string block of varying widths is walked once, row after row.
    const char* p = b.tag == kTagStr && b.width == kVaries ? bytes + b.at
                                                           : nullptr;
    for (usize row = 0; row < c.rows; ++row) {
      value_view v;
      if (p != nullptr) {
        v.enc = value_encoding::str;
        v.type = json::kind::string;
        v.text = std::string_view(p + 4, get_u32(p));
        p += 4 + v.text.size();
      } else {
        v = value(bytes, c, row, col);
      }
      assign(out[row].fields[col], columns_[col], v);
    }
  }
}

// --- streaming reader -----------------------------------------------------

colfmt_reader::~colfmt_reader() {
  if (file_ != nullptr) std::fclose(file_);
}

namespace {

bool fail(std::string why, std::string& error) {
  error = std::move(why);
  return false;
}

}  // namespace

bool colfmt_reader::decode_chunk(std::string_view chunk, std::uint64_t base,
                                 const std::vector<std::string>& columns,
                                 colfmt_blocks& index, std::string& error) {
  cursor cur{chunk, kChunkFixed, base, {}};
  const std::uint32_t rows = get_u32(chunk.data() + 16);
  const usize first = index.blocks_.size();

  for (usize c = 0; c < columns.size() && !cur.failed(); ++c) {
    if (!cur.need(1, "a column block tag")) break;
    const std::uint8_t tag = static_cast<std::uint8_t>(*cur.take(1));
    colfmt_blocks::block blk{static_cast<std::uint32_t>(cur.pos), tag};
    switch (tag) {
      case kTagU64:
      case kTagF64: {
        if (!cur.need(16 + usize{rows} * 8, tag == kTagU64
                                                 ? "a u64 column block"
                                                 : "an f64 column block")) {
          break;
        }
        cur.skip(16);  // min/max: advisory statistics, not re-validated
        blk.at = static_cast<std::uint32_t>(cur.pos);
        cur.skip(usize{rows} * 8);
        break;
      }
      case kTagStr:
      case kTagVerbatim: {
        if (tag == kTagVerbatim) {
          blk.at = static_cast<std::uint32_t>(index.verbatim_.size());
        }
        for (usize r = 0; r < rows && !cur.failed(); ++r) {
          if (!cur.need(4, "a string length")) break;
          const std::uint32_t len = get_u32(cur.take(4));
          if (!cur.need(len, "string bytes")) break;
          const std::string_view s(cur.take(len), len);
          if (r == 0 && len < colfmt_blocks::kVaries) {
            blk.width = static_cast<std::uint16_t>(len);
          } else if (len != blk.width) {
            blk.width = colfmt_blocks::kVaries;
          }
          if (tag == kTagStr) continue;
          std::string perr;
          if (!parse_value_token(s, index.verbatim_.emplace_back(), perr)) {
            cur.fail("verbatim token in column '" + columns[c] +
                     "' does not parse: " + perr);
          }
        }
        break;
      }
      case kTagBool: {
        const usize bytes = (usize{rows} + 7) / 8;
        if (!cur.need(bytes, "a bool column bitmap")) break;
        cur.skip(bytes);
        break;
      }
      case kTagNull: break;
      default:
        cur.fail("unknown column encoding tag " + std::to_string(tag) +
                 " in column '" + columns[c] + "'");
        break;
    }
    index.blocks_.push_back(blk);
  }
  if (!cur.failed() && cur.pos != chunk.size() - 8) {
    cur.fail("chunk declares " + std::to_string(chunk.size()) +
             " bytes but its column blocks end at offset " +
             std::to_string(base + cur.pos));
  }
  if (cur.failed()) {
    error = cur.error;
    return false;
  }
  index.chunks_.push_back({base, rows, first});
  return true;
}

/// A short read reports the absolute offset, the errno text for hard
/// errors, and the truncation hint for a clean early EOF. Nothing is
/// hashed here: the frame's bytes are, once, by read_chunk or hash_frame.
bool colfmt_reader::extend(usize n, const char* what, std::string& error) {
  const usize start = frame_.size();
  frame_.resize(start + n);
  const usize got = std::fread(frame_.data() + start, 1, n, file_);
  frame_.resize(start + got);
  if (got == n) return true;
  const std::string at = "offset " + std::to_string(offset_ + start + got);
  return fail(std::ferror(file_) != 0
                  ? at + ": cannot read " + what + ": " + std::strerror(errno)
                  : at + ": file ends inside " + what + " (need " +
                        std::to_string(n) + " bytes, " + std::to_string(got) +
                        " read) (truncated .amoc file?)",
              error);
}

void colfmt_reader::hash_frame() {
  if (hash_ && hashed_ < frame_.size()) {
    fnv_ = fnv1a64_append(fnv_, frame().substr(hashed_));
  }
  hashed_ = frame_.size();
}

bool colfmt_reader::hash_rest() {
  hash_frame();
  char buf[1 << 14];
  usize got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, file_)) > 0) {
    fnv_ = fnv1a64_append(fnv_, std::string_view(buf, got));
  }
  return std::ferror(file_) == 0;
}

bool colfmt_reader::open(std::FILE* f, std::string_view head, bool hash,
                         std::string& error) {
  if (f == nullptr) {
    error = std::string("cannot open the input: ") + std::strerror(errno);
    return false;
  }
  file_ = f;
  frame_ = head;
  hashed_ = 0;
  hash_ = hash;
  const bool ok = read_header(error);
  hash_frame();
  return ok;
}

bool colfmt_reader::read_header(std::string& error) {
  // The magic is judged first, on however few bytes exist: a short
  // foreign input deserves "not a .amoc file", not a truncation complaint.
  std::string why;
  const bool whole =
      extend(sizeof kMagic - frame().size(), "the file magic", why);
  if (!whole && std::ferror(file_) != 0) return fail(std::move(why), error);
  if (!whole || !is_colfmt(frame())) {
    return fail("offset 0: bad magic (not a .amoc file)", error);
  }
  if (!extend(kHeaderFixed - sizeof kMagic, "the file header", error)) {
    return false;
  }
  const char* p = frame().data();
  const std::uint16_t version = get_u16(p + 4);
  if (version != colfmt_version) {
    return fail("offset 4: unsupported .amoc version " +
                    std::to_string(version) +
                    " (this reader implements version " +
                    std::to_string(colfmt_version) + ")",
                error);
  }
  const std::uint16_t flags = get_u16(p + 6);
  if (flags != 0) {
    return fail("offset 6: unknown header flags 0x" +
                    fnv_hex64(flags).substr(12) +
                    " (a v1 reader must refuse flags it does not implement)",
                error);
  }
  colfmt_header& h = header_;
  h.grid_fp = get_u64(p + 8);
  h.cells_total = get_u64(p + 16);
  h.units_total = get_u64(p + 24);
  h.replicas = get_u64(p + 32);
  h.record_count = get_u64(p + 40);
  h.chunk_count = get_u64(p + 48);
  const std::uint32_t column_count = get_u32(p + 56);
  if (column_count > 65535) {
    return fail("offset 56: implausible column count " +
                    std::to_string(column_count),
                error);
  }
  h.columns.reserve(column_count);
  for (std::uint32_t c = 0; c < column_count; ++c) {
    if (!extend(2, "a column name length", error)) return false;
    const std::uint16_t len = get_u16(frame().data() + frame().size() - 2);
    if (!extend(len, "a column name", error)) return false;
    h.columns.emplace_back(frame().substr(frame().size() - len));
  }
  const usize checksum_at = frame().size();
  if (!extend(8, "the header checksum", error)) return false;
  const std::uint64_t stored = get_u64(frame().data() + checksum_at);
  const std::uint64_t computed = fnv1a64(frame().substr(0, checksum_at));
  if (stored != computed) {
    return fail("offset " + std::to_string(checksum_at) +
                    ": header checksum mismatch (stored " + fnv_hex64(stored) +
                    ", computed " + fnv_hex64(computed) +
                    ") (corrupted .amoc file?)",
                error);
  }
  offset_ = frame().size();
  open_ = true;
  return true;
}

bool colfmt_reader::next_chunk(std::vector<record>& out, bool& end,
                               std::string& error) {
  if (!next_chunk(records_index_, end, error, &records_frame_)) {
    out.clear();
    return false;
  }
  if (end) {
    out.clear();
  } else {
    records_index_.decode(records_frame_, out);
  }
  return true;
}

bool colfmt_reader::next_chunk(colfmt_blocks& index, bool& end,
                               std::string& error, std::string* frame) {
  end = false;
  if (frame != nullptr) {  // this chunk alone, at offset 0 of its frame
    index.chunks_.clear();
    index.blocks_.clear();
    index.verbatim_.clear();
  }
  if (index.columns_.empty()) index.columns_ = header_.columns;
  if (!read_chunk(index, end, error)) {
    hash_frame();
    return false;
  }
  if (end && frame == nullptr) {  // the index is complete: no growth slack
    index.chunks_.shrink_to_fit();
    index.blocks_.shrink_to_fit();
  } else if (!end && frame != nullptr) {
    index.chunks_.back().offset = 0;
    frame->swap(frame_);
    frame_.clear();
    hashed_ = 0;
  }
  return true;
}

bool colfmt_reader::read_chunk(colfmt_blocks& index, bool& end,
                               std::string& error) {
  if (!open_) return fail("reader is not open", error);
  frame_.clear();
  hashed_ = 0;
  std::string why;
  if (!extend(sizeof kEndMarker, "a chunk frame", error)) return false;
  if (std::memcmp(frame().data(), kEndMarker, sizeof kEndMarker) == 0) {
    hash_frame();
    char extra = 0;
    if (std::fread(&extra, 1, 1, file_) != 0) {
      if (hash_) fnv_ = fnv1a64_append(fnv_, std::string_view(&extra, 1));
      return fail("offset " + std::to_string(offset_ + sizeof kEndMarker) +
                      ": trailing content after the end marker",
                  error);
    }
    if (chunks_seen_ != header_.chunk_count ||
        records_seen_ != header_.record_count) {
      return fail("header declares " + std::to_string(header_.chunk_count) +
                      " chunks / " + std::to_string(header_.record_count) +
                      " records but the file holds " +
                      std::to_string(chunks_seen_) + " / " +
                      std::to_string(records_seen_),
                  error);
    }
    if (records_seen_ == 0 && !check_header_meta(header_, {}, why)) {
      return fail(std::move(why), error);
    }
    end = true;
    return true;
  }
  if (std::memcmp(frame().data(), kChunkMagic, sizeof kChunkMagic) != 0) {
    return fail("offset " + std::to_string(offset_) +
                    ": bad chunk magic (expected \"CHNK\")",
                error);
  }
  const std::uint32_t chunk_bytes = get_u32(frame().data() + 4);
  if (chunk_bytes < kChunkFixed + 8) {
    return fail("offset " + std::to_string(offset_ + 4) + ": chunk length " +
                    std::to_string(chunk_bytes) + " below the " +
                    std::to_string(kChunkFixed + 8) + "-byte minimum",
                error);
  }
  if (!extend(chunk_bytes - sizeof kEndMarker, "a chunk", error)) return false;
  // One pass over the checksummed bytes feeds both chains: the chunk's
  // checksum and, when hashing, the content hash.
  const std::string_view body = frame().substr(0, chunk_bytes - 8);
  std::uint64_t computed = fnv1a64_offset;
  if (hash_) {
    fnv1a64_append2(fnv_, computed, body);
    hashed_ = body.size();
  } else {
    computed = fnv1a64(body);
  }
  hash_frame();  // the stored checksum
  const std::uint64_t stored = get_u64(frame().data() + chunk_bytes - 8);
  if (stored != computed) {
    return fail("offset " + std::to_string(offset_ + chunk_bytes - 8) +
                    ": chunk checksum mismatch (stored " + fnv_hex64(stored) +
                    ", computed " + fnv_hex64(computed) +
                    ") (corrupted .amoc file?)",
                error);
  }
  if (!decode_chunk(frame(), offset_, header_.columns, index, why)) {
    return fail(std::move(why), error);
  }
  // The header's record-derived fields, against the first record.
  const usize rows = index.chunks_.back().rows;
  if (records_seen_ == 0 && rows != 0) {
    const cell_at first = [&](usize, usize c) {
      return index.value(frame_.data(), index.chunks_.back(), 0, c);
    };
    if (!check_header_meta(header_, first, why)) {
      return fail(std::move(why), error);
    }
  }
  obs::counter("merge", "chunks_read", static_cast<double>(chunks_seen_ + 1));
  offset_ += chunk_bytes;
  ++chunks_seen_;
  records_seen_ += rows;
  if (chunks_seen_ > header_.chunk_count ||
      records_seen_ > header_.record_count) {
    return fail("offset " + std::to_string(offset_) +
                    ": more chunks/records than the header declares",
                error);
  }
  return true;
}

// --- streaming writer -----------------------------------------------------

colfmt_writer::~colfmt_writer() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(tmp_.c_str());
  }
}

bool colfmt_writer::open(const char* path, std::string& error) {
  path_ = path;
  tmp_ = path_ + ".tmp";
  file_ = std::fopen(tmp_.c_str(), "wb");
  if (file_ == nullptr) {
    error = "cannot open " + tmp_ + " for writing: " + std::strerror(errno);
    return false;
  }
  return true;
}

bool colfmt_writer::add_chunk(const std::vector<record>& rows,
                              std::string& error) {
  if (file_ == nullptr) {
    error = "colfmt_writer: not open";
    return false;
  }
  if (rows.empty()) {
    error = "colfmt_writer: a chunk needs at least one record";
    return false;
  }
  if (columns_.empty()) {  // the first chunk fixes the schema
    for (const record_field& f : rows[0].fields) columns_.push_back(f.key);
  }
  const std::uint64_t seen = enc_.header().record_count;
  for (usize i = 0; i < rows.size(); ++i) {
    if (!schema_matches(rows[i], columns_, seen + i, error)) return false;
  }
  if (!enc_.add(
          rows.size(), columns_,
          [&](usize r, usize c) { return view_of(rows[r].fields[c]); },
          error)) {
    return false;
  }
  if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
    error = "cannot write " + tmp_ + ": " + std::strerror(errno);
    return false;
  }
  bytes_ += buf_.size();
  buf_.clear();
  obs::counter("merge", "chunks_written",
               static_cast<double>(enc_.header().chunk_count));
  return true;
}

bool colfmt_writer::finish(std::string& error) {
  if (file_ == nullptr) {
    error = "colfmt_writer: not open";
    return false;
  }
  // buf_ becomes the header, counts patched, then the end marker: the end
  // marker goes after the chunks and the header over its first image (or,
  // with no chunk written, the two go out together).
  enc_.finish();
  const usize head = bytes_ == 0 ? 0 : buf_.size() - sizeof kEndMarker;
  bool ok = std::fwrite(buf_.data() + head, 1, buf_.size() - head, file_) ==
                buf_.size() - head &&
            (head == 0 || (std::fseek(file_, 0, SEEK_SET) == 0 &&
                           std::fwrite(buf_.data(), 1, head, file_) == head)) &&
            std::fflush(file_) == 0;
  bytes_ += buf_.size() - head;
#if !defined(_WIN32)
  if (ok && ::fsync(::fileno(file_)) != 0 && errno != EINVAL) ok = false;
#endif
  if (std::fclose(file_) != 0) ok = false;
  file_ = nullptr;
  if (!ok) {
    error = "cannot write " + tmp_ + ": " + std::strerror(errno);
    std::remove(tmp_.c_str());
    return false;
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    error = "cannot rename " + tmp_ + " to " + path_ + ": " +
            std::strerror(errno);
    std::remove(tmp_.c_str());
    return false;
  }
  return true;
}

}  // namespace amo::exp
