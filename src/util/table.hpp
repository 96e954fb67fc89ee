// Minimal aligned-text table renderer used by the benches to print their
// summary tables.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace amo {

/// Builds a column-aligned table. Usage:
///   text_table t({"n", "m", "measured", "bound"});
///   t.add_row({"1024", "8", "1002", "1002"});
///   std::cout << t.render();
class text_table {
 public:
  explicit text_table(std::vector<std::string> headers);

  /// Appends one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders with a header rule and two-space column gutters.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `prec` digits after the point (no trailing-zero
/// stripping; keeps bench tables visually aligned).
std::string fmt(double v, int prec = 2);

/// Formats an unsigned integer with thousands separators ("1,048,576").
std::string fmt_count(std::uint64_t v);

}  // namespace amo
