// exp::report_diff — compares two flat-record JSON files (two amo_lab
// sweeps, or two BENCH_*.json snapshots) cell by cell and classifies every
// change, so CI can gate a PR on "no effectiveness loss, no work blow-up,
// and absolutely no new duplicates or livelocks".
//
// Records are matched by their identity fields (scenario, adversary, seed,
// sizes, cell index, ... — see classify_field); the remaining fields are
// outcome metrics, each with a severity rule:
//
//   hard_fail    duplicates/livelocks increased, a safety boolean
//                (at_most_once, quiescent, wa_complete, bit_identical,
//                claim_holds) flipped true -> false, or a baseline cell
//                disappeared.
//   regression   a "lower is worse" metric (effectiveness, wa_written, ...)
//                dropped, or a "higher is worse" metric (work, do_actions,
//                steps, ...) grew, beyond the relative tolerance.
//   info         any other observed change: drift within tolerance, purely
//                informational counters (crashes, num_levels), improvements,
//                fields added/removed by a schema change, new cells.
//   clean        byte-equal outcome — diff(x, x) reports nothing at all.
//
// Timing and environment fields (wall_seconds, speedup, pool sizes,
// hardware_concurrency) are ignored outright: they are honest measurements,
// not claims, and differ across hosts by design.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/record.hpp"

namespace amo::exp {

enum class diff_severity : std::uint8_t { clean, info, regression, hard_fail };

[[nodiscard]] const char* to_string(diff_severity s);

/// How report_diff treats a field, decided by name.
enum class field_class : std::uint8_t {
  identity,       ///< part of the cell's identity key
  ignored,        ///< timing / environment; never compared
  hard_counter,   ///< any increase is a hard failure (duplicates, livelocks)
  safety_flag,    ///< boolean; true -> false is a hard failure
  lower_worse,    ///< tolerance-gated: a drop is a regression
  higher_worse,   ///< tolerance-gated: growth is a regression
  informational,  ///< reported when changed, never gates
};

[[nodiscard]] field_class classify_field(std::string_view name);

struct field_delta {
  std::string field;
  std::string baseline;  ///< raw token in the baseline ("" when absent)
  std::string candidate; ///< raw token in the candidate ("" when absent)
  diff_severity severity = diff_severity::info;
  std::string note;      ///< human-readable classification, e.g. "work +12.3%"
};

struct record_delta {
  std::string key;  ///< the identity key, "field=value ..." form
  diff_severity severity = diff_severity::clean;
  std::vector<field_delta> fields;
};

struct diff_options {
  /// Relative tolerance for the lower_worse / higher_worse classes:
  /// candidate in [baseline*(1-tol), baseline*(1+tol)] never gates.
  double tolerance = 0.05;
  /// Opt-in replica-distribution gate (amo_lab diff --dist-test): per-unit
  /// records of one cell (same identity, replica=1..R) form a sample of
  /// each metric; the gate compares the baseline and candidate samples with
  /// a Mann-Whitney U rank test and a two-sample Kolmogorov-Smirnov test.
  /// The per-record tolerance above can hide a systematic drift — R small
  /// regressions of 3% each pass a 5% gate one by one, but a consistent
  /// rank shift across the whole replica sample is exactly what a rank test
  /// detects. Severity stays keyed to the metric's direction: a significant
  /// shift toward the worse side of a gated metric is a regression; a shift
  /// toward the better side, or a pure shape change, is info.
  bool dist_test = false;
  /// Two-sided significance threshold: a finding is raised when either
  /// test's p-value falls below this.
  double dist_alpha = 0.01;
};

/// One significant distribution shift found by the --dist-test gate.
struct dist_finding {
  std::string key;    ///< cell identity with the replica component stripped
  std::string field;  ///< the metric whose replica sample shifted
  usize n_baseline = 0;  ///< sample sizes (replicas with the field present)
  usize n_candidate = 0;
  double mw_p = 1.0;  ///< Mann-Whitney two-sided p (normal approx., tie-corrected)
  double ks_p = 1.0;  ///< Kolmogorov-Smirnov two-sample p (asymptotic)
  double shift = 0.0; ///< rank-biserial direction in [-0.5, 0.5]; > 0 means
                      ///< the candidate sample tends larger
  diff_severity severity = diff_severity::info;
  std::string note;   ///< human-readable finding
};

struct diff_report {
  std::vector<record_delta> changed;       ///< cells with at least one delta
  std::vector<std::string> only_baseline;  ///< identity keys that vanished
  std::vector<std::string> only_candidate; ///< identity keys that appeared
  std::vector<dist_finding> dist;          ///< --dist-test findings (if on)
  usize matched = 0;                       ///< cells present on both sides
  usize dist_groups = 0;  ///< replica groups the dist gate compared
  diff_severity severity = diff_severity::clean;
  std::string error;  ///< structural impossibility (duplicate identity key)

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Compares candidate against baseline. A diff of a file against itself is
/// clean (no changed records, severity == clean) whatever the file holds.
diff_report report_diff(const std::vector<record>& baseline,
                        const std::vector<record>& candidate,
                        const diff_options& opt = {});

/// Renders the report as the human-readable summary amo_lab prints.
std::string format_diff(const diff_report& report);

}  // namespace amo::exp
