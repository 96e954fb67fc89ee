#include "exp/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "exp/timing_keys.hpp"

namespace amo::exp {

namespace {

/// Name table for the known schemas (the run-report schema that
/// exp::unit_record_rows and exp::cell_record_rows emit, and the BENCH_*
/// aggregate records). Unknown names fall through to `informational`, so a
/// new metric starts reporting on day one and can be promoted here later.
struct field_rule {
  std::string_view name;
  field_class cls;
};

constexpr field_rule kRules[] = {
    // identity — who the cell is
    {"experiment", field_class::identity},
    {"scenario", field_class::identity},
    {"label", field_class::identity},
    {"algo", field_class::identity},
    {"driver", field_class::identity},
    {"memory", field_class::identity},
    {"free_set", field_class::identity},
    {"adversary", field_class::identity},
    {"seed", field_class::identity},
    {"n", field_class::identity},
    {"m", field_class::identity},
    {"beta", field_class::identity},
    {"eps_inv", field_class::identity},
    {"crash_budget", field_class::identity},
    {"rule", field_class::identity},
    // replica identity: R=8 and R=4 sweeps of one spec are different
    // experiments (different sample sizes), and two replicas of one cell
    // share every spec-echo field except their derived seed — keep both in
    // the key so per-unit shard files stay diffable too.
    {"replicas", field_class::identity},
    {"replica", field_class::identity},
    // ignored — grid position (merge validates these; keeping them out of
    // the identity key lets sweeps of different or reordered grids still
    // match cells by their spec echo). Timing / environment keys are NOT
    // listed here: classify_field consults exp::timing_keys(), the table
    // shared with merge's unit-bookkeeping strip.
    {"cell", field_class::ignored},
    {"cells_total", field_class::ignored},
    {"unit", field_class::ignored},
    {"units_total", field_class::ignored},
    {"grid", field_class::ignored},
    // hard counters — zero tolerance for growth
    {"duplicates", field_class::hard_counter},
    {"livelocks", field_class::hard_counter},
    // safety flags — true -> false is a hard failure
    {"at_most_once", field_class::safety_flag},
    {"quiescent", field_class::safety_flag},
    {"wa_complete", field_class::safety_flag},
    {"bit_identical", field_class::safety_flag},
    {"safe", field_class::safety_flag},
    {"complete", field_class::safety_flag},
    {"telemetry_off_noop", field_class::safety_flag},
    {"claim_holds", field_class::safety_flag},
    // lower is worse — effectiveness family
    {"effectiveness", field_class::lower_worse},
    {"wa_written", field_class::lower_worse},
    {"terminated", field_class::lower_worse},
    {"min_effectiveness", field_class::lower_worse},
    // higher is worse — work family
    {"work", field_class::higher_worse},
    {"do_actions", field_class::higher_worse},
    {"perform_events", field_class::higher_worse},
    {"steps", field_class::higher_worse},
    {"shared_reads", field_class::higher_worse},
    {"shared_writes", field_class::higher_worse},
    {"local_ops", field_class::higher_worse},
    {"actions", field_class::higher_worse},
    {"collisions", field_class::higher_worse},
    {"worst_pair_ratio", field_class::higher_worse},
    {"trace_events", field_class::higher_worse},
    // model-checking state counts (BENCH_model): growth = lost reduction
    {"brute_states", field_class::higher_worse},
    {"brute_transitions", field_class::higher_worse},
    {"por_states", field_class::higher_worse},
    {"por_transitions", field_class::higher_worse},
    // what the POR search stores, and its peak resident growth, per state
    // (BENCH_model): growth = lost memory
    {"bytes_per_state", field_class::higher_worse},
    {"peak_bytes_per_state", field_class::higher_worse},
    // reduction factors: shrinking = lost reduction
    {"state_reduction", field_class::lower_worse},
    {"transition_reduction", field_class::lower_worse},
    // informational — reported, never gating
    {"crashes", field_class::informational},
    {"num_levels", field_class::informational},
    {"duplicate", field_class::informational},
    {"runs", field_class::informational},
    {"cells", field_class::informational},
};

std::string identity_key(const record& rec) {
  std::string key;
  // The replica fields join the key in a canonical suffix position, and an
  // absent "replicas" means 1 — so a pre-replica artifact still matches
  // the byte-equivalent replicas=1 sweep of today (same cells, same
  // draws), while R=8 vs R=4 sweeps stay distinct experiments.
  std::string replica;
  std::string replicas = "1";
  for (const record_field& f : rec.fields) {
    if (f.key == "replica") {
      replica = token_of(f);
      continue;
    }
    if (f.key == "replicas") {
      replicas = token_of(f);
      continue;
    }
    if (classify_field(f.key) != field_class::identity) continue;
    if (!key.empty()) key += ' ';
    key += f.key;
    key += '=';
    key += f.type == record_field::kind::string ? f.text : token_of(f);
  }
  if (key.empty() && replica.empty()) return "<no identity fields>";
  if (!replica.empty()) {
    if (!key.empty()) key += ' ';
    key += "replica=" + replica;
  }
  if (!key.empty()) key += ' ';
  key += "replicas=" + replicas;
  return key;
}

std::string percent(double base, double cand) {
  if (base == 0.0) return "from 0";
  char buf[32];
  const double delta = 100.0 * (cand - base) / base;
  std::snprintf(buf, sizeof buf, "%+.1f%%", delta);
  return buf;
}

void raise(diff_severity& sev, diff_severity to) { sev = std::max(sev, to); }

/// Compares one matched field pair; appends a delta when anything changed.
void compare_field(const record_field& base, const record_field& cand,
                   const diff_options& opt, record_delta& out) {
  const field_class cls = classify_field(base.key);
  if (cls == field_class::ignored || cls == field_class::identity) return;
  std::string base_token = token_of(base);
  std::string cand_token = token_of(cand);
  if (base_token == cand_token) return;

  field_delta d;
  d.field = base.key;
  d.baseline = std::move(base_token);
  d.candidate = std::move(cand_token);
  d.severity = diff_severity::info;
  d.note = "changed";

  const bool numeric = base.type == record_field::kind::number &&
                       cand.type == record_field::kind::number;
  switch (cls) {
    case field_class::hard_counter:
      if (numeric && cand.number > base.number) {
        d.severity = diff_severity::hard_fail;
        d.note = "new " + base.key;
      }
      break;
    case field_class::safety_flag:
      if (base.type == record_field::kind::boolean &&
          cand.type == record_field::kind::boolean && base.truth &&
          !cand.truth) {
        d.severity = diff_severity::hard_fail;
        d.note = base.key + " flipped true -> false";
      } else {
        d.note = base.key + " changed (not a true -> false flip)";
      }
      break;
    case field_class::lower_worse:
      if (numeric) {
        d.note = base.key + " " + percent(base.number, cand.number);
        if (cand.number < base.number * (1.0 - opt.tolerance)) {
          d.severity = diff_severity::regression;
          d.note += " (beyond tolerance)";
        }
      }
      break;
    case field_class::higher_worse:
      if (numeric) {
        d.note = base.key + " " + percent(base.number, cand.number);
        if (cand.number > base.number * (1.0 + opt.tolerance)) {
          d.severity = diff_severity::regression;
          d.note += " (beyond tolerance)";
        }
      }
      break;
    case field_class::informational:
    case field_class::identity:
    case field_class::ignored:
      break;
  }
  raise(out.severity, d.severity);
  out.fields.push_back(std::move(d));
}

record_delta compare_records(const std::string& key, const record& base,
                             const record& cand, const diff_options& opt) {
  record_delta out;
  out.key = key;
  for (const record_field& bf : base.fields) {
    const field_class cls = classify_field(bf.key);
    if (cls == field_class::ignored || cls == field_class::identity) continue;
    const record_field* cf = cand.find(bf.key);
    if (cf == nullptr) {
      // A gating metric that stops being reported would otherwise silently
      // disable its gate — treat the disappearance as seriously as the
      // worst change the field could have hidden.
      field_delta d;
      d.field = bf.key;
      d.baseline = token_of(bf);
      if (cls == field_class::hard_counter || cls == field_class::safety_flag) {
        d.severity = diff_severity::hard_fail;
        d.note = "gating field removed in candidate";
      } else if (cls == field_class::lower_worse ||
                 cls == field_class::higher_worse) {
        d.severity = diff_severity::regression;
        d.note = "gating field removed in candidate";
      } else {
        d.severity = diff_severity::info;
        d.note = "field removed in candidate";
      }
      raise(out.severity, d.severity);
      out.fields.push_back(std::move(d));
      continue;
    }
    compare_field(bf, *cf, opt, out);
  }
  for (const record_field& cf : cand.fields) {
    const field_class cls = classify_field(cf.key);
    if (cls == field_class::ignored || cls == field_class::identity) continue;
    if (base.find(cf.key) != nullptr) continue;
    field_delta d;
    d.field = cf.key;
    d.candidate = token_of(cf);
    d.severity = diff_severity::info;
    d.note = "field added in candidate";
    out.fields.push_back(std::move(d));
    raise(out.severity, diff_severity::info);
  }
  return out;
}

/// Identity key -> record, failing on duplicate keys (two records that the
/// diff could not tell apart make any comparison meaningless).
bool index_records(const std::vector<record>& records, const char* side,
                   std::unordered_map<std::string, const record*>& out,
                   std::vector<std::string>& order, std::string& error) {
  out.reserve(records.size());
  for (const record& rec : records) {
    std::string key = identity_key(rec);
    if (!out.emplace(key, &rec).second) {
      error = std::string(side) + " has two records with identity '" + key +
              "' — not diffable";
      return false;
    }
    order.push_back(std::move(key));
  }
  return true;
}

// ----- replica-distribution gate (--dist-test) -----------------------------

/// Minimum per-side sample size for the rank tests: below this the normal
/// approximation (and the KS asymptotic) are meaningless, so groups with
/// fewer replicas are skipped rather than tested badly.
constexpr usize kDistMinSamples = 4;

/// Two-sided p-value of a standard-normal z score: 2 * (1 - Phi(|z|)).
double normal_two_sided_p(double z) {
  return std::erfc(std::abs(z) / std::sqrt(2.0));
}

/// Mann-Whitney U two-sided p for samples a vs b, normal approximation with
/// tie correction and continuity correction. `shift` is the rank-biserial
/// direction in [-0.5, 0.5]: > 0 means b (the candidate) tends larger.
/// Returns 1.0 when every value is tied (zero variance).
double mann_whitney_p(const std::vector<double>& a,
                      const std::vector<double>& b, double& shift) {
  const usize n1 = a.size();
  const usize n2 = b.size();
  const usize n = n1 + n2;
  std::vector<std::pair<double, bool>> all;  // value, is-candidate
  all.reserve(n);
  for (const double v : a) all.emplace_back(v, false);
  for (const double v : b) all.emplace_back(v, true);
  std::sort(all.begin(), all.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  // Average ranks over tie groups; accumulate sum(t^3 - t) for the variance
  // correction and the baseline side's rank sum.
  double r1 = 0.0;
  double tie_term = 0.0;
  usize i = 0;
  while (i < n) {
    usize j = i;
    while (j < n && all[j].first == all[i].first) ++j;
    const double t = static_cast<double>(j - i);
    const double avg_rank = (static_cast<double>(i + 1) +
                             static_cast<double>(j)) / 2.0;
    for (usize k = i; k < j; ++k) {
      if (!all[k].second) r1 += avg_rank;
    }
    tie_term += t * t * t - t;
    i = j;
  }

  const double fn1 = static_cast<double>(n1);
  const double fn2 = static_cast<double>(n2);
  const double fn = static_cast<double>(n);
  const double u1 = r1 - fn1 * (fn1 + 1.0) / 2.0;  // pairs baseline beats
  const double mu = fn1 * fn2 / 2.0;
  shift = (mu - u1) / (fn1 * fn2);  // > 0: candidate tends larger
  const double var =
      fn1 * fn2 / 12.0 * ((fn + 1.0) - tie_term / (fn * (fn - 1.0)));
  if (var <= 0.0) return 1.0;  // all values tied: no distribution to compare
  double num = u1 - mu;
  if (num > 0.5) {
    num -= 0.5;  // continuity correction
  } else if (num < -0.5) {
    num += 0.5;
  } else {
    num = 0.0;
  }
  return normal_two_sided_p(num / std::sqrt(var));
}

/// Two-sample Kolmogorov-Smirnov asymptotic p (the Q_KS series with the
/// small-sample effective-size correction). Sorts copies of both samples.
double ks_two_sample_p(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double fn1 = static_cast<double>(a.size());
  const double fn2 = static_cast<double>(b.size());
  double d = 0.0;
  usize i = 0;
  usize j = 0;
  while (i < a.size() && j < b.size()) {
    const double v = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= v) ++i;
    while (j < b.size() && b[j] <= v) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / fn1 -
                             static_cast<double>(j) / fn2));
  }
  const double ne = fn1 * fn2 / (fn1 + fn2);
  const double lam =
      (std::sqrt(ne) + 0.12 + 0.11 / std::sqrt(ne)) * d;
  // The Q_KS series only converges for lam away from 0; below that the
  // distributions are indistinguishable anyway (p -> 1). Same guard as the
  // classic probks(): a series that fails to converge means p = 1.
  if (lam < 0.3) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  bool converged = false;
  for (int k = 1; k <= 100; ++k) {
    const double term = 2.0 * std::exp(-2.0 * lam * lam * k * k);
    sum += sign * term;
    if (term < 1e-10) {
      converged = true;
      break;
    }
    sign = -sign;
  }
  return converged ? std::clamp(sum, 0.0, 1.0) : 1.0;
}

/// Per-cell replica samples: field name -> values in replica order.
using metric_samples = std::map<std::string, std::vector<double>>;

/// The key under which a per-unit record's metrics join a replica sample:
/// the identity fields minus "replica" and minus "seed" — a per-unit
/// record's seed is exp::replica_seed(base, replica), i.e. a function of
/// the replica index, so keeping it would make every replica its own
/// singleton group — plus the grid "cell" position, which separates cells
/// of a seed sweep that echo identical specs apart from the base seed.
/// (The exact diff deliberately matches cells without their grid position;
/// the dist gate trades that reordering freedom for seed-sweep safety —
/// a reordered grid makes groups silently unmatched, never mispooled.)
std::string dist_group_key(const record& rec) {
  std::string key;
  for (const record_field& f : rec.fields) {
    const bool is_cell = f.key == "cell";
    if (!is_cell) {
      if (f.key == "seed" || f.key == "replica") continue;
      if (classify_field(f.key) != field_class::identity) continue;
    }
    if (!key.empty()) key += ' ';
    key += f.key;
    key += '=';
    key += f.type == record_field::kind::string ? f.text : token_of(f);
  }
  return key;
}

/// Collects per-replica values of every tolerance-gated numeric metric,
/// grouped by dist_group_key. Records without a replica field (aggregate
/// cell records) don't form distributions and are skipped.
std::map<std::string, metric_samples> collect_replica_samples(
    const std::vector<record>& records) {
  std::map<std::string, metric_samples> groups;
  for (const record& rec : records) {
    if (rec.find("replica") == nullptr) continue;
    metric_samples& group = groups[dist_group_key(rec)];
    for (const record_field& f : rec.fields) {
      if (f.type != record_field::kind::number) continue;
      const field_class cls = classify_field(f.key);
      if (cls != field_class::lower_worse && cls != field_class::higher_worse) {
        continue;
      }
      group[f.key].push_back(f.number);
    }
  }
  return groups;
}

/// Runs the rank tests on every matched replica group and appends the
/// significant shifts to the report, severity-keyed by metric direction.
void run_dist_tests(const std::vector<record>& baseline,
                    const std::vector<record>& candidate,
                    const diff_options& opt, diff_report& out) {
  const std::map<std::string, metric_samples> base_groups =
      collect_replica_samples(baseline);
  const std::map<std::string, metric_samples> cand_groups =
      collect_replica_samples(candidate);

  for (const auto& [key, base_metrics] : base_groups) {
    const auto cg = cand_groups.find(key);
    if (cg == cand_groups.end()) continue;  // vanished cells already gate
    ++out.dist_groups;
    for (const auto& [field, base_vals] : base_metrics) {
      const auto cf = cg->second.find(field);
      if (cf == cg->second.end()) continue;  // removal already gates
      const std::vector<double>& cand_vals = cf->second;
      if (base_vals.size() < kDistMinSamples ||
          cand_vals.size() < kDistMinSamples) {
        continue;
      }

      dist_finding f;
      f.key = key;
      f.field = field;
      f.n_baseline = base_vals.size();
      f.n_candidate = cand_vals.size();
      f.mw_p = mann_whitney_p(base_vals, cand_vals, f.shift);
      f.ks_p = ks_two_sample_p(base_vals, cand_vals);
      if (std::min(f.mw_p, f.ks_p) >= opt.dist_alpha) continue;

      const field_class cls = classify_field(field);
      const bool worse = (cls == field_class::lower_worse && f.shift < 0.0) ||
                         (cls == field_class::higher_worse && f.shift > 0.0);
      const char* direction =
          f.shift > 0.0 ? "higher" : (f.shift < 0.0 ? "lower" : "in shape");
      f.severity = worse ? diff_severity::regression : diff_severity::info;
      char note[160];
      std::snprintf(note, sizeof note,
                    "%s distribution shifted %s%s (MW p=%.2g, KS p=%.2g, "
                    "n=%zu vs %zu)",
                    field.c_str(), direction,
                    worse ? "" : " (not the worse direction)", f.mw_p, f.ks_p,
                    f.n_baseline, f.n_candidate);
      f.note = note;
      raise(out.severity, f.severity);
      out.dist.push_back(std::move(f));
    }
  }
}

}  // namespace

const char* to_string(diff_severity s) {
  switch (s) {
    case diff_severity::clean: return "clean";
    case diff_severity::info: return "info";
    case diff_severity::regression: return "REGRESSION";
    case diff_severity::hard_fail: return "HARD FAIL";
  }
  return "?";
}

field_class classify_field(std::string_view name) {
  for (const field_rule& r : kRules) {
    if (r.name == name) return r.cls;
  }
  if (is_timing_key(name)) return field_class::ignored;
  // Replica-aggregate suffixes inherit the base metric's direction:
  // effectiveness_min gates like effectiveness, work_p95 gates like work.
  // Spread (stddev) is shape, not level — reported, never gating.
  auto strip = [&name](std::string_view suffix) -> std::string_view {
    if (name.size() > suffix.size() &&
        name.substr(name.size() - suffix.size()) == suffix) {
      return name.substr(0, name.size() - suffix.size());
    }
    return {};
  };
  // Anything wall-clock- or throughput-shaped is a measurement, not a
  // claim: spawn_wall_seconds, units_per_second, ... differ across hosts
  // by design, exactly like the exact-name timing fields above.
  if (!strip("_wall_seconds").empty() || !strip("_per_second").empty()) {
    return field_class::ignored;
  }
  if (!strip("_stddev").empty()) return field_class::informational;
  for (const std::string_view suffix : {"_min", "_mean", "_max", "_p50", "_p95"}) {
    const std::string_view base = strip(suffix);
    if (base.empty()) continue;
    for (const field_rule& r : kRules) {
      if (r.name == base && (r.cls == field_class::lower_worse ||
                             r.cls == field_class::higher_worse)) {
        return r.cls;
      }
    }
  }
  return field_class::informational;
}

diff_report report_diff(const std::vector<record>& baseline,
                        const std::vector<record>& candidate,
                        const diff_options& opt) {
  diff_report out;

  std::unordered_map<std::string, const record*> base_by_key;
  std::unordered_map<std::string, const record*> cand_by_key;
  std::vector<std::string> base_order;
  std::vector<std::string> cand_order;
  if (!index_records(baseline, "baseline", base_by_key, base_order, out.error) ||
      !index_records(candidate, "candidate", cand_by_key, cand_order, out.error)) {
    out.severity = diff_severity::hard_fail;
    return out;
  }

  for (const std::string& key : base_order) {
    const auto it = cand_by_key.find(key);
    if (it == cand_by_key.end()) {
      out.only_baseline.push_back(key);
      raise(out.severity, diff_severity::hard_fail);
      continue;
    }
    ++out.matched;
    record_delta delta =
        compare_records(key, *base_by_key.at(key), *it->second, opt);
    if (!delta.fields.empty()) {
      raise(out.severity, delta.severity);
      out.changed.push_back(std::move(delta));
    }
  }
  for (const std::string& key : cand_order) {
    if (base_by_key.find(key) == base_by_key.end()) {
      out.only_candidate.push_back(key);
      raise(out.severity, diff_severity::info);
    }
  }
  if (opt.dist_test) run_dist_tests(baseline, candidate, opt, out);
  return out;
}

std::string format_diff(const diff_report& report) {
  std::string out;
  if (!report.ok()) {
    out += "diff error: " + report.error + "\n";
    return out;
  }
  for (const std::string& key : report.only_baseline) {
    out += "HARD FAIL  cell vanished from candidate: " + key + "\n";
  }
  for (const std::string& key : report.only_candidate) {
    out += "info       new cell in candidate: " + key + "\n";
  }
  for (const record_delta& rd : report.changed) {
    out += std::string(to_string(rd.severity)) + "  " + rd.key + "\n";
    for (const field_delta& fd : rd.fields) {
      out += "    " + fd.field + ": " +
             (fd.baseline.empty() ? "<absent>" : fd.baseline) + " -> " +
             (fd.candidate.empty() ? "<absent>" : fd.candidate) + "  [" +
             fd.note + "]\n";
    }
  }
  for (const dist_finding& df : report.dist) {
    out += std::string(to_string(df.severity)) + "  dist  " + df.key + "\n";
    out += "    " + df.note + "\n";
  }
  char tail[160];
  std::snprintf(tail, sizeof tail,
                "%zu cells matched, %zu changed, %zu only-baseline, "
                "%zu only-candidate; verdict: %s\n",
                report.matched, report.changed.size(),
                report.only_baseline.size(), report.only_candidate.size(),
                to_string(report.severity));
  out += tail;
  if (report.dist_groups > 0 || !report.dist.empty()) {
    char dline[96];
    std::snprintf(dline, sizeof dline,
                  "dist-test: %zu replica groups compared, %zu significant "
                  "shifts\n",
                  report.dist_groups, report.dist.size());
    out += dline;
  }
  return out;
}

}  // namespace amo::exp
