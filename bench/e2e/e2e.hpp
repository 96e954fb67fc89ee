// Shared vocabulary of the end-to-end benchmark (amo_e2e): run options, the
// metric report, the correctness gates, the trace fold and small statistics
// helpers. Each workload lives in its own translation unit and fills one
// report; main.cpp prints it. README.md documents every metric.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/record.hpp"
#include "exp/spec.hpp"
#include "obs/stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_read.hpp"
#include "util/types.hpp"

namespace e2e {

using amo::usize;

/// Workers of every in-process pool and the dispatch shard count: a 4-vCPU
/// host keeps one core for the benchmark's own threads and the kernel.
inline constexpr usize kWorkers = 3;

struct options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured wall of the untraced pass
  bool traced = false;    ///< also run the traced pass (per-layer metrics)
  bool smoke = false;     ///< tiny sizes: the ctest smoke test
  std::string workdir;    ///< artifacts (created and removed by main)
  std::string trace_out;  ///< traced: the Perfetto trace file
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool layer = false;  ///< per-layer (traced run) rather than end-to-end
};

/// Everything one workload run reports: metrics in print order plus the
/// correctness tally (`failed` of `attempted` operations failed a check).
struct report {
  std::vector<metric> metrics;
  usize attempted = 0;
  usize failed = 0;
  std::vector<std::string> failures;
  usize reps_timed = 0;   ///< repetitions (serve: sessions, bursts) timed
  usize reps_stolen = 0;  ///< repetitions left out for host steal

  void end_to_end(const char* name, double value, const char* unit);
  void layer(const char* name, double value, const char* unit);
  /// Counts a failed operation when `ok` is false; returns `ok`.
  bool check(bool ok, const std::string& what);
  /// The same, with the message `what` + `detail` built only after `ok` was
  /// evaluated: for calls that report their error through `detail`.
  bool check(bool ok, const char* what, const std::string& detail);
  /// The traced run must reproduce a deterministic count exactly.
  void same_count(const char* name, double untraced, double traced);
};

// ---- statistics ----------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double now_s();  ///< steady clock, seconds
/// Peak resident set of this process and of its largest waited-for child.
[[nodiscard]] double peak_rss_mb();

// ---- host steal ----------------------------------------------------------
//
// On a shared host the hypervisor now and then runs other machines on this
// one's vCPUs for one to several minutes; the guest sees it as steal time.
// A repetition that lost more than kMaxStolen of its busy CPU time that way
// times the host, not the program: it is checked but not timed, and the pass
// runs on (up to kMaxStretch times its length) to time enough clean ones.

/// The guest's CPU accounting (/proc/stat): ticks the hypervisor stole from
/// this machine's vCPUs, and every non-idle tick, steal included.
struct cpu_ticks {
  double steal = 0.0;
  double busy = 0.0;
};
[[nodiscard]] cpu_ticks read_cpu_ticks();  ///< zeros where unreadable
/// Share of the non-idle CPU time between two readings that was stolen.
[[nodiscard]] double stolen_share(const cpu_ticks& from, const cpu_ticks& to);

inline constexpr double kMaxStolen = 0.05;
inline constexpr double kMaxStretch = 3.0;
inline constexpr usize kMinTimed = 5;

/// True once a pass that began at `start` may stop: it has lasted `seconds`
/// with `min_clean` clean repetitions, or kMaxStretch × `seconds`.
[[nodiscard]] bool pass_done(double start, double seconds,
                             const std::vector<double>& stolen,
                             usize min_clean = kMinTimed);
/// Indices of the repetitions to time: the clean ones; short of `min_timed`,
/// the `min_timed` least stolen. Counts timed and left-out ones into r.
[[nodiscard]] std::vector<usize> timed_reps(const std::vector<double>& stolen,
                                            report& r,
                                            usize min_timed = kMinTimed);
/// v at the given indices.
[[nodiscard]] std::vector<double> pick(const std::vector<double>& v,
                                       const std::vector<usize>& at);

/// The timings of a pass's repetitions after its warm-up.
struct rep_times {
  std::vector<double> setup_s;
  std::vector<double> op_s;
  std::vector<double> stolen;  ///< host steal share while each one ran

  void add(double setup, double op, double steal) {
    setup_s.push_back(setup);
    op_s.push_back(op);
    stolen.push_back(steal);
  }
  [[nodiscard]] bool done(double start, double seconds) const {
    return pass_done(start, seconds, stolen);
  }
  /// Medians of op_s and setup_s over the repetitions timed_reps keeps.
  [[nodiscard]] std::pair<double, double> medians(report& r) const {
    const std::vector<usize> timed = timed_reps(stolen, r);
    return {median(pick(op_s, timed)), median(pick(setup_s, timed))};
  }
};

// ---- correctness gates ---------------------------------------------------

/// Lemma 4.1 on every run (at most once) and Lemma 4.2 on every quiescent
/// KK_beta run with beta >= m (effectiveness >= n - (beta + m - 2)).
[[nodiscard]] bool report_ok(const amo::exp::run_report& r, std::string& why);
/// The same gate on one output record: a per-unit record or a cell
/// aggregate (whose effectiveness_min covers every replica).
[[nodiscard]] bool record_ok(const amo::exp::record& rec, std::string& why);
/// Gates every record; each failure lands in r.
void gate_records(const std::vector<amo::exp::record>& records, report& r,
                  const std::string& where);

// ---- files ---------------------------------------------------------------

[[nodiscard]] std::string slurp(const std::string& path);  ///< "" on failure
void make_dirs(const std::string& path);

// ---- trace fold ----------------------------------------------------------

/// The benchmark's own spans: category "e2e", one "rep" root per
/// repetition (warm-up included), and one span per public call named after the layer it
/// enters. The program's spans nest inside.
inline constexpr const char* kCat = "e2e";

/// A traced pass's events, read back from the exported Perfetto trace and
/// folded: per-stage distributions (obs::summarize_trace) plus self times
/// (a span's duration minus the part its same-thread children cover).
struct trace_fold {
  std::vector<amo::obs::trace_event> events;
  std::vector<double> self_us;  ///< parallel to events; spans only
  amo::obs::trace_summary summary;
  std::uint64_t dropped = 0;

  [[nodiscard]] const amo::obs::stage_stats* stage(const char* cat,
                                                   const char* name) const;
  [[nodiscard]] double total_s(const char* cat, const char* name) const;
  [[nodiscard]] std::vector<double> durations_s(const char* cat,
                                                const char* name) const;
  /// Σ duration × the span's numeric `arg` (pool/batch: × "workers").
  [[nodiscard]] double weighted_s(const char* cat, const char* name,
                                  const char* arg) const;
  /// The samples of one counter series (all threads and processes) taken
  /// within [from_us, to_us].
  [[nodiscard]] std::vector<double> counter_samples(
      const char* cat, const char* name, double from_us = 0.0,
      double to_us = 1e300) const;
  /// [begin, end] of each e2e/rep root in start order, microseconds.
  [[nodiscard]] std::vector<std::pair<double, double>> reps() const;
  /// Σ over threads of a cumulative per-thread counter's last sample.
  [[nodiscard]] double counter_thread_total(const char* cat,
                                            const char* name) const;
  /// Share of the e2e/rep roots' wall covered by no other span.
  [[nodiscard]] double unattributed_share() const;
};

/// Exports the session to `path` (Perfetto-loadable; attached child traces
/// are stitched in), reads it back and folds it. False with `error`.
bool fold_session(amo::obs::telemetry& sink, const std::string& path,
                  trace_fold& out, std::string& error);

/// Ring capacity per thread for the traced pass: large enough that no
/// workload drops an event (rings grow on demand).
inline constexpr usize kRingCapacity = usize{1} << 22;

/// The per-layer metrics every workload reports from its traced pass.
void add_trace_health(report& r, const trace_fold& f, double untraced_op_s,
                      double traced_op_s);

// ---- workloads -----------------------------------------------------------

void run_sweep_lanes(const options& opt, report& r);
void run_serve_stream(const options& opt, report& r);
void run_dispatch_amoc(const options& opt, report& r);
void run_check_por(const options& opt, report& r);

}  // namespace e2e
