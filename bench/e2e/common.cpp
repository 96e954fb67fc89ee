#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <tuple>

#include "analysis/bounds.hpp"
#include "e2e.hpp"
#include "util/fileio.hpp"

namespace e2e {

using namespace amo;

void report::end_to_end(const char* name, double value, const char* unit) {
  metrics.push_back({name, value, unit, false});
}

void report::layer(const char* name, double value, const char* unit) {
  metrics.push_back({name, value, unit, true});
}

bool report::check(bool ok, const std::string& what) {
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
  return ok;
}

bool report::check(bool ok, const char* what, const std::string& detail) {
  return ok || check(false, what + detail);
}

void report::same_count(const char* name, double untraced, double traced) {
  check(untraced == traced,
        std::string(name) + ": traced run counted " + std::to_string(traced) +
            ", untraced " + std::to_string(untraced));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<usize>(pos);
  const usize hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  // VmHWM, not RUSAGE_SELF: ru_maxrss survives exec, so it would report
  // the launching process's peak whenever that one was larger. A child's
  // inherited share is at most this process's size at fork, which VmHWM
  // already bounds, so RUSAGE_CHILDREN adds only the children's own peaks.
  long self_kb = 0;
  const std::string status = slurp("/proc/self/status");
  const usize at = status.find("VmHWM:");
  if (at != std::string::npos) {
    self_kb = std::strtol(status.c_str() + at + 6, nullptr, 10);
  }
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

cpu_ticks read_cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  const std::string stat = slurp("/proc/stat");
  if (stat.rfind("cpu ", 0) != 0) return {};
  double v[8] = {};
  const char* p = stat.c_str() + 4;
  for (double& x : v) {
    char* end = nullptr;
    x = std::strtod(p, &end);
    p = end;
  }
  return {v[7], v[0] + v[1] + v[2] + v[5] + v[6] + v[7]};
}

double stolen_share(const cpu_ticks& from, const cpu_ticks& to) {
  const double busy = to.busy - from.busy;
  return busy > 0.0 ? (to.steal - from.steal) / busy : 0.0;
}

bool pass_done(double start, double seconds, const std::vector<double>& stolen,
               usize min_clean) {
  const double elapsed = now_s() - start;
  const auto clean = static_cast<usize>(std::count_if(
      stolen.begin(), stolen.end(), [](double s) { return s <= kMaxStolen; }));
  return (elapsed >= seconds && clean >= min_clean) ||
         elapsed >= kMaxStretch * seconds;
}

std::vector<usize> timed_reps(const std::vector<double>& stolen, report& r,
                              usize min_timed) {
  std::vector<usize> order(stolen.size());
  for (usize i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](usize a, usize b) { return stolen[a] < stolen[b]; });
  usize keep = 0;
  while (keep < order.size() &&
         (stolen[order[keep]] <= kMaxStolen || keep < min_timed)) {
    ++keep;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  r.reps_timed += keep;
  r.reps_stolen += stolen.size() - keep;
  return order;
}

std::vector<double> pick(const std::vector<double>& v,
                         const std::vector<usize>& at) {
  std::vector<double> out;
  out.reserve(at.size());
  for (const usize i : at) out.push_back(v[i]);
  return out;
}

bool report_ok(const exp::run_report& r, std::string& why) {
  const std::string tag =
      r.label + " " + r.adversary + " seed " + std::to_string(r.seed);
  if (!r.at_most_once) {
    why = tag + ": job " + std::to_string(r.duplicate) + " performed twice";
    return false;
  }
  const usize beta = r.beta == 0 ? r.m : r.beta;
  if (r.algo == exp::algo_family::kk && r.quiescent && beta >= r.m) {
    const usize bound = bounds::kk_min_jobs_at_quiescence(r.n, r.m, beta);
    if (r.effectiveness < bound) {
      why = tag + ": effectiveness " + std::to_string(r.effectiveness) +
            " < Lemma 4.2 bound " + std::to_string(bound);
      return false;
    }
  }
  return true;
}

bool record_ok(const exp::record& rec, std::string& why) {
  const auto text = [&](const char* key) -> std::string {
    const exp::record_field* f = rec.find(key);
    return f == nullptr ? std::string("?") : f->raw;
  };
  const auto number = [&](const char* key) -> double {
    const exp::record_field* f = rec.find(key);
    return f != nullptr && f->type == exp::record_field::kind::number
               ? f->number
               : -1.0;
  };
  const auto truth = [&](const char* key) {
    const exp::record_field* f = rec.find(key);
    return f != nullptr && f->type == exp::record_field::kind::boolean &&
           f->truth;
  };
  const std::string tag = text("scenario") + " " + text("adversary") +
                          " seed " + text("seed");
  if (!truth("at_most_once")) {
    why = tag + ": at_most_once is not true";
    return false;
  }
  const exp::record_field* algo = rec.find("algo");
  const double n = number("n");
  const double m = number("m");
  const double beta = number("beta");
  if (algo != nullptr && algo->text == "kk" && truth("quiescent") && m > 0 &&
      beta >= m) {
    // A cell aggregate's effectiveness is its base replica's draw; the
    // replica minimum is what Lemma 4.2 must bound.
    const double eff = rec.find("effectiveness_min") != nullptr
                           ? number("effectiveness_min")
                           : number("effectiveness");
    const auto bound = static_cast<double>(bounds::kk_min_jobs_at_quiescence(
        static_cast<usize>(n), static_cast<usize>(m), static_cast<usize>(beta)));
    if (eff < bound) {
      why = tag + ": effectiveness " + std::to_string(eff) +
            " < Lemma 4.2 bound " + std::to_string(bound);
      return false;
    }
  }
  return true;
}

void gate_records(const std::vector<exp::record>& records, report& r,
                  const std::string& where) {
  for (const exp::record& rec : records) {
    std::string why;
    if (!record_ok(rec, why)) r.check(false, where + ": " + why);
  }
}

std::string slurp(const std::string& path) {
  std::string out;
  std::string error;
  if (!read_file(path.c_str(), out, error)) out.clear();
  return out;
}

void make_dirs(const std::string& path) {
  std::filesystem::create_directories(path);
}

// ---- trace fold ----------------------------------------------------------

namespace {

bool is(const obs::trace_event& e, const char* cat, const char* name) {
  return e.ph == 'X' && e.cat == cat && e.name == name;
}

}  // namespace

const obs::stage_stats* trace_fold::stage(const char* cat,
                                          const char* name) const {
  for (const obs::stage_stats& s : summary.stages) {
    if (s.cat == cat && s.name == name) return &s;
  }
  return nullptr;
}

double trace_fold::total_s(const char* cat, const char* name) const {
  const obs::stage_stats* s = stage(cat, name);
  return s == nullptr ? 0.0 : s->total_us / 1e6;
}

std::vector<double> trace_fold::durations_s(const char* cat,
                                            const char* name) const {
  std::vector<double> out;
  for (const obs::trace_event& e : events) {
    if (is(e, cat, name)) out.push_back(e.dur_us / 1e6);
  }
  return out;
}

double trace_fold::weighted_s(const char* cat, const char* name,
                              const char* arg) const {
  double total = 0.0;
  for (const obs::trace_event& e : events) {
    if (!is(e, cat, name)) continue;
    double weight = 1.0;
    for (const auto& [key, value] : e.args) {
      if (key == arg) weight = std::strtod(value.c_str(), nullptr);
    }
    total += e.dur_us / 1e6 * weight;
  }
  return total;
}

std::vector<double> trace_fold::counter_samples(const char* cat,
                                                const char* name,
                                                double from_us,
                                                double to_us) const {
  std::vector<double> out;
  for (const obs::trace_event& e : events) {
    if (e.ph == 'C' && e.cat == cat && e.name == name && e.ts_us >= from_us &&
        e.ts_us <= to_us) {
      out.push_back(e.counter_value);
    }
  }
  return out;
}

std::vector<std::pair<double, double>> trace_fold::reps() const {
  std::vector<std::pair<double, double>> out;
  for (const obs::trace_event& e : events) {
    if (is(e, kCat, "rep")) out.emplace_back(e.ts_us, e.ts_us + e.dur_us);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double trace_fold::counter_thread_total(const char* cat,
                                        const char* name) const {
  std::map<std::pair<int, int>, double> per_thread;
  for (const obs::trace_event& e : events) {
    if (e.ph != 'C' || e.cat != cat || e.name != name) continue;
    double& v = per_thread[{e.pid, e.tid}];
    v = std::max(v, e.counter_value);
  }
  double total = 0.0;
  for (const auto& [thread, v] : per_thread) total += v;
  return total;
}

double trace_fold::unattributed_share() const {
  double wall = 0.0;
  double uncovered = 0.0;
  for (usize i = 0; i < events.size(); ++i) {
    if (!is(events[i], kCat, "rep")) continue;
    wall += events[i].dur_us;
    uncovered += self_us[i];
  }
  return wall > 0.0 ? uncovered / wall : 0.0;
}

bool fold_session(obs::telemetry& sink, const std::string& path,
                  trace_fold& out, std::string& error) {
  obs::export_options eo;
  eo.process_name = "amo_e2e";
  if (!obs::export_file(sink, path.c_str(), eo, error)) return false;
  obs::trace_parse_result parsed = obs::parse_trace_file(path.c_str());
  if (!parsed.ok()) {
    error = parsed.error;
    return false;
  }
  out.events = std::move(parsed.events);
  out.dropped = parsed.dropped;
  out.summary = obs::summarize_trace(out.events, out.dropped);

  // Self time: walk each thread's spans in start order (outer first on
  // ties) with a stack of open ancestors; a span's time is charged away
  // from its innermost enclosing span.
  const std::vector<obs::trace_event>& ev = out.events;
  out.self_us.assign(ev.size(), 0.0);
  std::vector<usize> spans;
  for (usize i = 0; i < ev.size(); ++i) {
    if (ev[i].ph == 'X') {
      spans.push_back(i);
      out.self_us[i] = ev[i].dur_us;
    }
  }
  std::sort(spans.begin(), spans.end(), [&](usize a, usize b) {
    return std::make_tuple(ev[a].pid, ev[a].tid, ev[a].ts_us, -ev[a].dur_us) <
           std::make_tuple(ev[b].pid, ev[b].tid, ev[b].ts_us, -ev[b].dur_us);
  });
  std::vector<usize> open;
  for (usize k = 0; k < spans.size(); ++k) {
    const obs::trace_event& s = ev[spans[k]];
    if (k > 0 && (ev[spans[k - 1]].pid != s.pid ||
                  ev[spans[k - 1]].tid != s.tid)) {
      open.clear();
    }
    while (!open.empty() &&
           ev[open.back()].ts_us + ev[open.back()].dur_us <= s.ts_us) {
      open.pop_back();
    }
    if (!open.empty()) {
      const obs::trace_event& parent = ev[open.back()];
      const double end =
          std::min(s.ts_us + s.dur_us, parent.ts_us + parent.dur_us);
      out.self_us[open.back()] -= std::max(0.0, end - s.ts_us);
    }
    open.push_back(spans[k]);
  }
  return true;
}

void add_trace_health(report& r, const trace_fold& f, double untraced_op_s,
                      double traced_op_s) {
  r.layer("unattributed_share", f.unattributed_share(), "ratio");
  r.layer("obs.trace_overhead",
          untraced_op_s > 0.0 ? traced_op_s / untraced_op_s - 1.0 : 0.0,
          "ratio");
  r.layer("obs.dropped_events", static_cast<double>(f.dropped), "count");
  r.check(f.dropped == 0, "trace dropped " + std::to_string(f.dropped) +
                              " events: telemetry lost spans");
}

}  // namespace e2e
