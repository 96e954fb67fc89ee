// serve_stream — svc::serve fed job lines over a pipe, as `amo_lab serve`
// reads them from a FIFO. Phase 1 is an open loop: independent submitters
// arrive as a seeded Poisson process at a fixed rate, and each job's latency
// runs from the moment it was due to the moment serve prints its completion
// line. Phase 2 is a series of bursts, each submitted at once, which measures
// how fast the service drains a backlog. Small jobs make per-job overhead (parse, expand,
// dispatch, render, encode, atomic write) and the scalar engine the bulk.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <istream>
#include <memory>
#include <mutex>
#include <thread>

#include "e2e.hpp"
#include "exp/colfmt.hpp"
#include "exp/registry.hpp"
#include "svc/fault.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"
#include "util/prng.hpp"

namespace e2e {

using namespace amo;

namespace {

/// The eight-job mix: the scalar families at n=16384 (one unit per cell,
/// two seed cells per job) and two batchable kk jobs at n=4096 x 8 replicas.
struct mix_entry {
  const char* scenario;
  usize n;
  usize replicas;
};
constexpr mix_entry kMix[] = {
    {"iterative/random+crash", 16384, 1}, {"iterative/round_robin", 16384, 1},
    {"wa/random+crash", 16384, 1},        {"baseline/tas", 16384, 1},
    {"baseline/wa_progress_tree", 16384, 1}, {"kk/announce_crash", 16384, 1},
    {"kk/random", 4096, 8},               {"kk/block4", 4096, 8},
};
constexpr usize kMixSize = sizeof kMix / sizeof kMix[0];

/// ~1/6 of the rate the mix drains at on 3 workers (~90 jobs/s). At 1/3
/// load, Poisson clusters pushed the median across the gap between job-size
/// modes and it moved by ~30% from seed to seed; bursts measure saturation.
constexpr double kRate = 15.0;

/// Share of a pass given to the open loop; bursts fill the rest.
constexpr double kOpenLoopShare = 0.7;

/// Jobs per burst: four rounds of the mix, ~0.4 s to drain, so even a short
/// pass holds several bursts to take the median of.
constexpr usize kBurstJobs = 4 * kMixSize;

/// Jobs per open-loop session: two rounds of the mix, ~1 s of arrivals. The
/// open loop is a series of sessions so that one the host stole from can be
/// left out (kMaxStolen) and another run in its place.
constexpr usize kSessionJobs = 2 * kMixSize;

/// Serve's set-up is its pool start. It is timed this many times before each
/// session and burst, so that its median spans the whole pass, as the other
/// timings do, rather than one moment of the host.
constexpr int kSetupSamples = 7;

void time_pool_starts(std::vector<double>& setup_s) {
  for (int i = 0; i < kSetupSamples; ++i) {
    const double t0 = now_s();
    const svc::worker_pool pool(kWorkers);
    setup_s.push_back(now_s() - t0);
  }
}

/// Job lines: every block of eight is one seeded shuffle of the mix, so each
/// job type appears equally often; every fourth job writes a .amoc file.
/// `kinds`, when given, receives each line's index into kMix.
std::vector<std::string> make_jobs(usize count, xoshiro256& rng,
                                   usize n_div, const std::string& dir,
                                   usize& serial,
                                   std::vector<usize>* kinds = nullptr) {
  std::vector<std::string> lines;
  std::vector<usize> order;
  for (usize i = 0; i < count; ++i) {
    if (order.empty()) {
      for (usize k = 0; k < kMixSize; ++k) order.push_back(k);
      shuffle(order, rng);
    }
    const mix_entry& e = kMix[order.back()];
    if (kinds != nullptr) kinds->push_back(order.back());
    order.pop_back();
    std::string line = std::string(e.scenario) +
                       " n=" + std::to_string(e.n / n_div) + " m=8 seed=" +
                       std::to_string(1 + rng.below(1u << 30)) +
                       " replicas=" + std::to_string(e.replicas) + " no-timing";
    if (serial % 4 == 3) {
      line += " out=" + dir + "/job" + std::to_string(serial) + ".amoc";
    }
    ++serial;
    lines.push_back(std::move(line));
  }
  return lines;
}

/// std::istream source over a pipe's read end.
class fd_reader : public std::streambuf {
 public:
  explicit fd_reader(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    ssize_t got = 0;
    do {
      got = ::read(fd_, buf_, sizeof buf_);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + got);
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  int fd_;
  char buf_[4096];
};

/// serve's log stream: each line is timestamped the moment it is printed,
/// and a completion line ("job @N ...: ... units on ...") marks job N done.
struct log_sink {
  std::mutex mu;
  std::string pending;
  std::vector<double> done;          ///< per job, absolute; 0 = not seen
  std::vector<std::string> others;   ///< every non-completion line
};

ssize_t log_write(void* cookie, const char* buf, size_t size) {
  const double t = now_s();
  auto* s = static_cast<log_sink*>(cookie);
  std::lock_guard<std::mutex> lk(s->mu);
  s->pending.append(buf, size);
  for (usize nl = s->pending.find('\n'); nl != std::string::npos;
       nl = s->pending.find('\n')) {
    const std::string line = s->pending.substr(0, nl);
    s->pending.erase(0, nl + 1);
    if (line.rfind("job @", 0) == 0 &&
        line.find(" units on ") != std::string::npos) {
      const usize job = std::strtoull(line.c_str() + 5, nullptr, 10);
      if (job >= 1 && job <= s->done.size()) s->done[job - 1] = t;
    } else {
      s->others.push_back(line);
    }
  }
  return static_cast<ssize_t>(size);
}

ssize_t append_write(void* cookie, const char* buf, size_t size) {
  static_cast<std::string*>(cookie)->append(buf, size);
  return static_cast<ssize_t>(size);
}

struct file_closer {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using file_ptr = std::unique_ptr<std::FILE, file_closer>;

std::chrono::steady_clock::time_point at(double s) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(s)));
}

struct session_out {
  svc::serve_summary sum;
  std::vector<double> sent;  ///< absolute time each line was written
  std::vector<double> done;  ///< absolute completion time; 0 = never
};

/// One svc::serve session: a generator thread writes line i to the pipe at
/// due[i] (absolute), serve drains it, and every output is gated.
session_out serve_session(svc::worker_pool& pool,
                          const std::vector<std::string>& lines,
                          const std::vector<double>& due, report& r) {
  session_out out;
  out.sent.assign(lines.size(), 0.0);
  log_sink log;
  log.done.assign(lines.size(), 0.0);
  std::string stream;
  {
    obs::span root(kCat, "rep");
    int fds[2];
    if (!r.check(::pipe(fds) == 0, "serve: cannot create a pipe")) return out;
    file_ptr log_file(
        fopencookie(&log, "w", {nullptr, log_write, nullptr, nullptr}));
    file_ptr stream_file(
        fopencookie(&stream, "w", {nullptr, append_write, nullptr, nullptr}));
    if (!r.check(log_file && stream_file, "serve: cannot open log streams")) {
      ::close(fds[0]);
      ::close(fds[1]);
      return out;
    }
    std::setvbuf(log_file.get(), nullptr, _IOLBF, 1 << 16);

    fd_reader reader(fds[0]);
    std::istream in(&reader);
    std::jthread generator([&, wfd = fds[1]] {
      for (usize i = 0; i < lines.size(); ++i) {
        std::this_thread::sleep_until(at(due[i]));
        const std::string l = lines[i] + "\n";
        for (usize off = 0; off < l.size();) {
          const ssize_t w = ::write(wfd, l.data() + off, l.size() - off);
          if (w < 0 && errno == EINTR) continue;
          if (w <= 0) break;
          off += static_cast<usize>(w);
        }
        out.sent[i] = now_s();
      }
      ::close(wfd);
    });
    svc::server_options sopt;
    sopt.stream = stream_file.get();
    sopt.log = log_file.get();
    {
      obs::span sp(kCat, "svc.serve");
      out.sum = svc::serve(in, pool, sopt);
    }
    generator.join();
    ::close(fds[0]);
  }
  out.done = log.done;

  // Gates: no rejected/failed/unsafe job, a completion line for each, and
  // every record (streamed JSON documents and .amoc files) within the
  // paper's bounds.
  const svc::serve_summary& s = out.sum;
  r.attempted += lines.size();
  r.check(s.rejected + s.failed + s.io_errors + s.unsafe == 0,
          "serve: " + std::to_string(s.rejected) + " rejected, " +
              std::to_string(s.failed) + " failed, " +
              std::to_string(s.io_errors) + " I/O errors, " +
              std::to_string(s.unsafe) + " unsafe" +
              (log.others.empty() ? "" : ": " + log.others.front()));
  usize streamed = 0;
  for (usize i = 0; i < lines.size(); ++i) {
    r.check(out.done[i] > 0.0, "serve: no completion line for job " +
                                   std::to_string(i + 1) + ": " + lines[i]);
    const usize at_out = lines[i].find(" out=");
    if (at_out == std::string::npos) {
      ++streamed;
      continue;
    }
    const std::string path = lines[i].substr(at_out + 5);
    const exp::parse_result parsed = exp::load_records_file(path.c_str());
    if (r.check(parsed.ok(), "serve: ", parsed.error)) {
      gate_records(parsed.records, r, path);
    }
    std::filesystem::remove(path);
  }
  usize docs = 0;
  for (usize pos = 0; pos < stream.size();) {
    const usize end = stream.find("\n]\n", pos);
    if (end == std::string::npos) break;
    const exp::parse_result parsed =
        exp::parse_records(std::string_view(stream).substr(pos, end + 3 - pos));
    if (r.check(parsed.ok(), "serve stream: ", parsed.error)) {
      gate_records(parsed.records, r, "serve stream");
    }
    ++docs;
    pos = end + 3;
  }
  r.check(docs == streamed, "serve: " + std::to_string(docs) +
                                " streamed documents for " +
                                std::to_string(streamed) + " jobs");
  return out;
}

struct pass_out {
  std::vector<double> latency_s;  ///< timed open loop: completion - due
  /// The same latencies by job type (index into kMix).
  std::vector<std::vector<double>> latency_by_kind;
  std::vector<double> burst_s;    ///< timed bursts: first due to last done
  std::vector<double> setup_s;    ///< pool starts (time_pool_starts)
  usize burst_jobs = 0;
  usize jobs = 0;
  usize open_sessions = 0;        ///< sessions run in the open loop
  double lag_max_s = 0.0;         ///< how late the generator wrote a line
};

pass_out run_pass(svc::worker_pool& pool, double seconds, bool smoke,
                  xoshiro256& rng, const std::string& dir, usize& serial,
                  report& r) {
  pass_out p;
  const usize n_div = smoke ? 16 : 1;
  p.burst_jobs = smoke ? 16 : kBurstJobs;

  // Phase 1: the open loop, one session at a time until enough sessions
  // ran clear of host steal.
  const double open_s = seconds * kOpenLoopShare;
  const usize want = std::max<usize>(
      1, static_cast<usize>(std::lround(kRate * open_s / kSessionJobs)));
  std::vector<std::vector<std::pair<usize, double>>> sessions;  // kind, s
  std::vector<double> stolen;
  double start = now_s();
  do {
    std::vector<usize> kinds;
    const std::vector<std::string> lines =
        make_jobs(kSessionJobs, rng, n_div, dir, serial, &kinds);
    time_pool_starts(p.setup_s);
    std::vector<double> due(lines.size());
    double t = now_s() + 0.05;
    for (double& d : due) {
      t += -std::log1p(-rng.unit()) / kRate;
      d = t;
    }
    const cpu_ticks c0 = read_cpu_ticks();
    const session_out open = serve_session(pool, lines, due, r);
    stolen.push_back(stolen_share(c0, read_cpu_ticks()));
    sessions.emplace_back();
    for (usize i = 0; i < lines.size(); ++i) {
      if (open.done[i] > 0.0) {
        sessions.back().emplace_back(kinds[i], open.done[i] - due[i]);
      }
      p.lag_max_s = std::max(p.lag_max_s, open.sent[i] - due[i]);
    }
    p.jobs += lines.size();
  } while (!pass_done(start, open_s, stolen, want));
  p.open_sessions = sessions.size();
  p.latency_by_kind.resize(kMixSize);
  for (const usize i : timed_reps(stolen, r, want)) {
    for (const auto& [kind, latency] : sessions[i]) {
      p.latency_s.push_back(latency);
      p.latency_by_kind[kind].push_back(latency);
    }
  }

  // Phase 2: bursts for the rest of the pass.
  std::vector<double> bursts;
  stolen.clear();
  start = now_s();
  do {
    const std::vector<std::string> burst =
        make_jobs(p.burst_jobs, rng, n_div, dir, serial);
    time_pool_starts(p.setup_s);
    const cpu_ticks c0 = read_cpu_ticks();
    const double t0 = now_s();
    const session_out b =
        serve_session(pool, burst, std::vector<double>(burst.size(), t0), r);
    double last = t0;
    for (double d : b.done) last = std::max(last, d);
    bursts.push_back(last - t0);
    stolen.push_back(stolen_share(c0, read_cpu_ticks()));
    p.jobs += burst.size();
  } while (!pass_done(start, seconds - open_s, stolen));
  p.burst_s = pick(bursts, timed_reps(stolen, r));
  return p;
}

}  // namespace

void run_serve_stream(const options& opt, report& r) {
  const std::string dir = opt.workdir + "/serve";
  make_dirs(dir);
  xoshiro256 rng(opt.seed);
  usize serial = 0;

  const double untraced_s = opt.traced ? opt.seconds / 2 : opt.seconds;
  pass_out base;
  {
    svc::worker_pool pool(kWorkers);
    base = run_pass(pool, untraced_s, opt.smoke, rng, dir, serial, r);
  }
  // The mix's job types differ in size by 40x, so the median over all jobs
  // sits in the gap between two of them and moves with the seed's arrival
  // clusters. The mean of the per-type medians weighs each type equally and
  // holds still.
  double type_latency_s = 0.0;
  for (const std::vector<double>& v : base.latency_by_kind) {
    type_latency_s += median(v) / static_cast<double>(kMixSize);
  }
  const double burst = median(base.burst_s);
  r.end_to_end("latency_ms", type_latency_s * 1e3, "ms");
  r.end_to_end("throughput_per_s", static_cast<double>(base.burst_jobs) / burst,
               "1/s");
  r.end_to_end("setup_s", median(base.setup_s), "s");
  r.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  if (!opt.traced) return;

  trace_fold f;
  pass_out traced;
  {
    obs::session session(kRingCapacity);
    svc::worker_pool traced_pool(kWorkers);
    traced = run_pass(traced_pool, opt.seconds / 2, opt.smoke, rng, dir,
                      serial, r);
    std::string error;
    r.check(fold_session(session.sink(), opt.trace_out, f, error),
            "trace export: ", error);
  }

  // Decomposition: the layers inside svc::serve's job span, called directly
  // on two rounds of the mix (outside the traced session).
  std::vector<double> expand_ms, render_ms, encode_ms, write_ms;
  {
    svc::worker_pool dpool(kWorkers);
    const std::vector<std::string> lines =
        make_jobs(2 * kMixSize, rng, opt.smoke ? 16 : 1, dir, serial);
    for (usize i = 0; i < lines.size(); ++i) {
      svc::job j;
      bool has_job = false;
      std::string error;
      if (!r.check(svc::parse_job_line(lines[i], i + 1, j, has_job, error),
                   "decomposition: ", error)) {
        continue;
      }
      double t0 = now_s();
      for (const std::string& name : j.scenarios) {
        (void)exp::scenario_cells(name, j.params);
      }
      expand_ms.push_back((now_s() - t0) * 1e3);
      const svc::job_result res = svc::execute_job(j, dpool);
      r.attempted += 1;
      if (!r.check(res.ok(), "decomposition: ", res.error)) continue;
      for (const exp::run_report& rep : res.runs()) {
        std::string why;
        r.check(report_ok(rep, why), "serve decomposition: ", why);
      }
      t0 = now_s();
      const std::string json = res.render_json();
      const double json_s = now_s() - t0;
      render_ms.push_back(json_s * 1e3);
      std::string amoc;
      t0 = now_s();
      r.check(res.render_output(exp::record_format::colfmt, amoc, error),
              "decomposition encode: ", error);
      encode_ms.push_back((now_s() - t0 - json_s) * 1e3);
      const std::string path = dir + "/decomposed.amoc";
      t0 = now_s();
      r.check(svc::write_artifact(path.c_str(), amoc, 0, error),
              "decomposition write: ", error);
      write_ms.push_back((now_s() - t0) * 1e3);
      std::filesystem::remove(path);
    }
  }

  const auto jobs = static_cast<double>(traced.jobs);
  const double block_s = f.total_s("sweep", "replica_block");
  const double unit_s = f.total_s("sweep", "unit");
  const double slots_s = f.weighted_s("pool", "batch", "workers");
  const obs::stage_stats* parse = f.stage("svc", "parse_job");
  r.layer("svc.job.parse_ms_p50", parse == nullptr ? 0.0 : parse->p50_us / 1e3,
          "ms");
  r.layer("exp.registry.expand_ms_p50", median(expand_ms), "ms");
  r.layer("exp.engine.unit_busy_s", unit_s / jobs, "s");
  r.layer("exp.batch.block_busy_s", block_s / jobs, "s");
  r.layer("svc.worker_pool.busy_share",
          slots_s > 0 ? (unit_s + block_s) / slots_s : 0.0, "ratio");
  r.layer("exp.record.render_ms_p50", median(render_ms), "ms");
  r.layer("exp.colfmt.encode_ms_p50", median(encode_ms), "ms");
  r.layer("svc.write_artifact_ms_p50", median(write_ms), "ms");
  // Queue wait in the open loop (the first sessions); bursts queue by design.
  const std::vector<std::pair<double, double>> sessions = f.reps();
  std::vector<double> waits;
  for (usize i = 0; i < traced.open_sessions && i < sessions.size(); ++i) {
    for (const double w : f.counter_samples("svc", "queue_seconds",
                                            sessions[i].first,
                                            sessions[i].second)) {
      waits.push_back(w);
    }
  }
  r.layer("svc.job_queue.wait_ms_p95", quantile(waits, 0.95) * 1e3, "ms");
  r.layer("svc.serve.job_latency_p95_ms", quantile(base.latency_s, 0.95) * 1e3,
          "ms");
  r.layer("gen.lag_ms_max", std::max(base.lag_max_s, traced.lag_max_s) * 1e3,
          "ms");
  add_trace_health(r, f, burst, median(traced.burst_s));
}

}  // namespace e2e
