// amo_e2e — the end-to-end benchmark: the four canonical libamo workloads
// run through the public calls amo_lab makes, timed from outside, with every
// output checked against the paper's claims. See README.md.
//
//   amo_e2e --workload=NAME --seed=S [--seconds=T] [--traced]
//           [--trace-out=FILE] [--out=FILE] [--workdir=DIR]
//       Runs one workload for T seconds (default 10). --traced halves the
//       untraced pass and adds a traced pass plus a decomposition pass; it
//       reports the per-layer metrics and writes a Perfetto-loadable trace
//       to FILE (default <workload>.trace.json).
//   amo_e2e --smoke [--workdir=DIR]
//       Every workload at tiny sizes, traced, with every gate: the ctest.
//
// Prints one `name value unit` line per metric. --out writes flat JSON
// records (exp::load_records_file reads them): one "host" record, one
// "metric" record per metric, one "failure" record per failed check.
// Artifacts go to a fresh directory under DIR (default ./e2e-work), removed
// on exit.
//
// Exit status: 0 = every check passed; 1 = a check failed; 2 = usage error,
// or a build without NDEBUG (timing a debug build is refused).
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "e2e.hpp"
#include "exp/report.hpp"

namespace {

using namespace e2e;
using amo::exp::json_writer;

struct workload {
  const char* name;
  void (*run)(const options&, report&);
};
constexpr workload kWorkloads[] = {
    {"sweep_lanes", run_sweep_lanes},
    {"serve_stream", run_serve_stream},
    {"dispatch_amoc", run_dispatch_amoc},
    {"check_por", run_check_por},
};

std::string filesystem_of(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// Host and build record: what a number was measured on.
std::vector<std::pair<std::string, std::string>> host_fields(
    const std::string& workdir) {
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
#if defined(__BMI2__)
  const bool bmi2 = true;
#else
  const bool bmi2 = false;
#endif
#if defined(__AVX2__)
  const bool avx2 = true;
#else
  const bool avx2 = false;
#endif
  return {
      {"host.cores", json_writer::num(static_cast<std::uint64_t>(cores))},
      {"host.low_cores", json_writer::boolean(cores < 4)},
      {"pool_workers", json_writer::num(std::uint64_t{kWorkers})},
      {"isa.bmi2", json_writer::boolean(bmi2)},
      {"isa.avx2", json_writer::boolean(avx2)},
      {"compiler", json_writer::str(__VERSION__)},
      {"ndebug", json_writer::boolean(true)},
      {"workdir_fs", json_writer::str(filesystem_of(workdir))},
  };
}

bool flag_value(const char* arg, const char* key, std::string& value) {
  const std::size_t len = std::strlen(key);
  if (std::strncmp(arg, key, len) != 0 || arg[len] != '=') return false;
  value = arg + len + 1;
  return true;
}

int usage() {
  std::fputs(
      "usage: amo_e2e --workload=NAME --seed=S [--seconds=T] [--traced]\n"
      "               [--trace-out=FILE] [--out=FILE] [--workdir=DIR]\n"
      "       amo_e2e --smoke [--workdir=DIR]\n"
      "workloads: sweep_lanes serve_stream dispatch_amoc check_por\n",
      stderr);
  return 2;
}

/// Runs one workload in a fresh work directory; returns its report.
report run_one(const workload& w, options opt, const std::string& root) {
  report r;
  opt.workdir = root + "/" + w.name;
  make_dirs(opt.workdir);
  try {
    w.run(opt, r);
  } catch (const std::exception& e) {
    r.check(false, std::string(w.name) + " threw: " + e.what());
  }
  for (metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.check(false, "metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  return r;
}

void print(const report& r) {
  for (const metric& m : r.metrics) {
    std::printf("%-36s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  if (r.reps_stolen > 0) {
    std::fprintf(stderr,
                 "note: %zu of %zu repetitions not timed: the host stole over "
                 "%.0f%% of their busy CPU time\n",
                 r.reps_stolen, r.reps_stolen + r.reps_timed, kMaxStolen * 100);
  }
}

int smoke(const std::string& root) {
  bool ok = true;
  for (const workload& w : kWorkloads) {
    options opt;
    opt.seconds = 0.2;
    opt.traced = true;
    opt.smoke = true;
    opt.trace_out = root + "/" + w.name + ".trace.json";
    const report r = run_one(w, opt, root);
    std::printf("== %s: %zu attempted, %zu failed\n", w.name, r.attempted,
                r.failed);
    print(r);
    ok = ok && r.failed == 0 && r.attempted > 0;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG)
  std::fputs("amo_e2e: built without NDEBUG; refusing to time a debug build "
             "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
             stderr);
  return 2;
#endif
  options opt;
  std::string name;
  std::string out;
  std::string workdir = "e2e-work";
  bool run_smoke = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    char* end = nullptr;
    if (flag_value(a, "--workload", v)) {
      name = v;
    } else if (flag_value(a, "--seed", v)) {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage();
      have_seed = true;
    } else if (flag_value(a, "--seconds", v)) {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0)) return usage();
    } else if (std::strcmp(a, "--traced") == 0) {
      opt.traced = true;
    } else if (flag_value(a, "--trace-out", v)) {
      opt.trace_out = v;
    } else if (flag_value(a, "--out", v)) {
      out = v;
    } else if (flag_value(a, "--workdir", v)) {
      workdir = v;
    } else if (std::strcmp(a, "--smoke") == 0) {
      run_smoke = true;
    } else {
      return usage();
    }
  }

  // A fault plan inherited from the environment would turn the benchmark
  // into a chaos run; the dispatcher scrubs it for the children already.
  ::unsetenv("AMO_FAULT");
  ::unsetenv("AMO_FAULT_ATTEMPT");
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (cores < 4) {
    std::fprintf(stderr,
                 "amo_e2e: warning: %ld cores; the workloads are sized for 4 "
                 "(%zu pool workers + the benchmark's own threads)\n",
                 cores, kWorkers);
  }

  const std::string root = workdir + "/run-" + std::to_string(::getpid());
  make_dirs(root);
  int rc = 0;
  if (run_smoke) {
    rc = smoke(root);
  } else {
    const workload* w = nullptr;
    for (const workload& k : kWorkloads) {
      if (name == k.name) w = &k;
    }
    if (w == nullptr || !have_seed) {
      std::filesystem::remove_all(root);
      return usage();
    }
    if (opt.traced && opt.trace_out.empty()) {
      opt.trace_out = name + ".trace.json";
    }
    const report r = run_one(*w, opt, root);
    print(r);
    if (!out.empty()) {
      json_writer json;
      std::vector<std::pair<std::string, std::string>> head = {
          {"record", json_writer::str("host")},
          {"workload", json_writer::str(name)},
          {"seed", json_writer::num(opt.seed)},
          {"seconds", json_writer::num(opt.seconds)},
          {"traced", json_writer::boolean(opt.traced)},
          {"correct", json_writer::boolean(r.failed == 0)},
          {"attempted", json_writer::num(std::uint64_t{r.attempted})},
          {"failed", json_writer::num(std::uint64_t{r.failed})},
          {"reps_timed", json_writer::num(std::uint64_t{r.reps_timed})},
          {"reps_stolen", json_writer::num(std::uint64_t{r.reps_stolen})},
      };
      for (auto& f : host_fields(root)) head.push_back(std::move(f));
      json.add(head);
      for (const metric& m : r.metrics) {
        json.add({{"record", json_writer::str("metric")},
                  {"name", json_writer::str(m.name)},
                  {"value", json_writer::num(m.value)},
                  {"unit", json_writer::str(m.unit)},
                  {"kind", json_writer::str(m.layer ? "per_layer"
                                                     : "end_to_end")}});
      }
      for (const std::string& f : r.failures) {
        json.add({{"record", json_writer::str("failure")},
                  {"what", json_writer::str(f)}});
      }
      if (!json.write(out.c_str())) {
        std::fprintf(stderr, "amo_e2e: cannot write %s\n", out.c_str());
        rc = 1;
      }
    }
    if (r.failed != 0) rc = 1;
  }
  std::filesystem::remove_all(root);
  return rc;
}
