// Shared helpers for the table-style benches: consistent headers, ratio
// formatting, the shared JSON emitter so the perf trajectory can be
// tracked across PRs alongside the human-readable tables, and a forked
// child for peak-memory probes.
//
// The JSON emitter is exp::json_writer (src/exp/report.hpp) — the single
// escaping-correct implementation the experiment engine, amo_lab and all
// benches share; `benchx::json_report` is an alias kept for existing call
// sites.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "exp/report.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace amo::benchx {

using json_report = exp::json_writer;

inline void print_title(const char* experiment, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("%s\n", claim);
  std::printf("================================================================\n");
}

inline void print_table(const text_table& t) {
  std::fputs(t.render().c_str(), stdout);
}

inline std::string ratio(double measured, double reference) {
  if (reference == 0.0) return "-";
  return fmt(measured / reference, 3);
}

inline std::string yesno(bool b) { return b ? "yes" : "NO"; }

/// Runs `body` in a forked child and returns what it returned, or "" when
/// the child failed. The caller must hold no threads. The child's VmHWM
/// starts at the resident set it inherits, so a child that reads
/// status_mb("VmHWM:") minus its starting status_mb("VmRSS:") measures the
/// peak that `body` alone added.
inline std::string in_child(const std::function<std::string()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {};
  }
  if (pid == 0) {
    ::close(fds[0]);
    const std::string out = body();
    usize sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::write(fds[1], out.data() + sent, out.size() - sent);
      if (n <= 0) ::_exit(1);
      sent += static_cast<usize>(n);
    }
    ::_exit(out.empty() ? 1 : 0);
  }
  ::close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<usize>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? out : std::string();
}

/// A kB line of /proc/self/status ("VmHWM:" the peak resident set,
/// "VmRSS:" the current one), in MB; 0 when unreadable.
inline double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024;
    }
  }
  return 0.0;
}

}  // namespace amo::benchx
