// Shared helpers for the table-style benches: consistent headers, ratio
// formatting, and the shared JSON emitter so the perf trajectory can be
// tracked across PRs alongside the human-readable tables.
//
// The JSON emitter is exp::json_writer (src/exp/report.hpp) — the single
// escaping-correct implementation the experiment engine, amo_lab and all
// benches share; `benchx::json_report` is an alias kept for existing call
// sites.
#pragma once

#include <cstdio>
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

}  // namespace amo::benchx
