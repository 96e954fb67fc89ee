// svc::corpus — the persisted regression corpus of interesting recorded
// traces (ROADMAP: "first duplicate ever found, worst collision ratios").
//
// A corpus file pins one execution forever: the spec that produced it, the
// exact adversary decision sequence (sim::trace serialization), and the
// metrics the replay must reproduce. Replays go through the same
// "replay:<trace>" adversary the kk/trace_replay scenario uses, so the
// corpus exercises the production replay path, not a parallel one.
// tests/test_trace_corpus.cpp replays every committed file in CI.
//
// File format (text, line-oriented): every line is whitespace-separated
// tokens (util/parse's for_each_token: spaces or tabs, and a token starting
// with '#' comments out the rest of the line). The first token names the
// line kind.
//
//   # provenance...
//   spec algo=kk n=256 m=4 beta=4 crash_budget=3
//   expect effectiveness=249 collisions=9 duplicates=0 steps=4242 quiescent=1
//   trace s1 s2 c3 ...
//
// `spec` keys: algo (to_string(algo_family) names), n, m, beta, eps,
// crash_budget, free_set (only `bitset`, the one FREE set). `expect` keys:
// effectiveness, collisions, duplicates (perform_events - effectiveness),
// steps, quiescent (0/1).
// Exactly one spec and one trace line per file; expect is optional but
// every committed file carries it.
#pragma once

#include <string>
#include <vector>

#include "exp/spec.hpp"

namespace amo::svc {

struct corpus_entry {
  std::string name;    ///< file stem, echoed into spec.label
  exp::run_spec spec;  ///< scheduled × sim, adversary = replay:<trace>

  bool has_expectations = false;
  usize expect_effectiveness = 0;
  usize expect_collisions = 0;
  usize expect_duplicates = 0;
  usize expect_steps = 0;
  bool expect_quiescent = true;
};

struct corpus_load_result {
  corpus_entry entry;
  std::string error;  ///< empty on success, else "line N: why"

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses one corpus document (`name` seeds entry.name / spec.label).
corpus_load_result parse_corpus(std::string_view doc, std::string name);

/// Reads + parses one .trace corpus file.
corpus_load_result load_corpus_file(const char* path);

/// Renders an entry in the file format (the writer gen_corpus uses);
/// parse_corpus inverts it.
[[nodiscard]] std::string render_corpus(const corpus_entry& e,
                                        const std::string& provenance);

/// True iff a replayed report matches the entry's expectations (always
/// true for an entry without them). `why` explains the first mismatch.
bool check_expectations(const corpus_entry& e, const exp::run_report& r,
                        std::string& why);

}  // namespace amo::svc
