#include "svc/corpus.hpp"

#include <cstdio>
#include <limits>

#include "sim/trace.hpp"
#include "util/fileio.hpp"
#include "util/parse.hpp"

namespace amo::svc {

namespace {

/// Applies one key=value token of a `spec` or `expect` line.
bool apply_field(std::string_view tok, bool is_spec, corpus_entry& e,
                 usize line_no, std::string& error) {
  const usize eq = tok.find('=');
  if (eq == std::string_view::npos) {
    error = line_error(line_no,
                       "expected key=value, got '" + std::string(tok) + "'");
    return false;
  }
  const std::string_view key = tok.substr(0, eq);
  const std::string_view value = tok.substr(eq + 1);

  if (is_spec && key == "algo") {
    if (!exp::from_string(value, e.spec.algo)) {
      error = line_error(line_no, "unknown algo '" + std::string(value) + "'");
      return false;
    }
    return true;
  }
  if (is_spec && key == "free_set") {
    // FREE is always bitset_rank_set; the key stays so files keep parsing.
    if (value == "bitset") return true;
    error =
        line_error(line_no, "unknown free_set '" + std::string(value) + "'");
    return false;
  }

  std::uint64_t v = 0;
  if (!parse_u64(value, v)) {
    error = line_error(line_no, "bad " + std::string(key) + "= value '" +
                                    std::string(value) + "'");
    return false;
  }
  if (is_spec) {
    if (key == "n") {
      e.spec.n = static_cast<usize>(v);
    } else if (key == "m") {
      e.spec.m = static_cast<usize>(v);
    } else if (key == "beta") {
      e.spec.beta = static_cast<usize>(v);
    } else if (key == "eps") {
      if (v > std::numeric_limits<unsigned>::max()) {
        error = line_error(line_no, "eps= out of range");
        return false;
      }
      e.spec.eps_inv = static_cast<unsigned>(v);
    } else if (key == "crash_budget") {
      e.spec.crash_budget = static_cast<usize>(v);
    } else {
      error =
          line_error(line_no, "unknown spec key '" + std::string(key) + "='");
      return false;
    }
  } else {
    if (key == "effectiveness") {
      e.expect_effectiveness = static_cast<usize>(v);
    } else if (key == "collisions") {
      e.expect_collisions = static_cast<usize>(v);
    } else if (key == "duplicates") {
      e.expect_duplicates = static_cast<usize>(v);
    } else if (key == "steps") {
      e.expect_steps = static_cast<usize>(v);
    } else if (key == "quiescent") {
      e.expect_quiescent = v != 0;
    } else {
      error = line_error(line_no,
                         "unknown expect key '" + std::string(key) + "='");
      return false;
    }
  }
  return true;
}

}  // namespace

corpus_load_result parse_corpus(std::string_view doc, std::string name) {
  corpus_load_result out;
  corpus_entry& e = out.entry;
  e.name = std::move(name);
  e.spec.label = "corpus/" + e.name;
  e.spec.driver = exp::driver_kind::scheduled;
  e.spec.memory = exp::memory_kind::sim;

  bool have_spec = false;
  bool have_trace = false;
  // Every line is tokens: the first names the line kind, the rest are
  // key=value fields (spec, expect) or trace events (trace).
  for_each_line(doc, [&](usize line_no, std::string_view line) {
    std::string_view keyword;
    std::string events;  // the trace line's events, one space apart
    const bool scanned = for_each_token(line, [&](std::string_view tok) {
      if (keyword.empty()) {
        keyword = tok;
        if (keyword == "spec") {
          if (have_spec) out.error = line_error(line_no, "second spec line");
          have_spec = true;
        } else if (keyword == "expect") {
          e.has_expectations = true;
        } else if (keyword == "trace") {
          if (have_trace) out.error = line_error(line_no, "second trace line");
          have_trace = true;
        } else {
          out.error = line_error(line_no, "expected spec/expect/trace/comment");
        }
        return out.ok();
      }
      if (keyword != "trace") {
        return apply_field(tok, keyword == "spec", e, line_no, out.error);
      }
      sim::trace ignored;
      if (!sim::trace::parse(tok, ignored)) {
        out.error = line_error(line_no, "malformed trace");
        return false;
      }
      if (!events.empty()) events += ' ';
      events += tok;
      return true;
    });
    if (scanned && keyword == "trace") {
      e.spec.adversary.name = "replay:" + events;
    }
    return scanned;
  });

  if (out.ok() && !have_spec) out.error = "missing spec line";
  if (out.ok() && !have_trace) out.error = "missing trace line";
  if (out.ok() && (e.spec.n == 0 || e.spec.m == 0)) {
    out.error = "spec line must set n= and m=";
  }
  return out;
}

corpus_load_result load_corpus_file(const char* path) {
  corpus_load_result out;
  std::string doc;
  if (!read_file(path, doc, out.error)) return out;

  // File stem: basename minus the last extension.
  std::string name = path;
  const usize slash = name.find_last_of('/');
  if (slash != std::string::npos) name.erase(0, slash + 1);
  const usize dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name.erase(dot);

  out = parse_corpus(doc, std::move(name));
  if (!out.ok()) out.error = std::string(path) + ": " + out.error;
  return out;
}

std::string render_corpus(const corpus_entry& e,
                          const std::string& provenance) {
  std::string out;
  for_each_line(provenance, [&out](usize, std::string_view line) {
    out += "# " + std::string(line) + "\n";
    return true;
  });
  char buf[192];
  std::snprintf(buf, sizeof buf, "spec algo=%s n=%zu m=%zu beta=%zu eps=%u "
                                 "crash_budget=%zu free_set=bitset\n",
                exp::to_string(e.spec.algo), e.spec.n, e.spec.m, e.spec.beta,
                e.spec.eps_inv, e.spec.crash_budget);
  out += buf;
  if (e.has_expectations) {
    std::snprintf(buf, sizeof buf,
                  "expect effectiveness=%zu collisions=%zu duplicates=%zu "
                  "steps=%zu quiescent=%d\n",
                  e.expect_effectiveness, e.expect_collisions,
                  e.expect_duplicates, e.expect_steps,
                  e.expect_quiescent ? 1 : 0);
    out += buf;
  }
  // The adversary name is "replay:<trace>"; strip the prefix back off.
  constexpr std::string_view kPrefix = "replay:";
  std::string trace = e.spec.adversary.name;
  if (trace.rfind(kPrefix, 0) == 0) trace.erase(0, kPrefix.size());
  out += "trace " + trace + "\n";
  return out;
}

bool check_expectations(const corpus_entry& e, const exp::run_report& r,
                        std::string& why) {
  if (!e.has_expectations) return true;
  const usize duplicates = r.perform_events - r.effectiveness;
  if (r.effectiveness != e.expect_effectiveness) {
    why = "effectiveness " + std::to_string(r.effectiveness) + " != expected " +
          std::to_string(e.expect_effectiveness);
  } else if (r.total_collisions != e.expect_collisions) {
    why = "collisions " + std::to_string(r.total_collisions) +
          " != expected " + std::to_string(e.expect_collisions);
  } else if (duplicates != e.expect_duplicates) {
    why = "duplicates " + std::to_string(duplicates) + " != expected " +
          std::to_string(e.expect_duplicates);
  } else if (e.expect_steps != 0 && r.total_steps != e.expect_steps) {
    why = "steps " + std::to_string(r.total_steps) + " != expected " +
          std::to_string(e.expect_steps);
  } else if (r.quiescent != e.expect_quiescent) {
    why = "quiescent " + std::string(r.quiescent ? "true" : "false") +
          " != expected " + (e.expect_quiescent ? "true" : "false");
  } else {
    return true;
  }
  return false;
}

}  // namespace amo::svc
