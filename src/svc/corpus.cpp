#include "svc/corpus.hpp"

#include <cstdio>
#include <limits>

#include "sim/trace.hpp"
#include "util/fileio.hpp"
#include "util/parse.hpp"

namespace amo::svc {

namespace {

/// Applies the key=value tokens of a `spec` or `expect` line.
bool apply_fields(std::string_view rest, bool is_spec, corpus_entry& e,
                  usize line_no, std::string& error) {
  return for_each_token(rest, [&](std::string_view tok) {
    const usize eq = tok.find('=');
    if (eq == std::string_view::npos) {
      error = line_error(line_no, "expected key=value, got '" +
                                      std::string(tok) + "'");
      return false;
    }
    const std::string_view key = tok.substr(0, eq);
    const std::string_view value = tok.substr(eq + 1);

    if (is_spec && key == "algo") {
      if (!exp::from_string(value, e.spec.algo)) {
        error = line_error(line_no,
                           "unknown algo '" + std::string(value) + "'");
        return false;
      }
      return true;
    }
    if (is_spec && key == "free_set") {
      // FREE is always bitset_rank_set; the key stays so files keep parsing.
      if (value == "bitset") return true;
      error = line_error(line_no,
                         "unknown free_set '" + std::string(value) + "'");
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
        error = line_error(line_no,
                           "unknown spec key '" + std::string(key) + "='");
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
  });
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
  usize line_no = 0;
  usize pos = 0;
  while (pos <= doc.size() && out.ok()) {
    ++line_no;
    usize nl = doc.find('\n', pos);
    if (nl == std::string_view::npos) nl = doc.size();
    std::string_view line = doc.substr(pos, nl - pos);
    const bool last = nl == doc.size();
    pos = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    usize start = 0;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t')) {
      ++start;
    }
    line = line.substr(start);
    if (line.empty() || line.front() == '#') {
      if (last) break;
      continue;
    }

    if (line.rfind("spec", 0) == 0 &&
        (line.size() == 4 || line[4] == ' ' || line[4] == '\t')) {
      if (have_spec) {
        out.error = line_error(line_no, "second spec line");
        break;
      }
      have_spec = true;
      apply_fields(line.substr(4), /*is_spec=*/true, e, line_no, out.error);
    } else if (line.rfind("expect", 0) == 0 &&
               (line.size() == 6 || line[6] == ' ' || line[6] == '\t')) {
      e.has_expectations = true;
      apply_fields(line.substr(6), /*is_spec=*/false, e, line_no, out.error);
    } else if (line.rfind("trace", 0) == 0 &&
               (line.size() == 5 || line[5] == ' ' || line[5] == '\t')) {
      if (have_trace) {
        out.error = line_error(line_no, "second trace line");
        break;
      }
      const std::string_view body =
          line.size() > 5 ? line.substr(6) : std::string_view{};
      sim::trace t;
      if (!sim::trace::parse(body, t)) {
        out.error = line_error(line_no, "malformed trace");
        break;
      }
      have_trace = true;
      e.spec.adversary.name = "replay:" + std::string(body);
    } else {
      out.error = line_error(line_no, "expected spec/expect/trace/comment");
      break;
    }
    if (last) break;
  }

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
  for (usize pos = 0; pos < provenance.size();) {
    usize nl = provenance.find('\n', pos);
    if (nl == std::string::npos) nl = provenance.size();
    out += "# " + provenance.substr(pos, nl - pos) + "\n";
    pos = nl + 1;
  }
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
