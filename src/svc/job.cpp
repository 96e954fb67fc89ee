#include "svc/job.hpp"

#include <unordered_map>

#include "svc/cli.hpp"
#include "util/fileio.hpp"
#include "util/parse.hpp"

namespace amo::svc {

std::string to_line(const job& j) {
  std::string out;
  for (const std::string& name : j.scenarios) {
    if (!out.empty()) out += ' ';
    out += name;
  }
  cli_options opt;
  opt.knobs = j;
  std::string value;
  for (const option_spec& o : option_table()) {
    if (o.key.empty() || !o.get(opt, o.kind, value)) continue;
    out += ' ';
    out += o.key;
    if (o.kind != value_kind::flag) out += "=" + value;
  }
  return out;
}

bool parse_job_line(std::string_view text, usize line_no, job& out,
                    bool& has_job, std::string& error) {
  cli_options opt;
  job& j = opt.knobs;
  j.line = line_no;
  has_job = false;
  bool any_token = false;

  const bool scanned = for_each_token(text, [&](std::string_view tok) {
    any_token = true;
    const usize eq = tok.find('=');
    if (eq == std::string_view::npos) {
      const option_spec* o = find_key(tok);
      if (o != nullptr && o->kind == value_kind::flag) {
        o->set(opt, o->kind, "");
      } else if (exp::find_scenario(tok) != nullptr) {
        j.scenarios.emplace_back(tok);
      } else {
        error = line_error(line_no, "unknown scenario or flag '" +
                                        std::string(tok) + "'");
        return false;
      }
      return true;
    }
    const std::string_view key = tok.substr(0, eq);
    const std::string_view value = tok.substr(eq + 1);
    const option_spec* o = find_key(key);
    if (o == nullptr || o->kind == value_kind::flag) {
      error = line_error(line_no, "unknown key '" + std::string(key) + "='");
      return false;
    }
    if (!o->set(opt, o->kind, value)) {
      error = line_error(line_no, bad_value(key, value, o->kind));
      return false;
    }
    return true;
  });
  if (!scanned) return false;

  if (j.scenarios.empty()) {
    // Nothing but whitespace/comments is a skip; options without a
    // scenario are a malformed job.
    if (!any_token) return true;
    error = line_error(line_no, "job names no scenario (see amo_lab list)");
    return false;
  }
  if (job_output_format(j) == exp::record_format::colfmt && j.out.empty()) {
    // The service streams results over a text FIFO; binary colfmt only
    // makes sense landing in a file.
    error = line_error(line_no,
                       "format=colfmt needs an out= file (the service "
                       "stream is JSON text)");
    return false;
  }
  out = std::move(j);
  has_job = true;
  return true;
}

job_parse_result parse_batch(std::string_view text) {
  job_parse_result out;
  std::unordered_map<std::string, usize> out_paths;  // path -> first line
  const bool parsed =
      for_each_line(text, [&](usize line_no, std::string_view line) {
        job j;
        bool has_job = false;
        if (!parse_job_line(line, line_no, j, has_job, out.error)) return false;
        if (!has_job) return true;
        if (!j.out.empty()) {
          const auto [it, fresh] = out_paths.emplace(j.out, line_no);
          if (!fresh) {
            out.error = line_error(
                line_no, "duplicate output path '" + j.out +
                             "' (first used on line " +
                             std::to_string(it->second) + ")");
            return false;
          }
        }
        out.jobs.push_back(std::move(j));
        return true;
      });
  if (!parsed) out.jobs.clear();
  return out;
}

job_parse_result parse_batch_file(const char* path) {
  job_parse_result out;
  std::string doc;
  if (!read_file(path, doc, out.error)) return out;
  out = parse_batch(doc);
  if (!out.ok()) out.error = std::string(path) + ": " + out.error;
  return out;
}

}  // namespace amo::svc
