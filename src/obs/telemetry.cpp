#include "obs/telemetry.hpp"

#include <chrono>
#include <cstdio>

#include "exp/report.hpp"  // json_writer::str/num — the one escaper/formatter
#include "util/fileio.hpp"
#include "util/json_scan.hpp"

namespace amo::obs {

namespace detail {
std::atomic<telemetry*> g_active{nullptr};
}  // namespace detail

namespace {

// Distinguishes telemetry instances for the thread_local buffer cache: a
// thread that emitted into a finished session must re-register with the
// next one instead of dereferencing a freed buffer.
std::atomic<std::uint64_t> g_generation{0};

struct tl_cache {
  std::uint64_t gen = 0;
  thread_buffer* buf = nullptr;
};
thread_local tl_cache t_cache;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

telemetry::telemetry(usize ring_capacity)
    : capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1) {}

thread_buffer& telemetry::local() {
  if (t_cache.gen == generation_ && t_cache.buf != nullptr) return *t_cache.buf;
  std::lock_guard<std::mutex> lk(registry_mu_);
  auto b = std::make_unique<thread_buffer>();
  b->tid = buffers_.size();
  b->ring.reserve(capacity_ < 1024 ? capacity_ : 1024);
  thread_buffer* raw = b.get();
  buffers_.push_back(std::move(b));
  t_cache = {generation_, raw};
  return *raw;
}

void telemetry::emit(event e) {
  thread_buffer& b = local();
  std::lock_guard<std::mutex> lk(b.mu);
  ++b.recorded;
  if (b.ring.size() < capacity_) {
    b.ring.push_back(std::move(e));
  } else {
    // Flight-recorder overwrite: the slot at `wrap` is the oldest event.
    b.ring[b.wrap] = std::move(e);
    b.wrap = (b.wrap + 1) % capacity_;
  }
}

void telemetry::name_thread(std::string_view name) {
  thread_buffer& b = local();
  std::lock_guard<std::mutex> lk(b.mu);
  if (b.name.empty()) b.name.assign(name);
}

void telemetry::attach_child_trace(std::string path, std::string name,
                                   bool remove_after_stitch) {
  std::lock_guard<std::mutex> lk(registry_mu_);
  children_.push_back({std::move(path), std::move(name), remove_after_stitch});
}

std::uint64_t telemetry::dropped() const {
  std::lock_guard<std::mutex> lk(registry_mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mu);
    n += b->recorded - b->ring.size();
  }
  return n;
}

session::session(usize ring_capacity)
    : t_(std::make_unique<telemetry>(ring_capacity)) {
  telemetry* expected = nullptr;
  installed_ = detail::g_active.compare_exchange_strong(
      expected, t_.get(), std::memory_order_acq_rel);
}

session::~session() {
  if (installed_) {
    telemetry* expected = t_.get();
    detail::g_active.compare_exchange_strong(expected, nullptr,
                                             std::memory_order_acq_rel);
  }
}

void span::arg(const char* key, double value) {
  if (t_ != nullptr) add(key, exp::json_writer::num(value));
}

void span::add(const char* key, std::string value) {
  args_.push_back({key, std::move(value)});
}

void span::finish() noexcept {
  // emit() allocates; telemetry loss beats termination from a noexcept dtor.
  try {
    event e;
    e.k = event::kind::span;
    e.cat = cat_;
    e.name = name_;
    e.ts_ns = begin_;
    const std::uint64_t end = now_ns();
    e.dur_ns = end > begin_ ? end - begin_ : 0;
    e.args = std::move(args_);
    t_->emit(std::move(e));
  } catch (...) {
  }
}

void counter_emit(telemetry& t, const char* cat, const char* name,
                  double value) {
  event e;
  e.k = event::kind::counter;
  e.cat = cat;
  e.name = name;
  e.ts_ns = now_ns();
  e.value = value;
  t.emit(std::move(e));
}

void instant(const char* cat, const char* name,
             std::initializer_list<std::pair<std::string_view, std::string_view>>
                 args) {
  telemetry* t = active();
  if (t == nullptr) return;
  event e;
  e.k = event::kind::instant;
  e.cat = cat;
  e.name = name;
  e.ts_ns = now_ns();
  e.args.reserve(args.size());
  for (const auto& [k, v] : args) e.args.push_back({std::string(k), std::string(v)});
  t->emit(std::move(e));
}

void set_thread_name(std::string_view name) {
  if (telemetry* t = active()) t->name_thread(name);
}

namespace {

// ns → µs with three fractional digits, the trace-event "ts"/"dur" unit.
// Fixed-point text (never a double) so timestamps round-trip exactly.
std::string micros(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

std::string js(const std::string& s) { return exp::json_writer::str(s); }

void render_args(std::string& line, const std::vector<arg>& args) {
  line += ",\"args\":{";
  for (usize i = 0; i < args.size(); ++i) {
    if (i != 0) line += ',';
    line += js(args[i].key);
    line += ':';
    line += js(args[i].value);
  }
  line += '}';
}

std::string render_event(const event& e, usize tid) {
  std::string line = "{\"ph\":\"";
  switch (e.k) {
    case event::kind::span: line += 'X'; break;
    case event::kind::counter: line += 'C'; break;
    case event::kind::instant: line += 'i'; break;
  }
  line += '"';
  if (e.k == event::kind::instant) line += ",\"s\":\"t\"";
  line += ",\"pid\":0,\"tid\":" + std::to_string(tid);
  line += ",\"cat\":" + js(e.cat) + ",\"name\":" + js(e.name);
  line += ",\"ts\":" + micros(e.ts_ns);
  if (e.k == event::kind::span) line += ",\"dur\":" + micros(e.dur_ns);
  if (e.k == event::kind::counter) {
    line += ",\"args\":{\"value\":" + exp::json_writer::num(e.value) + "}";
  } else if (!e.args.empty()) {
    render_args(line, e.args);
  }
  line += '}';
  return line;
}

std::string metadata_line(int pid, usize tid, const char* what,
                          const std::string& name) {
  return "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" + what +
         "\",\"args\":{\"name\":" + js(name) + "}}";
}

// Splices one child trace file's event lines into `lines`, remapping its
// pid-0 events to `pid`. Relies on the one-event-per-line layout this
// exporter itself produces; anything unrecognized is skipped. Returns the
// child's own dropped_events count (folded into the parent's total).
std::uint64_t stitch_child(std::vector<std::string>& lines,
                           const std::string& content, int pid) {
  std::uint64_t child_dropped = 0;
  const usize drop_at = content.find("\"dropped_events\":");
  if (drop_at != std::string::npos) {
    json::scanner sc(std::string_view(content).substr(drop_at + 17));
    double v = 0;
    if (sc.number(v) && v >= 0 && v < 0x1p64) {
      child_dropped = static_cast<std::uint64_t>(v);
    }
  }
  const std::string pid_tag = "\"pid\":" + std::to_string(pid);
  usize pos = content.find("\"traceEvents\":[");
  if (pos == std::string::npos) return child_dropped;
  pos = content.find('\n', pos);
  if (pos == std::string::npos) return child_dropped;
  ++pos;
  while (pos < content.size()) {
    usize eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == ',')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (line[0] == ']') break;  // end of the child's traceEvents array
    // The parent writes its own process_name for this pid.
    if (line.find("\"name\":\"process_name\"") != std::string::npos) continue;
    const usize at = line.find("\"pid\":0");
    if (at == std::string::npos) continue;
    line.replace(at, 7, pid_tag);
    lines.push_back(std::move(line));
  }
  return child_dropped;
}

}  // namespace

std::string export_json(telemetry& t, const export_options& opt) {
  std::lock_guard<std::mutex> lk(t.registry_mu_);
  std::vector<std::string> lines;
  std::uint64_t dropped = 0;
  if (!opt.process_name.empty()) {
    lines.push_back(metadata_line(0, 0, "process_name", opt.process_name));
  }
  for (const auto& bp : t.buffers_) {
    thread_buffer& b = *bp;
    std::lock_guard<std::mutex> bl(b.mu);
    dropped += b.recorded - b.ring.size();
    if (!b.name.empty()) {
      lines.push_back(metadata_line(0, b.tid, "thread_name", b.name));
    }
    // Oldest → newest: wrap..end then 0..wrap-1 once the ring has lapped.
    const usize n = b.ring.size();
    const usize start = n < t.capacity_ ? 0 : b.wrap;
    for (usize i = 0; i < n; ++i) {
      lines.push_back(render_event(b.ring[(start + i) % n], b.tid));
    }
  }
  usize skipped_children = 0;
  for (usize c = 0; c < t.children_.size(); ++c) {
    const int pid = static_cast<int>(c) + 1;
    std::string content;
    std::string error;
    if (!read_file(t.children_[c].path.c_str(), content, error)) {
      ++skipped_children;
      continue;
    }
    lines.push_back(metadata_line(pid, 0, "process_name", t.children_[c].name));
    dropped += stitch_child(lines, content, pid);
  }
  std::string out = "{\"traceEvents\":[\n";
  for (usize i = 0; i < lines.size(); ++i) {
    out += lines[i];
    out += i + 1 < lines.size() ? ",\n" : "\n";
  }
  out += "],\"otherData\":{\"dropped_events\":" + std::to_string(dropped);
  if (skipped_children != 0) {
    out += ",\"skipped_child_traces\":" + std::to_string(skipped_children);
  }
  out += "},\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool export_file(telemetry& t, const char* path, const export_options& opt,
                 std::string& error) {
  const std::string doc = export_json(t, opt);
  if (!write_file_atomic(path, doc, error)) return false;
  std::lock_guard<std::mutex> lk(t.registry_mu_);
  for (const auto& c : t.children_) {
    if (c.remove_after_stitch) std::remove(c.path.c_str());
  }
  return true;
}

}  // namespace amo::obs
