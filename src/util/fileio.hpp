// Whole-file read/write, shared by every text surface (record parser,
// batch parser, corpus loader, report writers) — one definition of "slurp
// a file" and its error spelling instead of a copy per parser.
//
// Two write disciplines:
//   write_file        — plain truncate-and-write; a crash mid-call leaves a
//                       torn file. Only for sinks where that is acceptable
//                       (append logs, FIFO lines) or deliberate (the fault
//                       plane's torn-artifact injection).
//   write_file_atomic — tmp + fsync + rename. A reader can only ever see
//                       the old bytes or the complete new bytes, never a
//                       prefix: the discipline every record/report/corpus
//                       artifact uses so a killed writer cannot poison a
//                       later merge (docs/robustness.md).
//
// Every failure path reports the offending path AND the errno text — "
// cannot open X for writing: Permission denied" — because "cannot write"
// without the why is what made injected-fault triage impossible. The
// "cannot " prefix is load-bearing: the CLI's exit-code mapping keys on it.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "util/types.hpp"

namespace amo {

namespace detail {
inline std::string errno_text() {
  return std::strerror(errno);
}
}  // namespace detail

/// Appends the rest of `f` to `out`; false on a read error (errno set).
[[nodiscard]] inline bool read_rest(std::FILE* f, std::string& out) {
  // Size the buffer once when the file is seekable, so a large file is
  // not copied through every doubling (a pipe just skips this).
  const long at = std::ftell(f);
  if (at >= 0 && std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size > at) out.reserve(out.size() + static_cast<usize>(size - at));
    std::fseek(f, at, SEEK_SET);
  }
  char buf[1 << 14];
  usize got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  return std::ferror(f) == 0;
}

/// Reads all of `path` into `out`. On failure returns false with `error`
/// set to "cannot open <path>: <errno text>" / "cannot read ...".
[[nodiscard]] inline bool read_file(const char* path, std::string& out,
                                    std::string& error) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    error = std::string("cannot open ") + path + ": " + detail::errno_text();
    return false;
  }
  out.clear();
  const bool ok = read_rest(f, out);
  std::fclose(f);
  if (!ok) {
    error = std::string("cannot read ") + path + ": " + detail::errno_text();
    return false;
  }
  return true;
}

/// A read-only stream over `bytes`, which must outlive it (POSIX
/// fmemopen), so one stdio reader serves files and memory images alike.
/// Null, with errno set, on failure.
[[nodiscard]] inline std::FILE* open_memory(std::string_view bytes) {
  static char none = 0;  // an empty image still needs a buffer address
  return ::fmemopen(bytes.empty() ? &none : const_cast<char*>(bytes.data()),
                    bytes.size(), "rb");
}

/// Writes `content` to `path` (truncating); false on any I/O failure with
/// `error` carrying the path and errno text. NOT atomic — see the header
/// comment for when that is acceptable.
[[nodiscard]] inline bool write_file(const char* path, std::string_view content,
                                     std::string& error) {
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) {
    error = std::string("cannot open ") + path + " for writing: " +
            detail::errno_text();
    return false;
  }
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    error = std::string("cannot write ") + path + ": " + detail::errno_text();
    return false;
  }
  return true;
}

/// write_file for callers with nowhere to put the diagnostic.
[[nodiscard]] inline bool write_file(const char* path,
                                     std::string_view content) {
  std::string ignored;
  return write_file(path, content, ignored);
}

/// Crash-safe whole-file write: the bytes land in `<path>.tmp`, are fsynced,
/// and only then renamed over `path`. A writer killed at ANY instant leaves
/// either the previous `path` (or no file) — never a torn one. The stray
/// `.tmp` a killed writer can leave is truncated by the next attempt and
/// removed by the dispatcher's shard-file cleanup.
[[nodiscard]] inline bool write_file_atomic(const char* path,
                                            std::string_view content,
                                            std::string& error) {
  const std::string tmp = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    error = std::string("cannot open ") + tmp + " for writing: " +
            detail::errno_text();
    return false;
  }
  bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size() &&
      std::fflush(f) == 0;
#if !defined(_WIN32)
  // fsync before rename, or a power loss can publish the name with empty
  // content. EINVAL (a filesystem without fsync) is not a write failure.
  if (ok && ::fsync(::fileno(f)) != 0 && errno != EINVAL) ok = false;
#endif
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    error = std::string("cannot write ") + tmp + ": " + detail::errno_text();
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path) != 0) {
    error = std::string("cannot rename ") + tmp + " to " + path + ": " +
            detail::errno_text();
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace amo
