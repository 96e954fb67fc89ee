// Wall-clock stopwatch for the benchmark harness.
#pragma once

#include <chrono>

namespace amo {

class stopwatch {
 public:
  stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace amo
