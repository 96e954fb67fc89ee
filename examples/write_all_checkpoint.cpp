// Write-All as crash-tolerant initialization (Section 7 / Kanellakis &
// Shvartsman): a recovery procedure must clear every slot of a checkpoint
// table before the system restarts. Any slot may be cleared several times —
// but every slot must be cleared at least once, even if most recovery
// threads die. WA_IterativeKK(eps) does this with near-linear total work.
#include <atomic>
#include <cstdio>
#include <vector>

#include "exp/engine.hpp"

int main() {
  constexpr amo::usize kSlots = 40000;
  constexpr amo::usize kThreads = 6;

  std::vector<std::atomic<std::uint8_t>> table(kSlots + 1);
  for (auto& s : table) s.store(0xff, std::memory_order_relaxed);  // dirty

  amo::exp::run_spec spec;
  spec.algo = amo::exp::algo_family::wa_iterative;
  spec.driver = amo::exp::driver_kind::os_threads;
  spec.n = kSlots;
  spec.m = kThreads;
  spec.eps_inv = 2;
  // Kill two recovery threads mid-flight; coverage must not suffer.
  spec.crashes.what = amo::exp::crash_spec::kind::after_actions;
  spec.crashes.per_thread = {4000, 0, 9000, 0, 0, 0};

  std::atomic<amo::usize> clears{0};
  amo::exp::run_hooks hooks;
  hooks.on_perform = [&table, &clears](amo::process_id, amo::job_id slot) {
    table[slot].store(0, std::memory_order_relaxed);  // clear
    clears.fetch_add(1, std::memory_order_relaxed);
  };
  const amo::exp::run_report report = amo::exp::run(spec, hooks);

  amo::usize dirty = 0;
  for (amo::usize s = 1; s <= kSlots; ++s) {
    dirty += table[s].load(std::memory_order_relaxed) != 0 ? 1 : 0;
  }

  std::printf("checkpoint slots : %zu\n", kSlots);
  std::printf("threads          : %zu (%zu crashed)\n", kThreads, report.crashes);
  std::printf("slots cleared    : %zu\n", kSlots - dirty);
  std::printf("slots still dirty: %zu  <-- must be 0\n", dirty);
  std::printf("callback calls   : %zu (duplicates are allowed here)\n",
              clears.load());
  std::printf("verdict          : %s\n",
              dirty == 0 && report.wa_complete ? "RECOVERY COMPLETE"
                                               : "RECOVERY INCOMPLETE");
  return dirty == 0 && report.wa_complete ? 0 : 1;
}
