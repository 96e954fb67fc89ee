// Safety-critical actuation — the paper's own motivating scenario: "the
// activation of the X-ray gun in an X-ray machine, or supplying a dosage of
// medicine to a patient" must happen at most once per prescription, even
// when controller threads crash mid-operation.
//
// This example schedules n radiation pulses across m redundant controller
// threads. We inject crashes into most controllers right after they
// announce a pulse (the worst case of Theorem 4.4) and prove two things:
//   1. no pulse ever fires twice (the patient-safety property),
//   2. the surviving controller still delivers all but a provably bounded
//      handful of pulses — each crashed controller can strand at most the
//      one pulse it had announced.
#include <atomic>
#include <cstdio>
#include <vector>

#include "analysis/bounds.hpp"
#include "exp/engine.hpp"

namespace {

struct xray_machine {
  explicit xray_machine(amo::usize pulses) : fired(pulses + 1) {}

  /// Fires pulse j. A double fire is an overdose: track it loudly.
  void fire(amo::job_id j) {
    if (fired[j].fetch_add(1, std::memory_order_relaxed) != 0) {
      overdoses.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::atomic<std::uint32_t>> fired;
  std::atomic<amo::usize> overdoses{0};
};

}  // namespace

int main() {
  constexpr amo::usize kPulses = 20000;
  constexpr amo::usize kControllers = 6;

  xray_machine machine(kPulses);

  amo::exp::run_spec spec;
  spec.driver = amo::exp::driver_kind::os_threads;
  spec.n = kPulses;
  spec.m = kControllers;
  // Crash 5 of 6 controllers immediately after their first announcement —
  // each leaves one announced-but-unfired pulse stuck forever.
  spec.crashes.what = amo::exp::crash_spec::kind::after_first_announce;
  spec.crashes.count = kControllers - 1;

  amo::exp::run_hooks hooks;
  hooks.on_perform = [&machine](amo::process_id, amo::job_id j) {
    machine.fire(j);
  };
  const amo::exp::run_report report = amo::exp::run(spec, hooks);

  const amo::usize floor =
      amo::bounds::kk_effectiveness(kPulses, kControllers, kControllers);

  std::printf("pulses scheduled   : %zu\n", kPulses);
  std::printf("controllers        : %zu (%zu crashed mid-run)\n", kControllers,
              report.crashes);
  std::printf("pulses delivered   : %zu (guaranteed floor: %zu)\n",
              report.effectiveness, floor);
  std::printf("pulses stranded    : %zu\n", kPulses - report.effectiveness);
  std::printf("overdoses          : %zu  <-- must be 0\n",
              machine.overdoses.load());

  const bool safe = machine.overdoses.load() == 0 && report.at_most_once;
  const bool live = report.effectiveness >= floor;
  std::printf("verdict            : %s\n",
              safe && live ? "SAFE and LIVE" : "FAILURE");
  return safe && live ? 0 : 1;
}
