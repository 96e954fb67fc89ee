// exp::batchable — the sweep's one replica rule (exp/sweep.cpp).
//
// The algorithms are deterministic, and a cell's seed enters a run only
// through sim::parse_adversary (exp/engine.cpp). So when the schedule
// ignores its seed, every replica of the cell is the same execution: the
// sweep runs it once and copies the report into each replica's slot,
// patching the echoed seed. Every other unit is its own pool task.
// tests/test_batch_parity.cpp pins the copies against exp::run per
// replica; docs/batched_kernel.md has the argument.
#pragma once

#include "exp/spec.hpp"

namespace amo::exp {

/// True exactly when every replica of `cell` is the same execution: a
/// scheduled, non-POR cell whose adversary name parses and ignores its seed.
[[nodiscard]] bool batchable(const run_spec& cell);

}  // namespace amo::exp
