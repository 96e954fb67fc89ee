// Super-jobs and the map() function of IterativeKK(eps) (Fig. 3).
//
// A super-job of size d with id s covers the real jobs
// [(s-1)*d + 1, min(s*d, n)] — a fixed partition of J, so "a job is always
// mapped to the same super-job of a specific size and there is no
// intersection between the jobs in super-jobs of the same size" (Section 6).
//
// Level sizes are rounded down to powers of two (a substitution for the
// paper's exact sizes), so consecutive level sizes divide each other and
// map() is exact: the jobs covered by the output super-jobs are precisely
// the jobs covered by the input super-jobs. That divisibility is what makes the at-most-once
// argument across levels (Lemma 6.2 / Theorem 6.3) go through without
// boundary leakage.
#pragma once

#include <span>
#include <vector>

#include "util/math.hpp"
#include "util/types.hpp"

namespace amo {

/// The set of super-jobs of one size over a job universe [1..n].
struct super_job_space {
  usize n = 0;     ///< real-job universe size
  usize size = 1;  ///< jobs per super-job (the last one may be short)

  [[nodiscard]] usize count() const { return static_cast<usize>(ceil_div(n, size)); }

  /// First real job covered by super-job s (1-based).
  [[nodiscard]] job_id first_job(job_id s) const {
    return static_cast<job_id>((static_cast<usize>(s) - 1) * size + 1);
  }

  /// Last real job covered by super-job s.
  [[nodiscard]] job_id last_job(job_id s) const {
    const usize end = static_cast<usize>(s) * size;
    return static_cast<job_id>(end < n ? end : n);
  }

  /// The super-job covering real job j.
  [[nodiscard]] job_id super_of(job_id j) const {
    return static_cast<job_id>((static_cast<usize>(j) - 1) / size + 1);
  }
};

/// Fig. 3's SET2 = map(SET1, size1, size2): re-expresses a set of
/// super-jobs of size `from.size` as the covering set of super-jobs of size
/// `to.size`. Requires to.size <= from.size and to.size | from.size (both
/// powers of two in the plan). Input and output are sorted ascending.
std::vector<job_id> map_super_jobs(std::span<const job_id> set1,
                                   const super_job_space& from,
                                   const super_job_space& to);

/// The per-level geometry of IterativeKK(eps): level 0 has super-jobs of
/// size ~m*lg n*lg m; level i (1..1/eps) of size ~m^{1-i*eps}*lg n*lg^{1+i} m;
/// the final level has size 1. Sizes are rounded down to powers of two and
/// clamped to be non-increasing and within [1, n].
struct iterative_plan {
  usize n = 0;
  usize m = 0;
  unsigned eps_inv = 1;  ///< 1/eps; eps in {1, 1/2, 1/3, ...}
  usize beta = 0;        ///< per-level termination parameter (3m^2)
  std::vector<super_job_space> levels;
};

iterative_plan make_iterative_plan(usize n, usize m, unsigned eps_inv);

}  // namespace amo
