// Explicit instantiations of the IterativeKK(eps) composed automaton.
#include "core/iterative_kk.hpp"

#include "mem/atomic_memory.hpp"
#include "mem/sim_memory.hpp"

namespace amo {

template class iterative_process<sim_memory>;
template class iterative_process<atomic_memory>;

}  // namespace amo
