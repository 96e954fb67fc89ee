// Explicit instantiations of the KK_beta automaton for both memory models,
// so the template code is compiled and type-checked once here even for a
// model a given binary does not use.
#include "core/kk_process.hpp"

#include "mem/atomic_memory.hpp"
#include "mem/sim_memory.hpp"

namespace amo {

template class kk_process<sim_memory>;
template class kk_process<atomic_memory>;

}  // namespace amo
