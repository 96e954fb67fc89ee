// Explicit instantiations of the KK_beta automaton for both memory models
// over the default FREE set, so the template code is compiled and
// type-checked once here even for a model a given binary does not use. The
// lane view (sets/lane_free_set.hpp) is instantiated where the batched
// engine uses it.
#include "core/kk_process.hpp"

#include "mem/atomic_memory.hpp"
#include "mem/sim_memory.hpp"

namespace amo {

template class kk_process<sim_memory, bitset_rank_set>;
template class kk_process<atomic_memory, bitset_rank_set>;

}  // namespace amo
