// Test helper: exp::merge_stream over in-memory record arrays, one
// memory source per shard — the one fold every merge front end uses.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "exp/merge.hpp"

namespace amo {

inline exp::merge_result merge_arrays(
    std::vector<std::vector<exp::record>> shards) {
  std::vector<std::unique_ptr<exp::record_source>> sources;
  sources.reserve(shards.size());
  for (std::vector<exp::record>& shard : shards) {
    sources.push_back(exp::make_memory_source(std::move(shard)));
  }
  return exp::merge_stream(std::move(sources));
}

}  // namespace amo
