#include "sets/bitset_rank_set.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sets/word_ops.hpp"
#include "util/math.hpp"

namespace amo {

namespace {

unsigned popcount(std::uint64_t word) {
  return static_cast<unsigned>(std::popcount(word));
}

}  // namespace

bitset_rank_set::bitset_rank_set(job_id universe)
    : universe_(universe),
      num_words_(ceil_div(universe, 64)),
      log_floor_(num_words_ == 0 ? 0 : ilog2(num_words_)),
      bits_(num_words_, 0),
      sb_count_(ceil_div(num_words_, words_per_sb), 0),
      group_count_(ceil_div(num_words_, words_per_group), 0),
      hops_(bits::build_fenwick_hops(num_words_)) {}

bitset_rank_set bitset_rank_set::full(job_id universe) {
  bitset_rank_set s(universe);
  std::fill(s.bits_.begin(), s.bits_.end(), ~std::uint64_t{0});
  // Mask off the bits beyond the universe in the last word.
  const usize tail = static_cast<usize>(universe) % 64;
  if (tail != 0) s.bits_.back() = (std::uint64_t{1} << tail) - 1;
  s.rebuild_counts();
  return s;
}

bitset_rank_set::bitset_rank_set(job_id universe,
                                 std::span<const job_id> sorted_members)
    : bitset_rank_set(universe) {
  for (const job_id x : sorted_members) {
    assert(x >= 1 && x <= universe);
    bits_[(x - 1) / 64] |= std::uint64_t{1} << ((x - 1) % 64);
  }
  rebuild_counts();
  assert(count_ == sorted_members.size());
}

void bitset_rank_set::rebuild_counts() {
  std::fill(sb_count_.begin(), sb_count_.end(), 0);
  std::fill(group_count_.begin(), group_count_.end(), 0);
  count_ = 0;
  for (usize w = 0; w < num_words_; ++w) {
    const unsigned pc = popcount(bits_[w]);
    sb_count_[w / words_per_sb] += pc;
    group_count_[w / words_per_group] += pc;
    count_ += pc;
  }
}

bool bitset_rank_set::contains(job_id x) const {
  charge_units(1);
  if (x < 1 || x > universe_) return false;
  return (bits_[(x - 1) / 64] >> ((x - 1) % 64)) & 1u;
}

bool bitset_rank_set::insert(job_id x) {
  assert(x >= 1 && x <= universe_);
  const usize w = (x - 1) / 64;
  const std::uint64_t mask = std::uint64_t{1} << ((x - 1) % 64);
  if ((bits_[w] & mask) != 0) return false;
  bits_[w] |= mask;
  ++sb_count_[w / words_per_sb];
  ++group_count_[w / words_per_group];
  ++count_;
  charge_units(hops_[w]);  // reference update cost
  return true;
}

bool bitset_rank_set::erase(job_id x) {
  if (x < 1 || x > universe_) return false;
  const usize w = (x - 1) / 64;
  const std::uint64_t mask = std::uint64_t{1} << ((x - 1) % 64);
  if ((bits_[w] & mask) == 0) return false;
  bits_[w] &= ~mask;
  --sb_count_[w / words_per_sb];
  --group_count_[w / words_per_group];
  --count_;
  charge_units(hops_[w]);  // reference update cost
  return true;
}

job_id bitset_rank_set::select(usize k) const {
  assert(k >= 1 && k <= count_);
  // Reference cost: one unit per Fenwick descent level, charged in bulk.
  charge_units(log_floor_ + 1);
  // Skip whole groups, then whole superblocks, then whole words; k <= size
  // guarantees each scan stops inside the bitmap.
  usize rem = k;
  usize g = 0;
  while (group_count_[g] < rem) rem -= group_count_[g++];
  usize sb = g * sbs_per_group;
  while (sb_count_[sb] < rem) rem -= sb_count_[sb++];
  usize w = sb * words_per_sb;
  while (popcount(bits_[w]) < rem) rem -= popcount(bits_[w++]);
  // The rem-th set bit inside the word is a single PDEP (or broadword)
  // query. The reference walk visited rem-1 bits, each charged — same
  // units, no loop.
  charge_units(rem - 1);
  const unsigned bit = bits::select_in_word(bits_[w], static_cast<unsigned>(rem));
  return static_cast<job_id>(w * 64 + bit + 1);
}

usize bitset_rank_set::rank_le(job_id x) const {
  if (x > universe_) x = universe_;
  if (x == 0) return 0;  // also every query on the empty universe
  const usize w = (x - 1) / 64;
  // Reference cost: popcount(w) Fenwick prefix hops plus the final in-word
  // popcount, charged in bulk.
  charge_units(static_cast<usize>(std::popcount(w)) + 1);
  const usize sb = w / words_per_sb;
  const usize g = w / words_per_group;
  usize r = 0;
  for (usize i = 0; i < g; ++i) r += group_count_[i];
  for (usize i = g * sbs_per_group; i < sb; ++i) r += sb_count_[i];
  for (usize i = sb * words_per_sb; i < w; ++i) r += popcount(bits_[i]);
  const usize bit = (x - 1) % 64;
  const std::uint64_t mask =
      bit == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (bit + 1)) - 1);
  return r + popcount(bits_[w] & mask);
}

usize bitset_rank_set::popcount_range(job_id lo, job_id hi) const {
  if (lo < 1) lo = 1;
  if (hi > universe_) hi = universe_;
  if (lo > hi) return 0;
  const usize wl = (static_cast<usize>(lo) - 1) / 64;
  const usize wh = (static_cast<usize>(hi) - 1) / 64;
  const std::uint64_t lo_mask = ~std::uint64_t{0} << ((lo - 1) % 64);
  const usize hi_bit = (hi - 1) % 64;
  const std::uint64_t hi_mask =
      hi_bit == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (hi_bit + 1)) - 1);
  if (wl == wh) return popcount(bits_[wl] & lo_mask & hi_mask);
  usize r = popcount(bits_[wl] & lo_mask);
  for (usize w = wl + 1; w < wh; ++w) r += popcount(bits_[w]);
  return r + popcount(bits_[wh] & hi_mask);
}

std::vector<job_id> bitset_rank_set::to_vector() const {
  std::vector<job_id> out;
  out.reserve(count_);
  for (usize w = 0; w < num_words_; ++w) {
    std::uint64_t word = bits_[w];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
      out.push_back(static_cast<job_id>(w * 64 + bit + 1));
      word &= word - 1;
    }
  }
  return out;
}

}  // namespace amo
