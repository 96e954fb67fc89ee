// Compact order-statistic set: a bitmap of the universe plus two levels of
// non-cumulative popcount counters — one u16 per 16-word superblock, one
// u32 per 16-superblock group.
//
// This is libamo's FREE set. The paper keeps FREE in a balanced tree so
// rank and select cost O(log n); here the O(log n) lives in the charged
// cost model below, and the structure is picked for memory and speed
// instead: ~0.15 bytes per universe element, which matters because every
// one of the m processes keeps its own FREE view of all n jobs.
//
// An insert or erase flips one bit and bumps two counters: O(1), which is
// what KK's update-heavy gather passes need. select and rank_le scan the
// group counters, then one group's superblock counters, then one
// superblock's words, then finish with a branch-free in-word select (PDEP
// on BMI2 hardware, broadword otherwise; see word_ops.hpp) or a masked
// popcount. The scans are O(U/16384 + 32) counter loads; the counters are
// a few hundred bytes even at U = 2^22, so they stay cache-resident.
//
// Charged work follows the paper's cost model, not the instruction count:
// every operation charges what a Fenwick tree over 64-bit word popcounts
// (O(log U) per operation) would — one unit per descent level plus one per
// bit a clear-lowest-bit walk would have visited for select, one per
// Fenwick prefix hop for rank, one per Fenwick update hop for insert/erase
// (bits::build_fenwick_hops) — all computed arithmetically. No Fenwick tree
// is ever built; only the charge is kept, so the Theorem 5.6 work bound is
// measured in the paper's units.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo {

class bitset_rank_set {
 public:
  explicit bitset_rank_set(job_id universe);
  static bitset_rank_set full(job_id universe);
  bitset_rank_set(job_id universe, std::span<const job_id> sorted_members);

  void set_counter(op_counter* oc) { oc_ = oc; }

  [[nodiscard]] job_id universe() const { return universe_; }
  [[nodiscard]] usize size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] bool contains(job_id x) const;
  bool insert(job_id x);
  bool erase(job_id x);
  [[nodiscard]] job_id select(usize k) const;
  [[nodiscard]] usize rank_le(job_id x) const;
  [[nodiscard]] std::vector<job_id> to_vector() const;

  // ----- bulk word accessors for word-parallel callers ------------------
  // word()/num_words()/charge_units() back the FREE \ TRY fast paths in
  // rank_select.hpp; popcount_range is the general-purpose range counter
  // for analysis code and tests.

  /// Number of 64-bit words backing the universe bitmap.
  [[nodiscard]] usize num_words() const { return num_words_; }

  /// Raw bitmap word i (bit b set <=> job i*64 + b + 1 is a member).
  /// Uncharged: callers account the semantic cost themselves.
  [[nodiscard]] std::uint64_t word(usize i) const { return bits_[i]; }

  /// |{y in set : lo <= y <= hi}| via word popcounts; uncharged.
  [[nodiscard]] usize popcount_range(job_id lo, job_id hi) const;

  /// Bulk counter charge for word-parallel callers that replace a charged
  /// per-element walk with word arithmetic: the paper's cost model is
  /// preserved by adding the walk's unit count in one step.
  void charge_units(usize n) const {
    if (oc_ != nullptr) oc_->local_ops += n;
  }

 private:
  /// A superblock is 16 words (1024 bits); a group is 16 superblocks
  /// (16384 bits).
  static constexpr usize words_per_sb = 16;
  static constexpr usize sbs_per_group = 16;
  static constexpr usize words_per_group = sbs_per_group * words_per_sb;

  /// Recounts both counter levels and count_ from bits_.
  void rebuild_counts();

  job_id universe_;
  usize count_ = 0;
  usize num_words_;
  std::uint32_t log_floor_;              // floor(log2(num_words)), charge model
  std::vector<std::uint64_t> bits_;      // bit (x-1) set <=> x in set
  std::vector<std::uint16_t> sb_count_;  // popcount per superblock
  std::vector<std::uint32_t> group_count_;  // popcount per group
  std::vector<std::uint8_t> hops_;       // charged Fenwick update hop counts
  op_counter* oc_ = nullptr;
};

}  // namespace amo
