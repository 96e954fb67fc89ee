#include "model/dpor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "svc/worker_pool.hpp"
#include "util/stopwatch.hpp"

namespace amo::model {

namespace {

// ---------------------------------------------------------------------------
// Actions and footprints
//
// An enabled action is either step(p) — process p's single enabled automaton
// transition, whose footprint is determined by p's current status — or
// crash(p). Actions are encoded as bits of a 6-bit mask so sleep sets are a
// byte: bit (p-1) = step(p), bit (max_procs + p - 1) = crash(p).
// ---------------------------------------------------------------------------

using amask = std::uint8_t;

struct action {
  bool is_crash = false;
  process_id pid = 1;
};

constexpr amask step_bit(process_id p) {
  return static_cast<amask>(amask{1} << (p - 1));
}
constexpr amask crash_bit(process_id p) {
  return static_cast<amask>(amask{1} << (max_procs + p - 1));
}
constexpr amask bit_of(action a) {
  return a.is_crash ? crash_bit(a.pid) : step_bit(a.pid);
}
/// The action whose bit is `bit` (exactly one bit set).
constexpr action action_of(amask bit) {
  const auto i = static_cast<process_id>(std::countr_zero(bit));
  if (i < max_procs) return {false, i + 1};
  return {true, static_cast<process_id>(i + 1 - max_procs)};
}

sys_state successor(const sys_state& s, const model_config& cfg, action a) {
  return a.is_crash ? crash(s, cfg, a.pid) : step(s, cfg, a.pid);
}

constexpr bool touches_flag(kk_status st) {
  return st == kk_status::flag_poll || st == kk_status::flag_raise ||
         st == kk_status::flag_gate;
}

/// True when crashing p BEFORE its pending step differs observably from
/// crashing right after it — i.e. the step writes state someone else (or
/// the checker) reads: a register announce, a done-row append, a perform,
/// a flag raise. For pure-read/local statuses (comp_next, check, the
/// gathers, flag polls) the two placements differ only in the dead
/// process's locals — crash-before-publish in the finalizing gather_done
/// case only withholds an output, which can only remove Lemma 6.2
/// violations the kept branch still reports — so those crashes are
/// postponed until the process reaches a writing status (or ends), and
/// the expansion at a read status omits them.
constexpr bool crash_observable(kk_status st) {
  return st == kk_status::set_next || st == kk_status::record ||
         st == kk_status::perform || st == kk_status::flag_raise;
}

/// True when step(p) commutes with EVERY action any other process can ever
/// take from `s` — the persistent-singleton condition. By footprint:
///   * comp_next / check touch only p's local state, which no other process
///     reads or writes, ever;
///   * the flag ops are invisible once the flag is raised: the flag is
///     written monotonically (true over true), so every later read/write
///     commutes with them;
///   * gather_try is invisible when the cursor points at p itself (the
///     automaton skips its own register) or at a process that is end/stop —
///     a dead process never writes its next_reg again, and nobody else
///     ever does;
///   * gather_done additionally exploits that done-rows are append-only:
///     a read at a position already inside rows[q] (or past n, where the
///     automaton reads nothing) returns an immutable cell whatever q
///     appends later;
///   * set_next is invisible when the register already holds the value
///     about to be written — the write is a shared-state no-op;
///   * perform touches only the performed/duplicate word, and co-enabled
///     performs endpoint-commute (both orders leave the same mask and the
///     same duplicate verdict) — but forcing a perform past a pending
///     crash of the same process would change the performed mask the
///     crashed branch reaches, so perform is invisible only once the
///     crash budget is spent (choose_expansion still reduces the
///     crashes-possible case to the pair {perform(p), crash(p)}).
/// record (and set_next writing a fresh value, and flag ops below a
/// lowered flag) publish values other live processes will read and react
/// to, so they stay visible.
bool invisible_step(const sys_state& s, const model_config& cfg,
                    process_id p) {
  const proc_state& ps = s.procs[p - 1];
  switch (ps.status) {
    case kk_status::comp_next:
    case kk_status::check:
      return true;
    case kk_status::flag_poll:
    case kk_status::flag_raise:
    case kk_status::flag_gate:
      return s.flag;
    case kk_status::set_next:
      return s.next_reg[p - 1] == ps.next;
    case kk_status::gather_try:
      return ps.q == p || !runnable(s, cfg, ps.q);
    case kk_status::gather_done:
      return ps.q == p || !runnable(s, cfg, ps.q) ||
             static_cast<usize>(ps.pos[ps.q - 1]) > cfg.n ||
             ps.pos[ps.q - 1] <= s.row_len[ps.q - 1];
    case kk_status::perform:
      return s.crashes >= cfg.crash_budget;
    default:
      return false;
  }
}

/// Conditional (state-dependent) independence of two VISIBLE steps of
/// distinct processes p != q: independent iff their read/write footprints
/// on the shared state are disjoint in `s`. Both endpoints commute and
/// neither can disable the other (runnable(r) depends only on r's own
/// status).
bool visible_steps_independent(const sys_state& s, process_id p,
                               process_id q) {
  const proc_state& a = s.procs[p - 1];
  const proc_state& b = s.procs[q - 1];
  // flag word: a raise conflicts with a read while the flag is down
  // (invisible_step already absorbed the flag-up case); two reads commute,
  // and two raises endpoint-commute (both write true, each advances only
  // its own status).
  if (touches_flag(a.status) && touches_flag(b.status)) {
    return (a.status == kk_status::flag_raise) ==
           (b.status == kk_status::flag_raise);
  }
  // performed/duplicate word: two performs endpoint-commute — the final
  // mask is the union either way, and duplicate is set iff some performed
  // bit repeats, which is order-blind.
  if (a.status == kk_status::perform && b.status == kk_status::perform) {
    return true;
  }
  // next_reg handoff: set_next(p) writes next_reg[p], gather_try(q) reads
  // next_reg of its current cursor.
  if (a.status == kk_status::set_next && b.status == kk_status::gather_try &&
      b.q == p) {
    return false;
  }
  if (b.status == kk_status::set_next && a.status == kk_status::gather_try &&
      a.q == q) {
    return false;
  }
  // done-row handoff: record(p) appends to rows[p], gather_done(q) reads
  // rows of its current cursor.
  if (a.status == kk_status::record && b.status == kk_status::gather_done &&
      b.q == p) {
    return false;
  }
  if (b.status == kk_status::record && a.status == kk_status::gather_done &&
      a.q == q) {
    return false;
  }
  return true;
}

/// The sleep-set independence relation over enabled actions in `s`.
/// Same-process pairs are always dependent (crash(p) disables step(p));
/// crash/crash pairs commute while two or more crash credits remain and
/// disable each other on the last credit; crash(p) commutes with any other
/// process's step.
bool independent(const sys_state& s, const model_config& cfg, action x,
                 action y) {
  if (x.pid == y.pid) return false;
  if (x.is_crash && y.is_crash) {
    return cfg.crash_budget - s.crashes >= 2;
  }
  if (x.is_crash || y.is_crash) return true;
  if (invisible_step(s, cfg, x.pid) || invisible_step(s, cfg, y.pid)) {
    return true;
  }
  return visible_steps_independent(s, x.pid, y.pid);
}

/// The expansion set at `s`, in canonical order. If some runnable process
/// has an invisible current action, the smallest such p gives the
/// singleton {step(p)}: crash(p) is postponed past the invisible step,
/// because crashing before or after an action nobody else observes yields
/// verdict-equivalent terminals (the states differ only in the dead
/// process's locals — and, for a crash skipped over a publishing
/// gather_done, in an output whose absence can only remove Lemma 6.2
/// violations that the kept branch still reports). Failing that, a
/// process at `perform` gives the pair {perform(p), crash(p)}: a perform
/// endpoint-commutes with every other process's possible action (other
/// performs included), so the pair is persistent in the classical sense —
/// but the crash must stay, since crashing before vs after a perform
/// reaches terminals with different performed masks. Otherwise the full
/// enabled set (steps ascending, then crashes ascending) — trivially
/// persistent. docs/model_checking.md carries the preservation proof.
usize choose_expansion(const sys_state& s, const model_config& cfg,
                       action (&out)[2 * max_procs], bool& singleton) {
  const bool crashes_left = s.crashes < cfg.crash_budget;
  for (process_id p = 1; p <= cfg.m; ++p) {
    if (runnable(s, cfg, p) && invisible_step(s, cfg, p)) {
      singleton = true;
      out[0] = {false, p};
      return 1;
    }
  }
  for (process_id p = 1; p <= cfg.m; ++p) {
    if (runnable(s, cfg, p) &&
        s.procs[p - 1].status == kk_status::perform) {
      // crashes_left holds here: a crash-starved perform is invisible.
      singleton = true;
      out[0] = {false, p};
      out[1] = {true, p};
      return 2;
    }
  }
  singleton = false;
  usize k = 0;
  for (process_id p = 1; p <= cfg.m; ++p) {
    if (runnable(s, cfg, p)) out[k++] = {false, p};
  }
  if (crashes_left) {
    for (process_id p = 1; p <= cfg.m; ++p) {
      if (runnable(s, cfg, p) &&
          crash_observable(s.procs[p - 1].status)) {
        out[k++] = {true, p};
      }
    }
  }
  return k;
}
// ---------------------------------------------------------------------------
// Sharded visited table
//
// The visited set is split into kShards open-addressing tables by the top
// bits of fingerprint::a. A fingerprint lives in exactly one shard, so the
// shards are disjoint and each can be merged by its own pool task. The
// shard count is a constant, independent of the pool size: which arrivals
// a shard sees, and in what order, never depends on the worker count.
// ---------------------------------------------------------------------------

constexpr unsigned kShardBits = 6;
constexpr usize kShards = usize{1} << kShardBits;
/// A node key is (shard << kLocalBits) | local id, local ids dense per shard.
constexpr unsigned kLocalBits = 32 - kShardBits;
constexpr std::uint32_t kLocalMask = (std::uint32_t{1} << kLocalBits) - 1;
/// A slot holds a local id under kTagBits more fingerprint bits, the ones
/// just below the shard bits, so a probe reads a node's fingerprint only
/// when the tags match.
constexpr unsigned kTagBits = 32 - kLocalBits;
/// The free slot. It equals tag 2^kTagBits - 1 over local id kLocalMask, so
/// that id is never handed out: a shard holds at most 2^kLocalBits - 1 nodes.
constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

/// The largest max_states explore_por accepts: one shard's local id space.
/// A capped layer may overshoot the cap before the cut is known, so the
/// shard tables still check their own bound (see shard_table::admit).
constexpr usize kMaxStates = usize{1} << kLocalBits;

constexpr usize shard_of(const fingerprint& fp) {
  return static_cast<usize>(fp.a >> (64 - kShardBits));
}

/// fp's slot tag, already shifted into the slot's top bits.
constexpr std::uint32_t tag_of(const fingerprint& fp) {
  return static_cast<std::uint32_t>(fp.a >> (32 - kShardBits)) & ~kLocalMask;
}

/// What admitting one arrival did to its target node.
enum class outcome : std::uint8_t {
  seen,          ///< known node, nothing new to explore (or tightened in place)
  created,       ///< new node, queued for the next layer
  created_leaf,  ///< new quiescent node: counted, never expanded
  resumed,       ///< known node whose sleep set shrank: queued again
};

constexpr bool queues(outcome o) {
  return o == outcome::created || o == outcome::resumed;
}

/// What the verdicts read off a state, taken once where the state is built:
/// the shard merge and the capped cut never see the state itself.
struct state_facts {
  bool terminal = false;  ///< quiescent: counted, never expanded
  bool duplicate = false;
  bool lemma62_holds = true;
  std::uint8_t jobs_performed = 0;  ///< at most max_jobs
};

state_facts facts_of(const sys_state& st, const model_config& cfg) {
  return {quiescent(st, cfg), st.duplicate, lemma62_holds(st, cfg),
          static_cast<std::uint8_t>(jobs_performed(st))};
}

/// Verdict and count contributions of a set of admissions. Every field is
/// an order-blind sum, min, max or OR, so per-shard tallies apply to the
/// result in any order.
struct tally {
  usize states = 0;
  usize quiescent_states = 0;
  usize resumed_states = 0;
  usize min_effectiveness = ~usize{0};
  usize max_effectiveness = 0;
  bool duplicate_found = false;
  bool lemma62_violated = false;

  void add_state(const state_facts& f) {
    ++states;
    if (f.duplicate) duplicate_found = true;
    if (!f.lemma62_holds) lemma62_violated = true;
    if (f.terminal) {
      ++quiescent_states;
      const usize e = f.jobs_performed;
      if (e < min_effectiveness) min_effectiveness = e;
      if (e > max_effectiveness) max_effectiveness = e;
    }
  }

  void apply(explore_result& r, por_stats& s) const {
    r.states += states;
    r.quiescent_states += quiescent_states;
    s.resumed_states += resumed_states;
    r.min_effectiveness = std::min(r.min_effectiveness, min_effectiveness);
    r.max_effectiveness = std::max(r.max_effectiveness, max_effectiveness);
    r.duplicate_found = r.duplicate_found || duplicate_found;
    r.lemma62_violated = r.lemma62_violated || lemma62_violated;
  }
};

/// One shard of the visited set. The slot table maps a fingerprint to its
/// local id (linear probing from fingerprint::b, power-of-two capacity, at
/// most 3/4 full) and holds nothing else: each node's fingerprint and sleep
/// set live once, in per-node arrays indexed by local id. Those arrays grow
/// a fixed-size page at a time, so no node byte is ever copied, and a
/// grow() rehashes 4-byte slots only.
class shard_table {
 public:
  explicit shard_table(std::uint32_t shard)
      : base_(shard << kLocalBits), slots_(256, kEmpty) {}

  /// Admits one arrival of the current layer's merge: dedup, AND-merge,
  /// verdicts for a new node. Writes the target node's key.
  outcome admit(const fingerprint& fp, const state_facts& facts, amask sleep,
                std::uint32_t& key) {
    if ((usize{size_} + 1) * 4 > slots_.size() * 3) grow();
    const std::uint32_t tag = tag_of(fp);
    std::uint32_t& slot = find(fp, tag);
    if (slot == kEmpty) {
      if (size_ >= kLocalMask) {
        throw std::length_error(
            "explore_por: a visited-table shard exceeded its 2^" +
            std::to_string(kLocalBits) + " - 1 node ids");
      }
      if ((size_ & kPageMask) == 0) pages_.push_back(std::make_unique<page>());
      const std::uint32_t local = size_++;
      slot = tag | local;
      key = base_ | local;
      page& pg = page_of(local);
      pg.fp[local & kPageMask] = fp;
      // Terminal states store an empty mask: nothing to expand, so no
      // later arrival can ever re-queue them.
      pg.sleep[local & kPageMask] = facts.terminal ? amask{0} : sleep;
      layer_tally.add_state(facts);
      return facts.terminal ? outcome::created_leaf : outcome::created;
    }
    const std::uint32_t local = slot & kLocalMask;
    key = base_ | local;
    amask& held = page_of(local).sleep[local & kPageMask];
    const amask merged = static_cast<amask>(held & sleep);
    if (merged == held) return outcome::seen;  // explored this much
    held = merged;
    // A node this merge already queued, created by it or resumed by an
    // earlier arrival, is tightened in place: the queued item reads
    // `sleep` when the next layer is laid out. A known node can only be
    // reached after begin_layer().
    if (local >= layer_starts_.back() ||
        std::find(resumed_.begin(), resumed_.end(), local) != resumed_.end()) {
      return outcome::seen;
    }
    resumed_.push_back(local);
    ++layer_tally.resumed_states;
    return outcome::resumed;
  }

  /// Starts loading the slot a probe for fp begins at.
  void prefetch(const fingerprint& fp) const {
    __builtin_prefetch(
        &slots_[static_cast<usize>(fp.b) & (slots_.size() - 1)]);
  }

  [[nodiscard]] amask sleep_of(std::uint32_t key) const {
    return page_of(key & kLocalMask).sleep[key & kPageMask];
  }
  [[nodiscard]] usize size() const { return size_; }
  /// The bytes the table holds: slots, node pages, layer marks and the
  /// resumed list.
  [[nodiscard]] usize bytes() const {
    return slots_.capacity() * sizeof(std::uint32_t) +
           pages_.size() * sizeof(page) +
           pages_.capacity() * sizeof(pages_[0]) +
           (layer_starts_.capacity() + resumed_.capacity()) *
               sizeof(std::uint32_t);
  }

  /// Marks the start of a layer's merge. Local ids are handed out in
  /// admission order, so these marks date every node without per-node
  /// bytes.
  void begin_layer() {
    layer_starts_.push_back(size_);
    resumed_.clear();
  }
  /// The layer whose merge created the node (0 for the initial state).
  [[nodiscard]] std::uint32_t born(std::uint32_t key) const {
    return static_cast<std::uint32_t>(
        std::upper_bound(layer_starts_.begin(), layer_starts_.end(),
                         key & kLocalMask) -
        layer_starts_.begin());
  }

  /// Contributions of the admissions since the last reset.
  tally layer_tally;

 private:
  static constexpr unsigned kPageBits = 6;
  static constexpr std::uint32_t kPageMask = (std::uint32_t{1} << kPageBits) - 1;

  /// The per-node arrays for 2^kPageBits consecutive local ids.
  struct page {
    std::array<fingerprint, kPageMask + 1> fp;
    /// The smallest sleep set the state has been explored with. A revisit
    /// with a smaller set re-expands the state (the newly awake actions
    /// were not covered), AND-merging masks so the exploration is the
    /// union of what every arrival requires.
    std::array<amask, kPageMask + 1> sleep;
  };

  [[nodiscard]] page& page_of(std::uint32_t local) const {
    return *pages_[local >> kPageBits];
  }

  /// fp's slot, or the free slot where it belongs.
  std::uint32_t& find(const fingerprint& fp, std::uint32_t tag) {
    const usize mask = slots_.size() - 1;
    for (usize i = static_cast<usize>(fp.b) & mask;; i = (i + 1) & mask) {
      std::uint32_t& slot = slots_[i];
      if (slot == kEmpty) return slot;
      if ((slot & ~kLocalMask) == tag) {
        const std::uint32_t local = slot & kLocalMask;
        if (page_of(local).fp[local & kPageMask] == fp) return slot;
      }
    }
  }

  void grow() {
    slots_.assign(slots_.size() * 2, kEmpty);
    const usize mask = slots_.size() - 1;
    for (std::uint32_t local = 0; local < size_; ++local) {
      const fingerprint& fp = page_of(local).fp[local & kPageMask];
      usize i = static_cast<usize>(fp.b) & mask;
      for (; slots_[i] != kEmpty; i = (i + 1) & mask) {
      }
      slots_[i] = tag_of(fp) | local;
    }
  }

  std::uint32_t base_;
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> slots_;
  std::vector<std::unique_ptr<page>> pages_;
  /// size_ when each layer's merge began, layer 1 first.
  std::vector<std::uint32_t> layer_starts_;
  /// Nodes born before the current merge that it has resumed. Few nodes
  /// are ever resumed, so a short list costs less than a per-node stamp.
  std::vector<std::uint32_t> resumed_;
};

// ---------------------------------------------------------------------------
// Layered frontier
// ---------------------------------------------------------------------------

/// One state awaiting expansion, packed: the layout packs it once and
/// expand unpacks it once.
struct work_item {
  packed_state st;
  amask sleep = 0;        ///< actions proven covered by sibling branches
  std::uint32_t key = 0;  ///< node key in the sharded visited table
};
static_assert(sizeof(work_item) <= 48);
static_assert(std::is_trivially_copyable_v<work_item> &&
              std::is_trivially_destructible_v<work_item>);

/// Deallocates a frontier's slots; `capacity` is the allocated count.
struct release_slots {
  usize capacity = 0;
  void operator()(work_item* p) const {
    std::allocator<work_item>().deallocate(p, capacity);
  }
};

/// One layer of work items in uninitialized storage. The layout tasks
/// construct every slot in place, so sizing the next layer writes nothing
/// on the calling thread; work_item is trivially destructible, so slots
/// are reused and released without destructor calls.
class frontier {
 public:
  /// Sizes the layer to n slots, none constructed: the caller constructs
  /// each one before it is read.
  void resize_for_overwrite(usize n) {
    if (n > slots_.get_deleter().capacity) {
      slots_ = {std::allocator<work_item>().allocate(n), release_slots{n}};
    }
    size_ = n;
  }
  [[nodiscard]] work_item* data() const { return slots_.get(); }
  [[nodiscard]] usize size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  std::unique_ptr<work_item[], release_slots> slots_;
  usize size_ = 0;
};

/// One emitted edge: the successor's fingerprint and facts, the sleep set
/// it inherits, and — once its shard has merged it — the node it reached.
/// It holds no state: the layout rebuilds a queued successor from its
/// parent, which is still in the layer.
struct arrival {
  fingerprint fp;
  std::uint32_t parent = 0;  ///< the parent's slot in the current layer
  std::uint32_t from = 0;    ///< the parent's node key
  std::uint32_t target = 0;
  amask act = 0;  ///< bit_of the action taken
  amask sleep = 0;
  outcome result = outcome::seen;
  state_facts facts;
};
static_assert(sizeof(arrival) <= 48);

/// Per-block expansion output. Global arrival order is (block, position).
struct block_out {
  std::vector<arrival> arrivals;
  /// Arrival positions grouped by shard, in position order within each
  /// shard: shard s owns order[shard_begin[s] .. shard_begin[s + 1]).
  std::vector<std::uint32_t> order;
  std::array<std::uint32_t, kShards + 1> shard_begin{};
  /// Arrivals of each shard that queue a node for the next layer.
  std::array<std::uint32_t, kShards> queued{};
  /// Targets of this block's retreating edges, in arrival order.
  std::vector<std::uint32_t> roots;
  usize next_base = 0;  ///< this block's first slot in the next layer
  usize edge_base = 0;  ///< this block's first slot in the layer's edge block
  usize sleep_pruned = 0;
  usize singleton_states = 0;
  usize full_states = 0;
};

/// Expands one state: choose the persistent set, drop sleeping actions,
/// emit every explored edge with its successor's inherited sleep set
/// ({b in sleep ∪ explored-earlier-siblings : independent(b, a)}).
void expand(const work_item& item, std::uint32_t slot, const model_config& cfg,
            block_out& out) {
  const sys_state st = unpack(item.st, cfg);
  action exp_set[2 * max_procs];
  bool singleton = false;
  const usize count = choose_expansion(st, cfg, exp_set, singleton);
  if (singleton) {
    ++out.singleton_states;
  } else {
    ++out.full_states;
  }
  amask earlier = 0;
  for (usize i = 0; i < count; ++i) {
    const action a = exp_set[i];
    if ((item.sleep & bit_of(a)) != 0) {
      ++out.sleep_pruned;
      continue;
    }
    const amask candidates = static_cast<amask>(item.sleep | earlier);
    amask child_sleep = 0;
    if (candidates != 0) {
      for (process_id p = 1; p <= cfg.m; ++p) {
        const action b_step{false, p};
        if ((candidates & step_bit(p)) != 0 &&
            independent(st, cfg, b_step, a)) {
          child_sleep |= step_bit(p);
        }
        const action b_crash{true, p};
        if ((candidates & crash_bit(p)) != 0 &&
            independent(st, cfg, b_crash, a)) {
          child_sleep |= crash_bit(p);
        }
      }
    }
    const sys_state succ = successor(st, cfg, a);
    arrival& arr = out.arrivals.emplace_back();
    arr.fp = fingerprint_of(succ, cfg);
    arr.parent = slot;
    arr.from = item.key;
    arr.act = bit_of(a);
    arr.sleep = child_sleep;
    arr.facts = facts_of(succ, cfg);
    earlier = static_cast<amask>(earlier | bit_of(a));
  }
}

/// Expands layer slots [lo, hi) and buckets their arrivals by shard.
void expand_block(const work_item* layer, usize lo, usize hi,
                  const model_config& cfg, block_out& out) {
  out.arrivals.clear();
  out.sleep_pruned = 0;
  out.singleton_states = 0;
  out.full_states = 0;
  for (usize i = lo; i < hi; ++i) {
    expand(layer[i], static_cast<std::uint32_t>(i), cfg, out);
  }

  out.shard_begin.fill(0);
  for (const arrival& arr : out.arrivals) ++out.shard_begin[shard_of(arr.fp) + 1];
  for (usize s = 0; s < kShards; ++s) {
    out.shard_begin[s + 1] += out.shard_begin[s];
  }
  std::array<std::uint32_t, kShards> fill{};
  std::copy_n(out.shard_begin.begin(), kShards, fill.begin());
  out.order.resize(out.arrivals.size());
  for (usize i = 0; i < out.arrivals.size(); ++i) {
    out.order[fill[shard_of(out.arrivals[i].fp)]++] =
        static_cast<std::uint32_t>(i);
  }
}

void count_expansions(const block_out& out, por_stats& s) {
  s.sleep_pruned += out.sleep_pruned;
  s.singleton_states += out.singleton_states;
  s.full_states += out.full_states;
}

/// Runs fn(0..count-1) on the pool, or inline without one: the serial run
/// is the same tasks in index order.
void for_each_task(svc::worker_pool* pool, usize count,
                   const std::function<void(usize)>& fn) {
  if (pool != nullptr && pool->size() > 1 && count > 1) {
    pool->run_indexed(count, fn);
  } else {
    for (usize i = 0; i < count; ++i) fn(i);
  }
}

}  // namespace

namespace detail {

// Replaces the DFS on-stack test the layered frontier cannot perform
// inline. Every stored edge is a real model transition, so a cycle here is
// a cycle of the reduced (hence full) graph.
cycle_search has_cycle(std::uint32_t nodes, edge_blocks&& blocks,
                       const std::vector<std::uint32_t>& roots) {
  cycle_search out;
  if (roots.empty()) return out;
  // head[u] counts u's edges, then (prefix sums) marks the end of u's
  // range. Placing the edges in reverse global order at --head[from]
  // leaves head[u] at the range's start and each source's edges in
  // arrival order, with no fill array; each block is released as soon as
  // its edges are placed.
  std::vector<std::uint32_t> head(static_cast<usize>(nodes) + 1, 0);
  for (const auto& block : blocks) {
    for (const auto& e : block) ++head[e.first];
  }
  for (usize i = 1; i <= nodes; ++i) head[i] += head[i - 1];
  std::vector<std::uint32_t> adj(head[nodes]);
  for (; !blocks.empty(); blocks.pop_back()) {
    const auto& block = blocks.back();
    for (auto e = block.rbegin(); e != block.rend(); ++e) {
      adj[--head[e->first]] = e->second;
    }
  }

  std::vector<std::uint8_t> color(nodes, 0);  // 0 white, 1 on path, 2 done
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;  // node, cursor
  for (const std::uint32_t root : roots) {
    if (color[root] != 0) continue;
    color[root] = 1;
    ++out.reached;
    stack.emplace_back(root, head[root]);
    while (!stack.empty()) {
      auto& [u, cur] = stack.back();
      if (cur == head[u + 1]) {
        color[u] = 2;
        stack.pop_back();
        continue;
      }
      const std::uint32_t v = adj[cur++];
      if (color[v] == 1) {
        out.found = true;
        return out;
      }
      if (color[v] == 0) {
        color[v] = 1;
        ++out.reached;
        stack.emplace_back(v, head[v]);
      }
    }
  }
  return out;
}

}  // namespace detail

explore_result explore_por(const por_options& opt, por_stats& stats) {
  const model_config& cfg = opt.cfg;
  check_config(cfg, "explore_por");
  if (opt.max_states > kMaxStates) {
    throw std::invalid_argument(
        "explore_por: max_states = " + std::to_string(opt.max_states) +
        " exceeds the limit of " + std::to_string(kMaxStates) +
        " states (2^" + std::to_string(kLocalBits) +
        " node ids per visited-table shard)");
  }
  explore_result result;
  stats = por_stats{};

  obs::span sp("model", "explore_por");
  stopwatch clock;

  std::vector<shard_table> shards;
  shards.reserve(kShards);
  for (usize s = 0; s < kShards; ++s) {
    shards.emplace_back(static_cast<std::uint32_t>(s));
  }
  // Edges between node keys, in global arrival order, one block per layer.
  detail::edge_blocks edges;
  // Targets of the retreating edges (detail::retreating), in the same order.
  std::vector<std::uint32_t> roots;
  frontier layer;
  frontier next;

  // Only an arrival at a known node can retreat: a created node is born in
  // the current layer, after every node expanded in it.
  const auto retreats = [&shards](const arrival& arr) {
    if (arr.result != outcome::seen && arr.result != outcome::resumed) {
      return false;
    }
    return detail::retreating(
        shards[arr.from >> kLocalBits].born(arr.from),
        shards[arr.target >> kLocalBits].born(arr.target));
  };

  {
    sys_state root = initial_state(cfg);
    const fingerprint fp = fingerprint_of(root, cfg);
    shard_table& home = shards[shard_of(fp)];
    std::uint32_t key = 0;
    if (queues(home.admit(fp, facts_of(root, cfg), 0, key))) {
      layer.resize_for_overwrite(1);
      std::construct_at(layer.data(), work_item{pack(root), 0, key});
    }
    home.layer_tally.apply(result, stats);
  }
  bool capped = result.states >= opt.max_states;

  constexpr usize kBlock = 128;
  std::vector<block_out> outs;

  while (!layer.empty() && !capped) {
    ++stats.layers;
    if (layer.size() > stats.peak_frontier) stats.peak_frontier = layer.size();
    if (obs::enabled()) {
      obs::counter("model", "frontier", static_cast<double>(layer.size()));
      obs::counter("model", "sleep_hits",
                   static_cast<double>(stats.sleep_pruned));
      const double secs = clock.seconds();
      if (secs > 0.0) {
        obs::counter("model", "states_per_s",
                     static_cast<double>(result.states) / secs);
      }
    }

    // 1. Expand the layer in fixed-size blocks.
    const usize blocks = (layer.size() + kBlock - 1) / kBlock;
    outs.resize(blocks);
    for_each_task(opt.pool, blocks, [&](usize b) {
      const usize lo = b * kBlock;
      const usize hi = lo + kBlock < layer.size() ? lo + kBlock : layer.size();
      expand_block(layer.data(), lo, hi, cfg, outs[b]);
    });

    // 2. Merge every shard's arrivals in global (block, position) order.
    // A fingerprint's arrivals all land in one shard, in the order the
    // serial scan would admit them, so each node sees the same sequence of
    // AND-merges at any pool size. The first slot of the arrival
    // kPrefetch ahead is loaded while this one is admitted.
    constexpr std::uint32_t kPrefetch = 8;
    for_each_task(opt.pool, kShards, [&](usize s) {
      shard_table& t = shards[s];
      t.layer_tally = tally{};
      t.begin_layer();
      for (usize b = 0; b < blocks; ++b) {
        block_out& out = outs[b];
        std::uint32_t queued = 0;
        const std::uint32_t end = out.shard_begin[s + 1];
        for (std::uint32_t k = out.shard_begin[s]; k < end; ++k) {
          if (k + kPrefetch < end) {
            t.prefetch(out.arrivals[out.order[k + kPrefetch]].fp);
          }
          arrival& arr = out.arrivals[out.order[k]];
          arr.result = t.admit(arr.fp, arr.facts, arr.sleep, arr.target);
          if (queues(arr.result)) ++queued;
        }
        out.queued[s] = queued;
      }
    });

    usize created = 0;
    for (const shard_table& t : shards) created += t.layer_tally.states;
    if (result.states + created >= opt.max_states) {
      // The cap falls inside this layer: cut at the max_states-th new state
      // in global arrival order, as a serial admission loop would, and
      // count only what precedes the cut (reduction stats by whole block).
      capped = true;
      tally cut;
      const usize want = opt.max_states - result.states;
      auto& cut_edges = edges.emplace_back();
      for (usize b = 0; b < blocks && cut.states < want; ++b) {
        const block_out& out = outs[b];
        count_expansions(out, stats);
        for (const arrival& arr : out.arrivals) {
          ++result.transitions;
          cut_edges.emplace_back(arr.from, arr.target);
          if (retreats(arr)) roots.push_back(arr.target);
          if (arr.result == outcome::resumed) ++cut.resumed_states;
          if (arr.result == outcome::created ||
              arr.result == outcome::created_leaf) {
            cut.add_state(arr.facts);
            if (cut.states == want) break;
          }
        }
      }
      cut.apply(result, stats);
      break;
    }
    for (const shard_table& t : shards) t.layer_tally.apply(result, stats);

    // 3. Lay out the next layer (queued nodes in global arrival order) and
    // the edges, then fill both per block, collecting retreating edges. A
    // queued node's state is rebuilt from its arrival's parent, with the
    // same pure step the expansion took, and packed. A parent's arrivals
    // are adjacent, so each parent is unpacked once.
    usize queued_total = 0;
    usize edge_total = 0;
    for (usize b = 0; b < blocks; ++b) {
      block_out& out = outs[b];
      count_expansions(out, stats);
      result.transitions += out.arrivals.size();
      out.next_base = queued_total;
      out.edge_base = edge_total;
      for (const std::uint32_t q : out.queued) queued_total += q;
      edge_total += out.arrivals.size();
    }
    next.resize_for_overwrite(queued_total);
    auto& layer_edges = edges.emplace_back(edge_total);
    for_each_task(opt.pool, blocks, [&](usize b) {
      block_out& out = outs[b];
      out.roots.clear();
      usize q = out.next_base;
      usize e = out.edge_base;
      std::uint32_t unpacked = ~std::uint32_t{0};
      sys_state parent;
      for (const arrival& arr : out.arrivals) {
        layer_edges[e++] = {arr.from, arr.target};
        if (queues(arr.result)) {
          if (arr.parent != unpacked) {
            parent = unpack(layer.data()[arr.parent].st, cfg);
            unpacked = arr.parent;
          }
          std::construct_at(
              next.data() + q++,
              work_item{pack(successor(parent, cfg, action_of(arr.act))),
                        shards[arr.target >> kLocalBits].sleep_of(arr.target),
                        arr.target});
        }
        if (retreats(arr)) out.roots.push_back(arr.target);
      }
    });
    for (usize b = 0; b < blocks; ++b) {
      roots.insert(roots.end(), outs[b].roots.begin(), outs[b].roots.end());
    }
    std::swap(layer, next);
  }

  // Node keys -> dense ids (shard-major) for the cycle check.
  std::array<std::uint32_t, kShards> base{};
  usize node_count = 0;
  for (usize s = 0; s < kShards; ++s) {
    base[s] = static_cast<std::uint32_t>(node_count);
    node_count += shards[s].size();
  }
  stats.stored_bytes = edges.capacity() * sizeof(edges[0]) +
                       roots.capacity() * sizeof(roots[0]);
  for (const auto& block : edges) {
    stats.stored_bytes += block.capacity() * sizeof(block[0]);
  }
  for (const shard_table& t : shards) stats.stored_bytes += t.bytes();
  // Free the tables and the frontier before the cycle check allocates its
  // CSR arrays, so the two do not add up in peak memory.
  shards = std::vector<shard_table>();
  outs = {};
  layer = {};
  next = {};
  stats.cycle_roots = roots.size();
  {
    obs::span cs("model", "cycle_check");
    if (!roots.empty()) {
      const auto dense = [&base](std::uint32_t key) {
        return base[key >> kLocalBits] + (key & kLocalMask);
      };
      for (auto& block : edges) {
        for (auto& [from, to] : block) {
          from = dense(from);
          to = dense(to);
        }
      }
      for (std::uint32_t& r : roots) r = dense(r);
      const detail::cycle_search found = detail::has_cycle(
          static_cast<std::uint32_t>(node_count), std::move(edges), roots);
      result.cycle_found = found.found;
      stats.cycle_reached = found.reached;
    }
    cs.arg("roots", static_cast<std::uint64_t>(stats.cycle_roots));
    cs.arg("reached", static_cast<std::uint64_t>(stats.cycle_reached));
  }
  result.complete = !capped;
  result.max_depth = stats.layers;
  if (result.quiescent_states == 0) result.min_effectiveness = 0;

  sp.arg("states", static_cast<std::uint64_t>(result.states));
  sp.arg("transitions", static_cast<std::uint64_t>(result.transitions));
  sp.arg("sleep_pruned", static_cast<std::uint64_t>(stats.sleep_pruned));
  sp.arg("peak_frontier", static_cast<std::uint64_t>(stats.peak_frontier));
  sp.arg("layers", static_cast<std::uint64_t>(stats.layers));
  sp.arg("cycle_roots", static_cast<std::uint64_t>(stats.cycle_roots));
  sp.arg("stored_bytes", static_cast<std::uint64_t>(stats.stored_bytes));
  return result;
}

explore_result explore_por(const por_options& opt) {
  por_stats stats;
  return explore_por(opt, stats);
}

}  // namespace amo::model
