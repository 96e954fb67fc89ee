#include "model/kk_model.hpp"

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "util/prng.hpp"

namespace amo::model {

namespace {

constexpr job_mask bit_of(std::uint8_t job) {
  return static_cast<job_mask>(job_mask{1} << (job - 1));
}

/// k-th (1-based) set bit of mask, as a job id.
std::uint8_t select_bit(job_mask mask, usize k) {
  assert(k >= 1 && k <= static_cast<usize>(std::popcount(mask)));
  for (usize i = 1; i < k; ++i) mask &= static_cast<job_mask>(mask - 1);
  return static_cast<std::uint8_t>(std::countr_zero(mask) + 1);
}

/// Mirrors kk_process::choose_rank_index + rank_excluding: the Fig. 2
/// candidate for process p given its FREE and TRY views.
std::uint8_t choose_candidate(const proc_state& ps, const model_config& cfg,
                              process_id p) {
  const job_mask avail_mask = static_cast<job_mask>(ps.free & ~ps.try_);
  const usize avail = static_cast<usize>(std::popcount(avail_mask));
  assert(avail > 0);
  usize idx;
  if (cfg.rule == selection_rule::two_ends) {
    if (p % 2 == 1) {
      idx = (p + 1) / 2;
    } else {
      const usize from_high = p / 2;
      idx = avail >= from_high ? avail - from_high + 1 : 1;
    }
  } else {
    const usize f = static_cast<usize>(std::popcount(ps.free));
    if (f >= 2 * cfg.m - 1) {
      idx = static_cast<usize>((static_cast<std::uint64_t>(p - 1) *
                                static_cast<std::uint64_t>(f - cfg.m + 1)) /
                               cfg.m) +
            1;
    } else {
      idx = p;
    }
  }
  if (idx > avail) idx = avail;
  return select_bit(avail_mask, idx);
}

}  // namespace

void check_config(const model_config& cfg, const char* who) {
  const auto within = [&](const char* name, usize v, usize lo, usize hi) {
    if (v >= lo && v <= hi) return;
    throw std::invalid_argument(
        std::string(who) + ": " + name + " = " + std::to_string(v) +
        " is outside the model [" + std::to_string(lo) + ", " +
        (hi == ~usize{0} ? "inf" : std::to_string(hi)) + "]");
  };
  within("n", cfg.n, 1, max_jobs);
  within("m", cfg.m, 1, max_procs);
  within("beta", cfg.beta, 1, ~usize{0});
  within("crash_budget", cfg.crash_budget, 0, cfg.m - 1);  // f <= m - 1
}

sys_state initial_state(const model_config& cfg) {
  assert(cfg.n >= 1 && cfg.n <= max_jobs);
  assert(cfg.m >= 1 && cfg.m <= max_procs);
  sys_state s{};
  for (usize p = 0; p < cfg.m; ++p) {
    proc_state& ps = s.procs[p];
    ps.status = cfg.mode == kk_mode::plain ? kk_status::comp_next
                                           : kk_status::flag_poll;
    ps.free = static_cast<job_mask>((job_mask{1} << cfg.n) - 1);
    for (usize q = 0; q < cfg.m; ++q) ps.pos[q] = 1;
  }
  return s;
}

bool lemma62_holds(const sys_state& s, const model_config& cfg) {
  for (usize p = 0; p < cfg.m; ++p) {
    if (s.procs[p].has_output && (s.procs[p].output & s.performed) != 0) {
      return false;
    }
  }
  return true;
}

bool runnable(const sys_state& s, [[maybe_unused]] const model_config& cfg,
              process_id p) {
  assert(p >= 1 && p <= cfg.m);
  const kk_status st = s.procs[p - 1].status;
  return st != kk_status::end && st != kk_status::stop;
}

bool quiescent(const sys_state& s, const model_config& cfg) {
  for (process_id p = 1; p <= cfg.m; ++p) {
    if (runnable(s, cfg, p)) return false;
  }
  return true;
}

namespace {

void begin_finalize(proc_state& ps) {
  ps.finalizing = true;
  ps.q = 1;
  ps.try_ = 0;
  ps.status = kk_status::gather_try;
}

void finish_output(proc_state& ps, const model_config& cfg) {
  if (cfg.mode != kk_mode::plain) {
    ps.output = cfg.mode == kk_mode::wa_iter_step
                    ? ps.free
                    : static_cast<job_mask>(ps.free & ~ps.try_);
    ps.has_output = true;
  }
  ps.status = kk_status::end;
}

}  // namespace

sys_state step(const sys_state& s, const model_config& cfg, process_id p) {
  assert(runnable(s, cfg, p));
  sys_state out = s;
  proc_state& ps = out.procs[p - 1];
  switch (ps.status) {
    case kk_status::flag_poll: {
      if (out.flag) {
        begin_finalize(ps);
      } else {
        ps.status = kk_status::comp_next;
      }
      break;
    }
    case kk_status::flag_raise: {
      out.flag = true;
      begin_finalize(ps);
      break;
    }
    case kk_status::flag_gate: {
      if (out.flag) {
        begin_finalize(ps);
      } else {
        ps.status = kk_status::perform;
      }
      break;
    }
    case kk_status::comp_next: {
      const usize avail =
          static_cast<usize>(std::popcount(static_cast<job_mask>(ps.free & ~ps.try_)));
      if (avail >= cfg.beta && avail > 0) {
        ps.next = choose_candidate(ps, cfg, p);
        ps.q = 1;
        ps.try_ = 0;
        ps.status = kk_status::set_next;
      } else if (cfg.mode == kk_mode::plain) {
        ps.status = kk_status::end;
      } else {
        ps.status = kk_status::flag_raise;
      }
      break;
    }
    case kk_status::set_next: {
      out.next_reg[p - 1] = ps.next;
      ps.status = kk_status::gather_try;
      break;
    }
    case kk_status::gather_try: {
      if (ps.q != p) {
        const std::uint8_t v = out.next_reg[ps.q - 1];
        if (v != 0) ps.try_ |= bit_of(v);
      }
      if (static_cast<usize>(ps.q) + 1 <= cfg.m) {
        ++ps.q;
      } else {
        ps.q = 1;
        ps.status = kk_status::gather_done;
      }
      break;
    }
    case kk_status::gather_done: {
      bool advance = true;
      if (ps.q != p) {
        const usize pos = ps.pos[ps.q - 1];
        if (pos <= cfg.n) {
          const std::uint8_t v =
              pos <= out.row_len[ps.q - 1] ? out.rows[ps.q - 1][pos - 1] : 0;
          if (v != 0) {
            ps.done |= bit_of(v);
            ps.free = static_cast<job_mask>(ps.free & ~bit_of(v));
            ps.pos[ps.q - 1] = static_cast<std::uint8_t>(pos + 1);
            advance = false;
          }
        }
      }
      if (advance) {
        ++ps.q;
        if (ps.q > cfg.m) {
          ps.q = 1;
          if (ps.finalizing) {
            finish_output(ps, cfg);
          } else {
            ps.status = kk_status::check;
          }
        }
      }
      break;
    }
    case kk_status::check: {
      const job_mask nb = bit_of(ps.next);
      const bool conflict = (ps.try_ & nb) != 0 || (ps.done & nb) != 0;
      if (conflict) {
        ps.status = cfg.mode == kk_mode::plain ? kk_status::comp_next
                                               : kk_status::flag_poll;
      } else {
        ps.status = cfg.mode == kk_mode::plain ? kk_status::perform
                                               : kk_status::flag_gate;
      }
      break;
    }
    case kk_status::perform: {
      const job_mask nb = bit_of(ps.next);
      if ((out.performed & nb) != 0) out.duplicate = true;
      out.performed |= nb;
      ps.status = kk_status::record;
      break;
    }
    case kk_status::record: {
      const job_mask nb = bit_of(ps.next);
      out.rows[p - 1][out.row_len[p - 1]] = ps.next;
      ++out.row_len[p - 1];
      ps.done |= nb;
      ps.free = static_cast<job_mask>(ps.free & ~nb);
      ps.status = cfg.mode == kk_mode::plain ? kk_status::comp_next
                                             : kk_status::flag_poll;
      break;
    }
    default:
      assert(false && "end/stop are not steppable");
  }
  return out;
}

sys_state crash(const sys_state& s, [[maybe_unused]] const model_config& cfg,
                process_id p) {
  assert(runnable(s, cfg, p));
  assert(s.crashes < cfg.crash_budget);
  sys_state out = s;
  out.procs[p - 1].status = kk_status::stop;
  ++out.crashes;
  return out;
}

usize jobs_performed(const sys_state& s) {
  return static_cast<usize>(std::popcount(s.performed));
}

namespace {

// pack keeps exactly the bits of a sys_state's object representation that
// a reachable state can set, in memory order: it reads the state as
// kStateWords 64-bit words and extracts each word's bits under a mask
// computed at compile time from the fields' offsets and widest values.
// Padding, the always-zero high bits of each small field and POS_p[p] are
// left out.
static_assert(std::is_trivially_copyable_v<sys_state> &&
              std::is_standard_layout_v<sys_state>);
static_assert(sizeof(sys_state) % sizeof(std::uint64_t) == 0);
constexpr usize kStateWords = sizeof(sys_state) / sizeof(std::uint64_t);
using state_words = std::array<std::uint64_t, kStateWords>;
/// pack's output as whole words: the first kFullWords are copied, the last
/// one's low bits are stored byte by byte.
constexpr usize kFullWords = sizeof(packed_state) / sizeof(std::uint64_t);
constexpr usize kTailBytes = sizeof(packed_state) % sizeof(std::uint64_t);
using packed_words = std::array<std::uint64_t, kFullWords + 1>;

/// Marks in `w` the bits that a field of `size` bytes at byte `offset` of
/// the state uses for values up to `max`.
constexpr void mark(state_words& w, usize offset, usize size, unsigned max) {
  constexpr bool little = std::endian::native == std::endian::little;
  for (unsigned b = 0; b < static_cast<unsigned>(std::bit_width(max)); ++b) {
    const usize byte = offset + (little ? b / 8 : size - 1 - b / 8);
    const usize in_word = little ? byte % 8 : 7 - byte % 8;
    w[byte / 8] |= std::uint64_t{1} << (8 * in_word + b % 8);
  }
}

constexpr state_words stored_bits() {
  constexpr unsigned id = max_jobs + 1;  // a job id, row length or position
  constexpr unsigned all = (1u << max_jobs) - 1;  // a job mask
  state_words w{};
  for (usize p = 0; p < max_procs; ++p) {
    mark(w, offsetof(sys_state, next_reg) + p, 1, id);
    mark(w, offsetof(sys_state, row_len) + p, 1, id);
    for (usize i = 0; i < max_jobs; ++i) {
      mark(w, offsetof(sys_state, rows) + p * max_jobs + i, 1, id);
    }
    const usize ps = offsetof(sys_state, procs) + p * sizeof(proc_state);
    mark(w, ps + offsetof(proc_state, status), 1,
         static_cast<unsigned>(kk_status::stop));
    mark(w, ps + offsetof(proc_state, next), 1, id);
    mark(w, ps + offsetof(proc_state, q), 1, max_procs);
    mark(w, ps + offsetof(proc_state, finalizing), 1, 1);
    mark(w, ps + offsetof(proc_state, has_output), 1, 1);
    mark(w, ps + offsetof(proc_state, free), sizeof(job_mask), all);
    mark(w, ps + offsetof(proc_state, done), sizeof(job_mask), all);
    mark(w, ps + offsetof(proc_state, try_), sizeof(job_mask), all);
    mark(w, ps + offsetof(proc_state, output), sizeof(job_mask), all);
    for (usize q = 0; q < max_procs; ++q) {
      if (q != p) mark(w, ps + offsetof(proc_state, pos) + q, 1, id);
    }
  }
  mark(w, offsetof(sys_state, flag), 1, 1);
  mark(w, offsetof(sys_state, performed), sizeof(job_mask), all);
  mark(w, offsetof(sys_state, duplicate), 1, 1);
  mark(w, offsetof(sys_state, crashes), 1, max_procs - 1);
  return w;
}

/// Where pack keeps one word of the state: its stored bits, and the bit
/// offset and width of their run in packed_words.
struct word_plan {
  std::uint64_t mask = 0;
  unsigned at = 0;
  unsigned width = 0;
};

constexpr std::array<word_plan, kStateWords> plan_words() {
  const state_words masks = stored_bits();
  std::array<word_plan, kStateWords> plan{};
  unsigned at = 0;
  for (usize i = 0; i < kStateWords; ++i) {
    const auto width = static_cast<unsigned>(std::popcount(masks[i]));
    plan[i] = {masks[i], at, width};
    at += width;
  }
  return plan;
}

constexpr std::array<word_plan, kStateWords> kPlan = plan_words();
constexpr unsigned kPackedBits = kPlan.back().at + kPlan.back().width;
static_assert(kPackedBits == 338 && kPackedBits <= 8 * sizeof(packed_state));

/// The bits of x under mask, packed to the low end (BMI2 PEXT).
std::uint64_t extract_bits(std::uint64_t x, std::uint64_t mask) {
#if defined(__BMI2__)
  return _pext_u64(x, mask);
#else
  std::uint64_t out = 0;
  for (std::uint64_t bit = 1; mask != 0; bit <<= 1, mask &= mask - 1) {
    if ((x & mask & -mask) != 0) out |= bit;
  }
  return out;
#endif
}

/// The low bits of x spread to the set bits of mask (BMI2 PDEP).
std::uint64_t deposit_bits(std::uint64_t x, std::uint64_t mask) {
#if defined(__BMI2__)
  return _pdep_u64(x, mask);
#else
  std::uint64_t out = 0;
  for (std::uint64_t bit = 1; mask != 0; bit <<= 1, mask &= mask - 1) {
    if ((x & bit) != 0) out |= mask & -mask;
  }
  return out;
#endif
}

}  // namespace

packed_state pack(const sys_state& s) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&s);
  packed_words out{};
  for (usize i = 0; i < kStateWords; ++i) {
    const word_plan& pl = kPlan[i];
    std::uint64_t w;
    std::memcpy(&w, bytes + i * sizeof w, sizeof w);
    const std::uint64_t v = extract_bits(w, pl.mask);
    const unsigned lo = pl.at % 64;
    const usize k = pl.at / 64;
    out[k] |= v << lo;
    if (lo + pl.width > 64) out[k + 1] |= v >> (64 - lo);
  }
  packed_state p;
  for (usize k = 0; k < kFullWords; ++k) {
    std::memcpy(p.bytes.data() + k * sizeof out[k], &out[k], sizeof out[k]);
  }
  for (usize j = 0; j < kTailBytes; ++j) {
    p.bytes[kFullWords * sizeof out[0] + j] =
        static_cast<std::uint8_t>(out[kFullWords] >> (8 * j));
  }
  return p;
}

sys_state unpack(const packed_state& p, const model_config& cfg) {
  packed_words in{};
  std::memcpy(in.data(), p.bytes.data(), kFullWords * sizeof in[0]);
  for (usize j = 0; j < kTailBytes; ++j) {
    in[kFullWords] |= std::uint64_t{p.bytes[kFullWords * sizeof in[0] + j]}
                      << (8 * j);
  }
  // Each word is stored straight into the result: assembling the words
  // elsewhere and copying them in makes the compiler read back narrower or
  // wider than it wrote, which stalls store forwarding.
  sys_state s;
  auto* bytes = reinterpret_cast<unsigned char*>(&s);
  for (usize i = 0; i < kStateWords; ++i) {
    const word_plan& pl = kPlan[i];
    const unsigned lo = pl.at % 64;
    const usize k = pl.at / 64;
    std::uint64_t v = in[k] >> lo;
    if (lo + pl.width > 64) v |= in[k + 1] << (64 - lo);
    const std::uint64_t w = deposit_bits(v, pl.mask);
    std::memcpy(bytes + i * sizeof w, &w, sizeof w);
  }
  for (usize q = 0; q < cfg.m && q < max_procs; ++q) s.procs[q].pos[q] = 1;
  return s;
}

fingerprint fingerprint_of(const sys_state& s, const model_config& cfg) {
  // Canonical encoding (shared registers, rows, per-process state, perform
  // bookkeeping) fed word by word through two independent lanes: `a` chains
  // splitmix64, `b` chains murmur3's fmix64 from its own seed, so the two
  // halves are separate 64-bit hashes of the same bytes.
  std::uint64_t h = 0x2545f4914f6cdd1dull;
  std::uint64_t g = 0x6a09e667f3bcc909ull;
  auto mix = [&h, &g](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    std::uint64_t st = h;
    h = splitmix64(st);
    g = std::rotl(g, 23) ^ v;
    g = (g ^ (g >> 33)) * 0xff51afd7ed558ccdull;
    g = (g ^ (g >> 33)) * 0xc4ceb9fe1a85ec53ull;
    g ^= g >> 33;
  };
  std::uint64_t acc = 0;
  int shift = 0;
  auto put_byte = [&](std::uint8_t b) {
    acc |= static_cast<std::uint64_t>(b) << shift;
    shift += 8;
    if (shift == 64) {
      mix(acc);
      acc = 0;
      shift = 0;
    }
  };
  for (usize p = 0; p < cfg.m; ++p) {
    put_byte(s.next_reg[p]);
    put_byte(s.row_len[p]);
    for (usize i = 0; i < s.row_len[p]; ++i) put_byte(s.rows[p][i]);
    const proc_state& ps = s.procs[p];
    put_byte(static_cast<std::uint8_t>(ps.status));
    put_byte(ps.next);
    put_byte(ps.q);
    put_byte(static_cast<std::uint8_t>((ps.finalizing ? 1 : 0) |
                                       (ps.has_output ? 2 : 0)));
    put_byte(static_cast<std::uint8_t>(ps.free & 0xff));
    put_byte(static_cast<std::uint8_t>(ps.free >> 8));
    put_byte(static_cast<std::uint8_t>(ps.done & 0xff));
    put_byte(static_cast<std::uint8_t>(ps.done >> 8));
    put_byte(static_cast<std::uint8_t>(ps.try_ & 0xff));
    put_byte(static_cast<std::uint8_t>(ps.try_ >> 8));
    put_byte(static_cast<std::uint8_t>(ps.output & 0xff));
    put_byte(static_cast<std::uint8_t>(ps.output >> 8));
    for (usize q = 0; q < cfg.m; ++q) put_byte(ps.pos[q]);
  }
  put_byte(static_cast<std::uint8_t>(s.performed & 0xff));
  put_byte(static_cast<std::uint8_t>(s.performed >> 8));
  put_byte(static_cast<std::uint8_t>((s.duplicate ? 1 : 0) | (s.flag ? 2 : 0)));
  put_byte(s.crashes);
  mix(acc + static_cast<std::uint64_t>(shift));

  fingerprint f;
  f.a = h;
  f.b = g;
  return f;
}

}  // namespace amo::model
