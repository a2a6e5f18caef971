// The lane code of ifma.h. Each __m512i holds one radix-2^52 digit
// position of eight independent lanes: digit j of lane l lives at word
// 8j + l of a lane-interleaved buffer. The product (ct_ifma_mont_mul) is
// CIOS built from vpmadd52luq/vpmadd52huq with lazy 64-bit accumulators (no
// carry handling inside the k^2 loop), one carry normalisation per product
// and a lane-masked conditional subtraction. Only the table builder
// (ct_ifma_table) and the driver (ct_ifma_chains) call it; every entry point
// builds a step list, stages its values in, builds tables, runs the driver
// and stages the results out, in lane groups of eight across the thread
// pool with one per-thread scratch buffer. Only the SPFE_IFMA_TARGET
// functions are compiled for AVX-512.
#include "bignum/ifma.h"

#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>

#include "common/parallel.h"
#include "common/secret.h"

#define SPFE_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

namespace spfe::bignum::ifma {
namespace {

using u64 = std::uint64_t;
using Vec = __m512i;

constexpr std::size_t kDigitBits = 52;
constexpr u64 kDigitMask = (u64{1} << kDigitBits) - 1;
// Lazy accumulation adds at most 4 * 2^52 per digit position per row, so
// k rows stay below 2^64 for k < 1024; 256 digits (13312-bit moduli) leaves
// ample room for the carries. Larger moduli take the portable path.
constexpr std::size_t kMaxDigits = 256;

// Live ScopedPortableArm guards. Relaxed is enough: a guard is made before
// the code under test starts its pool jobs and destroyed after they end,
// and the pool's own synchronisation orders both against the workers.
std::atomic<int> portable_arms{0};

// A 64-byte-aligned run of at least `words` u64 inside `buf`.
u64* aligned_words(std::vector<u64>& buf, std::size_t words) {
  if (buf.size() < words + kLanes - 1) buf.resize(words + kLanes - 1);
  const std::size_t skew = (reinterpret_cast<std::uintptr_t>(buf.data()) / sizeof(u64)) % kLanes;
  return buf.data() + (kLanes - skew) % kLanes;
}

// Writes the k radix-2^52 digits of `v` (v < 2^(52k)) to out[0],
// out[stride], ...; the 64-bit limbs are zero-padded to a fixed width
// first, so the work does not depend on the value's magnitude.
void to_digits(const BigInt& v, std::size_t k, u64* out, std::size_t stride) {
  std::vector<u64> limbs = v.limbs();
  limbs.resize((k * kDigitBits + 63) / 64 + 1, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t bit = j * kDigitBits;
    const std::size_t w = bit / 64;
    const std::size_t s = bit % 64;
    u64 d = limbs[w] >> s;
    if (s > 64 - kDigitBits) d |= limbs[w + 1] << (64 - s);
    out[j * stride] = d & kDigitMask;
  }
}

// Per-modulus constants of the kernel, shared read-only by every lane group.
struct IfmaPlan {
  std::size_t k = 0;             // radix-2^52 digits of the modulus
  std::vector<u64> n;            // modulus digits
  u64 n0_inv = 0;                // -n^{-1} mod 2^52
  std::vector<u64> lane_consts;  // backing store of r2 and one
  const u64* r2 = nullptr;       // R^2 mod n, R = 2^(52k), in all 8 lanes
  const u64* one = nullptr;      // the integer 1 in all 8 lanes

  explicit IfmaPlan(const BigInt& modulus) : k(digits_for(modulus.bit_length())) {
    n.resize(k);
    to_digits(modulus, k, n.data(), 1);
    u64 inv = n[0];  // Newton iteration for n^{-1} mod 2^64 (n odd)
    for (int i = 0; i < 6; ++i) inv *= 2 - n[0] * inv;
    n0_inv = (~inv + 1) & kDigitMask;
    u64* consts = aligned_words(lane_consts, 2 * k * kLanes);
    std::fill(consts, consts + 2 * k * kLanes, 0);
    const BigInt r2_value = (BigInt(1) << (2 * kDigitBits * k)).mod_floor(modulus);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      to_digits(r2_value, k, consts + lane, kLanes);
      consts[k * kLanes + lane] = 1;
    }
    r2 = consts;
    one = consts + k * kLanes;
  }
};

// The one per-thread scratch buffer of the lane code.
Vec* lane_scratch(std::size_t vectors) {
  thread_local std::vector<u64> buffer;
  return reinterpret_cast<Vec*>(aligned_words(buffer, vectors * kLanes));
}

// body(first, lanes, scratch) for each group of eight of n items, across the
// pool; scratch has 4k + 1 vectors of working space for the builder and the
// driver at scratch + vectors.
template <class Body>
void lane_groups(std::size_t n, std::size_t k, std::size_t vectors, const Body& body) {
  common::parallel_for((n + kLanes - 1) / kLanes, [&](std::size_t g) {
    body(g * kLanes, std::min(kLanes, n - g * kLanes), lane_scratch(vectors + 4 * k + 1));
  });
}

// Digit staging: lane l of the k digit vectors at `dst` gets
// *values[l] mod modulus (0 past values.size()); stage_out reads lane l.
void stage_in(std::span<const BigInt* const> values, const BigInt& modulus, std::size_t k,
              Vec* dst) {
  u64* words = reinterpret_cast<u64*>(dst);
  std::fill(words, words + k * kLanes, 0);
  for (std::size_t l = 0; l < values.size(); ++l) {
    to_digits(values[l]->mod_floor(modulus), k, words + l, kLanes);
  }
}

BigInt stage_out(const Vec* src, std::size_t k, std::size_t l) {
  const u64* in = reinterpret_cast<const u64*>(src) + l;
  std::vector<u64> limbs((k * kDigitBits + 63) / 64, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t bit = j * kDigitBits;
    const std::size_t w = bit / 64;
    const std::size_t s = bit % 64;
    const u64 d = in[j * kLanes];
    limbs[w] |= d << s;
    if (s > 64 - kDigitBits && w + 1 < limbs.size()) limbs[w + 1] |= d >> (64 - s);
  }
  Bytes be(limbs.size() * 8);
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      be[be.size() - 1 - (8 * i + b)] = static_cast<std::uint8_t>(limbs[i] >> (8 * b));
    }
  }
  return BigInt::from_bytes_be(be);
}

// Digit j of entry d of lane l lives at words[d * entry + l * lane +
// j * digit]: interleaved (k vectors per entry, what the broadcast and the
// masked scan read) or rows of k words (what the gather reads).
struct TableLayout {
  u64* words;
  std::size_t entry, lane, digit;
  static TableLayout rows(u64* words, std::size_t k, std::size_t entries) {
    return {words, k, entries * k, 1};
  }
};

// Stores lanes [0, lanes) of the k digit vectors at `src` as entry d.
void store_lanes(const Vec* src, std::size_t k, std::size_t lanes, const TableLayout& dst,
                 std::size_t d) {
  const u64* words = reinterpret_cast<const u64*>(src);
  u64* entry = dst.words + d * dst.entry;
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t j = 0; j < k; ++j) entry[l * dst.lane + j * dst.digit] = words[j * kLanes + l];
  }
}

// Vector primitives of the kernel. Each is a single AVX-512 instruction
// whose latency does not depend on the operand values.
SPFE_IFMA_TARGET inline Vec ct_madd52lo(Vec acc, Vec a, Vec b) {
  return _mm512_madd52lo_epu64(acc, a, b);
}
SPFE_IFMA_TARGET inline Vec ct_madd52hi(Vec acc, Vec a, Vec b) {
  return _mm512_madd52hi_epu64(acc, a, b);
}
SPFE_IFMA_TARGET inline Vec ct_add(Vec a, Vec b) { return _mm512_add_epi64(a, b); }
SPFE_IFMA_TARGET inline Vec ct_sub(Vec a, Vec b) { return _mm512_sub_epi64(a, b); }
SPFE_IFMA_TARGET inline Vec ct_low52(Vec a) {
  return _mm512_and_si512(a, _mm512_set1_epi64(static_cast<long long>(kDigitMask)));
}
// (The all-lanes maskz form of the shifts: GCC 12's plain _mm512_srli_epi64
// trips -Wmaybe-uninitialized inside its own header.)
SPFE_IFMA_TARGET inline Vec ct_high(Vec a) { return _mm512_maskz_srli_epi64(0xFF, a, kDigitBits); }
SPFE_IFMA_TARGET inline Vec ct_sign(Vec a) { return _mm512_maskz_srli_epi64(0xFF, a, 63); }
SPFE_IFMA_TARGET inline __mmask8 ct_zero_lanes(Vec a) {
  return _mm512_cmpeq_epi64_mask(a, _mm512_setzero_si512());
}
SPFE_IFMA_TARGET inline Vec ct_blend(__mmask8 take_b, Vec a, Vec b) {
  return _mm512_mask_blend_epi64(take_b, a, b);
}
SPFE_IFMA_TARGET inline Vec ct_splat(u64 v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}
SPFE_IFMA_TARGET inline Vec ct_and(Vec a, Vec b) { return _mm512_and_si512(a, b); }
SPFE_IFMA_TARGET inline Vec ct_or(Vec a, Vec b) { return _mm512_or_si512(a, b); }

// out = a * b * R^{-1} mod n in all eight lanes (a, b < n, digits < 2^52;
// out may alias a or b). t holds 2k+1 columns of scratch. Column i+j
// collects the low halves of a_i*b_j and m_i*n_j and the high halves of
// the products one column below; the running sums stay below 2^64, so no
// carry is propagated until the single normalisation pass at the end.
// SPFE_CT_BEGIN(ifma_mont_mul)
SPFE_IFMA_TARGET void ct_ifma_mont_mul(Vec* out, const Vec* /*secret*/ a, const Vec* /*secret*/ b,
                                       const IfmaPlan& plan, Vec* t) {
  const std::size_t k = plan.k;
  const u64* n = plan.n.data();
  const Vec zero = _mm512_setzero_si512();
  const Vec n0_inv = ct_splat(plan.n0_inv);
  for (std::size_t p = 0; p < 2 * k + 1; ++p) t[p] = zero;
  for (std::size_t i = 0; i < k; ++i) {
    const Vec ai = a[i];
    // Column i-1 is divisible by 2^52 now; its quotient carries into i.
    Vec x = i == 0 ? t[0] : ct_add(t[i], ct_high(t[i - 1]));
    x = ct_madd52lo(x, ai, b[0]);
    const Vec m = ct_madd52lo(zero, x, n0_inv);
    t[i] = ct_madd52lo(x, m, ct_splat(n[0]));
    for (std::size_t j = 1; j < k; ++j) {
      Vec y = t[i + j];
      y = ct_madd52lo(y, ai, b[j]);
      y = ct_madd52lo(y, m, ct_splat(n[j]));
      y = ct_madd52hi(y, ai, b[j - 1]);
      y = ct_madd52hi(y, m, ct_splat(n[j - 1]));
      t[i + j] = y;
    }
    Vec top = ct_madd52hi(t[i + k], ai, b[k - 1]);
    t[i + k] = ct_madd52hi(top, m, ct_splat(n[k - 1]));
  }
  // Normalise columns k..2k-1 into digits; the result is < 2n, so the
  // carry out of the top digit is 0 or 1.
  Vec carry = ct_high(t[k - 1]);
  for (std::size_t j = 0; j < k; ++j) {
    const Vec v = ct_add(t[k + j], carry);
    t[j] = ct_low52(v);
    carry = ct_high(v);
  }
  // Subtract n in the lanes where the result is >= n: a full trial
  // subtraction decides, then the difference is blended in under the mask.
  Vec borrow = zero;
  for (std::size_t j = 0; j < k; ++j) {
    borrow = ct_sign(ct_sub(ct_sub(t[j], ct_splat(n[j])), borrow));
  }
  const __mmask8 ge = ct_zero_lanes(ct_sign(ct_sub(carry, borrow)));
  borrow = zero;
  for (std::size_t j = 0; j < k; ++j) {
    const Vec d = ct_sub(ct_sub(t[j], ct_splat(n[j])), borrow);
    borrow = ct_sign(d);
    out[j] = ct_blend(ge, t[j], ct_low52(d));
  }
}
// SPFE_CT_END

// dst[j] = words[offset[lane] + j] in every lane, for j < k. (The masked
// gather with a zero source: GCC 12's plain one trips -Wmaybe-uninitialized
// inside its own header.)
SPFE_IFMA_TARGET void gather_rows(Vec* dst, const u64* words, const u64* offset, std::size_t k) {
  const Vec first = _mm512_loadu_si512(offset);
  for (std::size_t j = 0; j < k; ++j) {
    const Vec index = _mm512_add_epi64(first, _mm512_set1_epi64(static_cast<long long>(j)));
    dst[j] = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xFF, index, words, 8);
  }
}

enum class TablePowers { kAll, kOdd };

// The table builder: `entries` entries in Montgomery form for the eight
// bases at `base` (normal form, < n); lanes [0, lanes) of each go to `dst`.
// `work` holds 4k + 1 vectors.
// SPFE_CT_BEGIN(ifma_table)
SPFE_IFMA_TARGET void ct_ifma_table(const IfmaPlan& plan, const Vec* /*secret*/ base,
                                    TablePowers powers, std::size_t entries,
                                    const TableLayout& dst, std::size_t lanes, Vec* work) {
  const std::size_t k = plan.k;
  Vec* t = work;
  Vec* entry = t + 2 * k + 1;
  Vec* step = entry + k;
  const auto* r2 = reinterpret_cast<const Vec*>(plan.r2);
  ct_ifma_mont_mul(step, base, r2, plan, t);
  if (powers == TablePowers::kAll) {
    ct_ifma_mont_mul(entry, reinterpret_cast<const Vec*>(plan.one), r2, plan, t);
  } else {
    for (std::size_t j = 0; j < k; ++j) entry[j] = step[j];
    if (entries > 1) ct_ifma_mont_mul(step, entry, entry, plan, t);
  }
  for (std::size_t d = 0; d < entries; ++d) {
    if (d > 0) ct_ifma_mont_mul(entry, entry, step, plan, t);
    store_lanes(entry, k, lanes, dst, d);
  }
}
// SPFE_CT_END

// `squarings` squarings, then the product by the operand of `index`.
struct Step {
  std::uint32_t squarings;
  std::uint32_t index;
};

// The driver's lookup: broadcast when only `table` is set, masked scan
// when `secret_exp` (the exponent's 64-bit limbs) is set too, gather when
// `rows` and `offsets` are set. offsets(index, offsets) writes each lane's
// row offset from public data and returns false to skip the step.
struct Lookup {
  static constexpr unsigned kScanWindow = 4;
  const Vec* table = nullptr;
  const u64* secret_exp = nullptr;
  const u64* rows = nullptr;
  std::function<bool(std::size_t index, u64* offsets)> offsets;
};

// The masked scan: the secret 4-bit digit of window `index` selects one of
// 16 entries. Windows never straddle a 64-bit limb; the limb index and
// shift depend only on the public window position.
SPFE_IFMA_TARGET const Vec* masked_scan(const Lookup& lookup, std::size_t k, std::size_t index,
                                        Vec* scratch) {
  // SPFE_CT_BEGIN(ifma_masked_scan)
  constexpr unsigned kWindow = Lookup::kScanWindow;
  const u64* exp = lookup.secret_exp;
  const Vec* table = lookup.table;
  const u64 /*secret*/ digit = (exp[(kWindow * index) / 64] >> ((kWindow * index) % 64)) & 0xf;
  for (std::size_t j = 0; j < k; ++j) scratch[j] = _mm512_setzero_si512();
  for (std::size_t d = 0; d < (std::size_t{1} << kWindow); ++d) {
    const Vec mask = ct_splat(common::ct_eq_u64(d, digit));
    for (std::size_t j = 0; j < k; ++j) {
      scratch[j] = ct_or(scratch[j], ct_and(mask, table[d * k + j]));
    }
  }
  return scratch;
  // SPFE_CT_END
}

// The step's operand, or nullptr when the gather skips the step.
SPFE_IFMA_TARGET const Vec* operand(const Lookup& lookup, std::size_t k, std::size_t index,
                                    Vec* scratch) {
  if (lookup.secret_exp != nullptr) return masked_scan(lookup, k, index, scratch);
  if (lookup.rows == nullptr) return lookup.table + index * k;
  alignas(64) u64 offsets[kLanes] = {};
  if (!lookup.offsets(index, offsets)) return nullptr;
  gather_rows(scratch, lookup.rows, offsets, k);
  return scratch;
}

// The driver: eight chains into `acc`, which starts at one (its squarings
// skipped, its first product a copy). Then the steps, `tail` squarings and,
// with `leave_montgomery`, the product by plan.one that leaves Montgomery
// form. Its branches follow the step list and the gather's skips, which
// depend on public digits only. `work` holds 4k + 1 vectors.
// SPFE_CT_BEGIN(ifma_chains)
SPFE_IFMA_TARGET void ct_ifma_chains(const IfmaPlan& plan, std::span<const Step> steps,
                                     std::size_t tail, const Lookup& lookup,
                                     bool leave_montgomery, Vec* /*secret*/ acc, Vec* work) {
  const std::size_t k = plan.k;
  Vec* t = work;
  Vec* scratch = t + 2 * k + 1;
  bool started = false;  // false while acc stands for one
  for (const Step& step : steps) {
    if (started) {
      for (std::size_t s = 0; s < step.squarings; ++s) ct_ifma_mont_mul(acc, acc, acc, plan, t);
    }
    const Vec* b = operand(lookup, k, step.index, scratch);
    if (b == nullptr) continue;
    if (started) {
      ct_ifma_mont_mul(acc, acc, b, plan, t);
    } else {
      for (std::size_t j = 0; j < k; ++j) acc[j] = b[j];
      started = true;
    }
  }
  const auto* one = reinterpret_cast<const Vec*>(plan.one);
  if (started) {
    for (std::size_t s = 0; s < tail; ++s) ct_ifma_mont_mul(acc, acc, acc, plan, t);
  } else {
    ct_ifma_mont_mul(acc, one, reinterpret_cast<const Vec*>(plan.r2), plan, t);
  }
  if (leave_montgomery) ct_ifma_mont_mul(acc, acc, one, plan, t);
}
// SPFE_CT_END

// An exponent as a chain over one table per lane group, looked up by
// broadcast, or by masked scan when `secret_exp` is set.
struct PowChain {
  TablePowers powers;
  std::size_t entries;
  std::vector<Step> steps;
  std::size_t tail = 0;
  const u64* secret_exp = nullptr;
};

// Left-to-right sliding window for a public exponent e > 0 over the odd
// powers (entry i = base^(2i+1)): the first step loads the top window's
// entry, every later one squares across the gap and multiplies, and the
// tail squares past the trailing zero bits.
PowChain sliding_window(const BigInt& e) {
  PowChain chain{TablePowers::kOdd, 1, {}};
  const std::size_t bits = e.bit_length();
  const unsigned w = bits > 512 ? 5 : bits > 128 ? 4 : bits > 24 ? 3 : bits > 6 ? 2 : 1;
  std::size_t pending = 0;
  for (std::size_t i = bits; i-- > 0;) {
    if (!e.bit(i)) {
      ++pending;
      continue;
    }
    std::size_t low = i + 1 >= w ? i + 1 - w : 0;
    while (!e.bit(low)) ++low;
    std::size_t value = 0;
    for (std::size_t b = i + 1; b-- > low;) value = (value << 1) | (e.bit(b) ? 1 : 0);
    const std::size_t entry = value >> 1;
    chain.entries = std::max(chain.entries, entry + 1);
    const std::size_t squarings = chain.steps.empty() ? 0 : pending + (i - low + 1);
    chain.steps.push_back(
        {static_cast<std::uint32_t>(squarings), static_cast<std::uint32_t>(entry)});
    pending = 0;
    i = low;
  }
  chain.tail = pending;
  return chain;
}

// Runs `chain` on every base.
std::vector<BigInt> pow_lanes(const BigInt& modulus, std::span<const BigInt> bases,
                              const PowChain& chain) {
  const IfmaPlan plan(modulus);
  const std::size_t k = plan.k;
  std::vector<BigInt> out(bases.size());
  const std::size_t vectors = (chain.entries + 1) * k;  // the table, then acc
  lane_groups(bases.size(), k, vectors, [&](std::size_t first, std::size_t lanes, Vec* table) {
    Vec* acc = table + chain.entries * k;
    const BigInt* in[kLanes];
    for (std::size_t l = 0; l < lanes; ++l) in[l] = &bases[first + l];
    stage_in({in, lanes}, modulus, k, acc);
    const TableLayout interleaved{reinterpret_cast<u64*>(table), k * kLanes, 1, kLanes};
    ct_ifma_table(plan, acc, chain.powers, chain.entries, interleaved, kLanes, acc + k);
    Lookup lookup;
    lookup.table = table;
    lookup.secret_exp = chain.secret_exp;
    ct_ifma_chains(plan, chain.steps, chain.tail, lookup, true, acc, acc + k);
    for (std::size_t l = 0; l < lanes; ++l) out[first + l] = stage_out(acc, k, l);
  });
  return out;
}

}  // namespace

std::size_t digits_for(std::size_t bits) { return (bits + kDigitBits - 1) / kDigitBits; }

bool cpu_has_ifma() {
  static const bool ok =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
  return ok && portable_arms.load(std::memory_order_relaxed) == 0;
}

bool lanes_fit(const BigInt& modulus) {
  return cpu_has_ifma() && digits_for(modulus.bit_length()) <= kMaxDigits;
}

ScopedPortableArm::ScopedPortableArm() { portable_arms.fetch_add(1, std::memory_order_relaxed); }
ScopedPortableArm::~ScopedPortableArm() { portable_arms.fetch_sub(1, std::memory_order_relaxed); }

std::vector<BigInt> pow_public(const BigInt& modulus, std::span<const BigInt> bases,
                               const BigInt& exp) {
  return pow_lanes(modulus, bases, sliding_window(exp));
}

// pow's 4-bit fixed window from the top window down: every window pays four
// squarings (none before the top one) and one product, whatever the digit.
std::vector<BigInt> pow_secret(const BigInt& modulus, std::span<const BigInt> bases,
                               const BigInt& /*secret*/ exp) {
  constexpr unsigned kWindow = Lookup::kScanWindow;
  PowChain chain{TablePowers::kAll, std::size_t{1} << kWindow, {}, 0, exp.limbs().data()};
  const std::size_t windows = (exp.bit_length() + kWindow - 1) / kWindow;
  for (std::size_t w = windows; w-- > 0;) {
    chain.steps.push_back({w + 1 == windows ? 0 : kWindow, static_cast<std::uint32_t>(w)});
  }
  return pow_lanes(modulus, bases, chain);
}

// Used base u of the pass is *bases[u] with exponent row *exp_rows[u];
// problem p's used bases are a contiguous run of u, so a lane group may mix
// problems. Job c * parts + p is partition p of pass column c.
void straus_pass(const BigInt& modulus, std::span<const MultiPowProblem> problems,
                 const std::vector<ProblemShape>& shapes, const std::vector<std::size_t>& lane,
                 std::vector<std::vector<BigInt>>& out) {
  std::size_t count = 0, columns = 0, max_bits = 0;
  for (const std::size_t p : lane) {
    std::size_t used = 0;
    for (const char u : shapes[p].used) used += u != 0;
    count = std::max(count, used);
    columns = std::max(columns, shapes[p].columns);
    max_bits = std::max(max_bits, shapes[p].max_bits);
  }
  const detail::LaneStrausPlan lane_plan = detail::plan_lane_straus(
      count, columns, max_bits, common::ThreadPool::global().thread_count(), lane.size(),
      modulus.bit_length());
  const unsigned w = lane_plan.window;
  const std::size_t parts = lane_plan.partitions;
  struct Job {
    std::size_t column, u0, length;  // used bases [u0, u0 + length)
  };
  std::vector<const BigInt*> bases;
  std::vector<const std::vector<BigInt>*> exp_rows;
  std::vector<Job> jobs;
  std::vector<BigInt*> outs;  // pass column c -> its result
  std::size_t longest = 0;
  for (const std::size_t p : lane) {
    const std::size_t u_first = bases.size();
    for (std::size_t i = 0; i < shapes[p].used.size(); ++i) {
      if (!shapes[p].used[i]) continue;
      bases.push_back(&problems[p].bases[i]);
      exp_rows.push_back(&(*problems[p].exps)[i]);
    }
    const std::size_t used = bases.size() - u_first;
    for (std::size_t c = 0; c < shapes[p].columns; ++c) {
      outs.push_back(&out[p][c]);
      for (std::size_t part = 0; part < parts; ++part) {
        const std::size_t u0 = part * used / parts;
        jobs.push_back({c, u_first + u0, (part + 1) * used / parts - u0});
        longest = std::max(longest, jobs.back().length);
      }
    }
  }

  const IfmaPlan plan(modulus);
  const std::size_t k = plan.k;
  const std::size_t entries = std::size_t(1) << w;
  // Tables: entry d of used base u at words ((u << w) + d) * k.
  std::vector<u64> table(bases.size() * entries * k);
  lane_groups(bases.size(), k, k, [&](std::size_t first, std::size_t lanes, Vec* base) {
    stage_in({bases.data() + first, lanes}, modulus, k, base);
    ct_ifma_table(plan, base, TablePowers::kAll, entries,
                  TableLayout::rows(table.data() + first * entries * k, k, entries), lanes,
                  base + k);
  });

  // Chains: step j * longest + s is slot s of window j, with w squarings at
  // each window's first slot. Lanes past their range (or past the group)
  // read entry 0 of used base 0, which is one. Partial i at words i * k.
  std::vector<Step> steps;
  for (std::size_t j = (max_bits + w - 1) / w; j-- > 0;) {
    for (std::size_t s = 0; s < longest; ++s) {
      steps.push_back({s == 0 ? w : 0u, static_cast<std::uint32_t>(j * longest + s)});
    }
  }
  std::vector<u64> partials(jobs.size() * k);
  lane_groups(jobs.size(), k, k, [&](std::size_t first, std::size_t lanes, Vec* acc) {
    Lookup lookup;
    lookup.rows = table.data();
    lookup.offsets = [&](std::size_t index, u64* offset) {
      const std::size_t j = index / longest, s = index % longest;
      bool any = false;
      for (std::size_t l = 0; l < lanes; ++l) {
        const Job& job = jobs[first + l];
        if (s >= job.length) continue;
        const std::size_t u = job.u0 + s;
        const unsigned d = digit_at((*exp_rows[u])[job.column], j, w);
        offset[l] = ((u << w) + d) * k;
        any = any || d != 0;
      }
      return any;
    };
    ct_ifma_chains(plan, steps, 0, lookup, false, acc, acc + k);
    store_lanes(acc, k, lanes, TableLayout::rows(partials.data() + first * k, k, 1), 0);
  });

  // Each column's partials, in ascending partition order.
  std::vector<Step> combine(parts);
  for (std::size_t p = 0; p < parts; ++p) combine[p] = {0, static_cast<std::uint32_t>(p)};
  lane_groups(outs.size(), k, k, [&](std::size_t first, std::size_t lanes, Vec* acc) {
    Lookup lookup;
    lookup.rows = partials.data();
    lookup.offsets = [&](std::size_t p, u64* offset) {
      for (std::size_t l = 0; l < lanes; ++l) offset[l] = ((first + l) * parts + p) * k;
      return true;
    };
    ct_ifma_chains(plan, combine, 0, lookup, true, acc, acc + k);
    for (std::size_t l = 0; l < lanes; ++l) *outs[first + l] = stage_out(acc, k, l);
  });
}

}  // namespace spfe::bignum::ifma
