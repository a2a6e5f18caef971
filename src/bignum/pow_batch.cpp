// MontgomeryContext::pow_batch: many independent exponentiations to one
// public exponent (Paillier encryption factors r^N mod N^2, pool refills,
// fold blinders); pow_batch_secret: the same to one secret exponent (the
// CRT exponents of Paillier decryption), in constant time; and the 8-lane
// kernel declared in ifma.h.
//
// On CPUs with AVX-512 IFMA the bases run eight at a time: each __m512i
// holds one radix-2^52 digit position of all eight lanes, and the Montgomery
// product is CIOS built from vpmadd52luq/vpmadd52huq with lazy 64-bit
// accumulators (no carry handling inside the k^2 loop), one carry
// normalisation per product and a lane-masked conditional subtraction.
// Exponentiation uses a sliding window over odd powers; the window schedule
// and every table index depend only on the public exponent, never on a
// base. Only the functions below marked SPFE_IFMA_TARGET are compiled for
// AVX-512; the library is built without any -m flags and picks the kernel
// by CPUID at run time. Elsewhere pow_batch loops over the portable
// MontgomeryContext::pow, which stays the reference for every result.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bignum/ifma.h"
#include "bignum/modarith.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/secret.h"
#include "obs/obs.h"

namespace spfe::bignum {
namespace ifma {

constexpr u64 kDigitMask = (u64{1} << kDigitBits) - 1;

bool cpu_has_ifma() {
  static const bool ok =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
  return ok;
}

std::size_t digits_for(std::size_t bits) { return (bits + kDigitBits - 1) / kDigitBits; }

u64* aligned_words(std::vector<u64>& buf, std::size_t words) {
  if (buf.size() < words + kLanes - 1) buf.resize(words + kLanes - 1);
  const std::size_t skew = (reinterpret_cast<std::uintptr_t>(buf.data()) / sizeof(u64)) % kLanes;
  return buf.data() + (kLanes - skew) % kLanes;
}

// The 64-bit limbs are zero-padded to a fixed width first, so the work
// does not depend on the value's magnitude.
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

BigInt from_digits(const u64* in, std::size_t stride, std::size_t k) {
  std::vector<u64> limbs((k * kDigitBits + 63) / 64, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t bit = j * kDigitBits;
    const std::size_t w = bit / 64;
    const std::size_t s = bit % 64;
    const u64 d = in[j * stride];
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

IfmaPlan::IfmaPlan(const BigInt& modulus) : k(digits_for(modulus.bit_length())) {
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

namespace {

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

}  // namespace

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

}  // namespace ifma

namespace {

using namespace ifma;

constexpr unsigned kMaxWindow = 5;

// Left-to-right sliding-window schedule for a public exponent e > 0. The
// first step loads odd power table[first]; every later step squares
// `squarings` times, then multiplies by table[entry]; `tail` squarings end
// the chain. table[i] holds base^(2i+1).
struct WindowSchedule {
  struct Step {
    std::size_t squarings;
    std::size_t entry;
  };
  std::size_t first = 0;
  std::vector<Step> steps;
  std::size_t tail = 0;
  std::size_t entries = 1;  // odd powers the table must hold

  explicit WindowSchedule(const BigInt& e) {
    const std::size_t bits = e.bit_length();
    const unsigned w = bits > 512 ? kMaxWindow : bits > 128 ? 4 : bits > 24 ? 3 : bits > 6 ? 2 : 1;
    bool started = false;
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
      entries = std::max(entries, entry + 1);
      if (started) {
        steps.push_back({pending + (i - low + 1), entry});
      } else {
        first = entry;
        started = true;
      }
      pending = 0;
      i = low;
    }
    tail = pending;
  }

  // u64 words of pow8 scratch: the odd-power table, the squared base, the
  // accumulator and the 2k+1 product columns.
  std::size_t scratch_words(std::size_t k) const {
    return (entries + 2) * k * kLanes + (2 * k + 1) * kLanes;
  }
};

// Eight exponentiations base[lane]^e mod n. `base` and `out` hold k digit
// vectors (digit j of lane l at word 8j + l); bases must be < n.
// SPFE_CT_BEGIN(ifma_pow8)
SPFE_IFMA_TARGET void ct_ifma_pow8(const u64* /*secret*/ base, u64* out, const IfmaPlan& plan,
                                   const WindowSchedule& sched, u64* scratch) {
  const std::size_t k = plan.k;
  Vec* table = reinterpret_cast<Vec*>(scratch);
  Vec* sq = table + sched.entries * k;
  Vec* acc = sq + k;
  Vec* t = acc + k;
  // table[i] = base^(2i+1) in Montgomery form.
  ct_ifma_mont_mul(table, reinterpret_cast<const Vec*>(base),
                   reinterpret_cast<const Vec*>(plan.r2), plan, t);
  if (sched.entries > 1) ct_ifma_mont_mul(sq, table, table, plan, t);
  for (std::size_t i = 1; i < sched.entries; ++i) {
    ct_ifma_mont_mul(table + i * k, table + (i - 1) * k, sq, plan, t);
  }
  for (std::size_t j = 0; j < k; ++j) acc[j] = table[sched.first * k + j];
  for (const WindowSchedule::Step& step : sched.steps) {
    for (std::size_t s = 0; s < step.squarings; ++s) ct_ifma_mont_mul(acc, acc, acc, plan, t);
    ct_ifma_mont_mul(acc, acc, table + step.entry * k, plan, t);
  }
  for (std::size_t s = 0; s < sched.tail; ++s) ct_ifma_mont_mul(acc, acc, acc, plan, t);
  ct_ifma_mont_mul(reinterpret_cast<Vec*>(out), acc,
                   reinterpret_cast<const Vec*>(plan.one), plan, t);
}
// SPFE_CT_END

// Runs lane group g: bases [8g, 8g+8) of `bases` (missing lanes compute
// 0^e and are dropped). The scratch buffer is per thread and reused.
void ifma_group(const IfmaPlan& plan, const WindowSchedule& sched, const BigInt& modulus,
                std::span<const BigInt> bases, std::size_t g, std::vector<BigInt>& out) {
  const std::size_t k = plan.k;
  thread_local std::vector<u64> buffer;
  u64* scratch = aligned_words(buffer, sched.scratch_words(k) + 2 * k * kLanes);
  u64* in = scratch + sched.scratch_words(k);
  u64* res = in + k * kLanes;
  std::fill(in, in + k * kLanes, 0);
  const std::size_t first = g * kLanes;
  const std::size_t lanes = std::min(kLanes, bases.size() - first);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    to_digits(bases[first + lane].mod_floor(modulus), k, in + lane, kLanes);
  }
  ct_ifma_pow8(in, res, plan, sched, scratch);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    out[first + lane] = from_digits(res + lane, kLanes, k);
  }
}

// Eight exponentiations base[lane]^e mod n to one secret exponent e, given
// by its 64-bit limbs and its bit length (public by policy, as in
// MontgomeryContext::pow). The same 4-bit fixed window as pow: every window
// pays four squarings (none before the top one) and one product, and the
// operand is read through a mask from every one of the 16 table entries,
// so neither the work nor the memory access pattern depends on a digit.
// `scratch` holds 20k + 1 vectors.
// SPFE_CT_BEGIN(ifma_pow8_secret)
SPFE_IFMA_TARGET void ct_ifma_pow8_secret(const u64* /*secret*/ base, u64* out,
                                          const u64* /*secret*/ exp, std::size_t bits,
                                          const IfmaPlan& plan, Vec* scratch) {
  const std::size_t k = plan.k;
  Vec* table = scratch;  // table[d] = base^d in Montgomery form
  Vec* acc = table + 16 * k;
  Vec* entry = acc + k;
  Vec* t = entry + k;
  const auto* r2 = reinterpret_cast<const Vec*>(plan.r2);
  ct_ifma_mont_mul(table, reinterpret_cast<const Vec*>(plan.one), r2, plan, t);
  ct_ifma_mont_mul(table + k, reinterpret_cast<const Vec*>(base), r2, plan, t);
  for (std::size_t d = 2; d < 16; ++d) {
    ct_ifma_mont_mul(table + d * k, table + (d - 1) * k, table + k, plan, t);
  }
  for (std::size_t j = 0; j < k; ++j) acc[j] = table[j];
  const std::size_t windows = (bits + 3) / 4;
  for (std::size_t w = windows; w-- > 0;) {
    if (w + 1 != windows) {  // window position is public, not the digit
      for (int s = 0; s < 4; ++s) ct_ifma_mont_mul(acc, acc, acc, plan, t);
    }
    // 4-bit windows never straddle a 64-bit limb; the limb index depends
    // only on the public window position.
    const u64 digit = (exp[(4 * w) / 64] >> ((4 * w) % 64)) & 0xf;
    for (std::size_t j = 0; j < k; ++j) entry[j] = _mm512_setzero_si512();
    for (std::size_t d = 0; d < 16; ++d) {
      const Vec mask = ct_splat(common::ct_eq_u64(d, digit));
      for (std::size_t j = 0; j < k; ++j) entry[j] = ct_or(entry[j], ct_and(mask, table[d * k + j]));
    }
    ct_ifma_mont_mul(acc, acc, entry, plan, t);
  }
  ct_ifma_mont_mul(reinterpret_cast<Vec*>(out), acc, reinterpret_cast<const Vec*>(plan.one),
                   plan, t);
}
// SPFE_CT_END

}  // namespace

const char* MontgomeryContext::pow_batch_kernel() {
  return cpu_has_ifma() ? "avx512ifma" : "portable";
}

std::vector<BigInt> MontgomeryContext::pow_batch(std::span<const BigInt> bases,
                                                 const BigInt& public_exp) const {
  if (public_exp.is_negative()) {
    throw InvalidArgument("MontgomeryContext::pow_batch: negative exponent");
  }
  obs::count(obs::Op::kModExp, bases.size());
  std::vector<BigInt> out(bases.size());
  if (bases.empty()) return out;
  if (public_exp.is_zero()) {
    std::fill(out.begin(), out.end(), BigInt(1).mod_floor(modulus_));
    return out;
  }
  const std::size_t k = digits_for(modulus_.bit_length());
  if (!cpu_has_ifma() || k > kMaxDigits) {
    common::parallel_for(bases.size(),
                         [&](std::size_t i) { out[i] = pow_uncounted(bases[i], public_exp); });
    return out;
  }
  const IfmaPlan plan(modulus_);
  const WindowSchedule sched(public_exp);
  common::parallel_for((bases.size() + kLanes - 1) / kLanes,
                       [&](std::size_t g) { ifma_group(plan, sched, modulus_, bases, g, out); });
  return out;
}

std::vector<BigInt> MontgomeryContext::pow_batch_secret(std::span<const BigInt> bases,
                                                        const BigInt& /*secret*/ exp) const {
  if (exp.is_negative()) {
    throw InvalidArgument("MontgomeryContext::pow_batch_secret: negative exponent");
  }
  obs::count(obs::Op::kModExp, bases.size());
  std::vector<BigInt> out(bases.size());
  const std::size_t k = digits_for(modulus_.bit_length());
  if (!cpu_has_ifma() || k > kMaxDigits || exp.is_zero()) {
    common::parallel_for(bases.size(), [&](std::size_t i) { out[i] = pow_uncounted(bases[i], exp); });
    return out;
  }
  const IfmaPlan plan(modulus_);
  std::vector<u64> limbs = exp.limbs();
  limbs.resize((exp.bit_length() + 63) / 64 + 1, 0);
  common::parallel_for((bases.size() + kLanes - 1) / kLanes, [&](std::size_t g) {
    thread_local std::vector<u64> buffer;
    u64* scratch = aligned_words(buffer, (22 * k + 1) * kLanes);
    u64* in = scratch + (20 * k + 1) * kLanes;
    u64* res = in + k * kLanes;
    std::fill(in, in + k * kLanes, 0);
    const std::size_t first = g * kLanes;
    const std::size_t lanes = std::min(kLanes, bases.size() - first);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      to_digits(bases[first + lane].mod_floor(modulus_), k, in + lane, kLanes);
    }
    ct_ifma_pow8_secret(in, res, limbs.data(), exp.bit_length(), plan,
                        reinterpret_cast<Vec*>(scratch));
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[first + lane] = from_digits(res + lane, kLanes, k);
    }
  });
  return out;
}

}  // namespace spfe::bignum
