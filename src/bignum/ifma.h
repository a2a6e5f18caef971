// The 8-lane radix-2^52 Montgomery code for CPUs with AVX-512 IFMA,
// internal to spfe_bignum (ifma.cpp): the batched exponentiations behind
// MontgomeryContext::pow_batch and pow_batch_secret, and the lane Straus
// pass of multi_pow_matrices. All of them run on one driver over one
// kernel, with one table builder; the table layouts and the digit staging
// live in ifma.cpp alone. The library is built without any -m flags, so
// callers check lanes_fit(modulus) before running any of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/multiexp.h"

namespace spfe::bignum::ifma {

constexpr std::size_t kLanes = 8;

std::size_t digits_for(std::size_t bits);

// CPUID reports AVX-512F and AVX-512 IFMA and no ScopedPortableArm lives;
// lanes_fit also needs a modulus of at most 256 radix-2^52 digits.
bool cpu_has_ifma();
bool lanes_fit(const BigInt& modulus);

// Test-only: while one lives, cpu_has_ifma() reports false, so every
// dispatch takes its portable arm. It must outlive the code under test.
struct ScopedPortableArm {
  ScopedPortableArm();
  ~ScopedPortableArm();
  ScopedPortableArm(const ScopedPortableArm&) = delete;
  ScopedPortableArm& operator=(const ScopedPortableArm&) = delete;
};

// bases[i]^exp mod modulus for exp > 0, eight bases at a time across the
// thread pool: a sliding window for a public exponent, pow's 4-bit fixed
// window with masked table reads for a secret one (its bit length public).
std::vector<BigInt> pow_public(const BigInt& modulus, std::span<const BigInt> bases,
                               const BigInt& exp);
std::vector<BigInt> pow_secret(const BigInt& modulus, std::span<const BigInt> bases,
                               const BigInt& /*secret*/ exp);

// w-bit digit of e at comb/window position `window_index` (LSB digit = 0).
// Bits are gathered arithmetically from the limb array — no per-bit branch
// on the exponent value. (The zero-digit skips of multiexp.cpp's
// strategies and of the lane gather deliberately remain: multi-exp exponents
// are server-side public data — PIR database chunks, protocol weights.
// Secret exponents must go through MontgomeryContext::pow; see DESIGN.md
// "Constant-time policy".) Shared by the scalar strategies and the lanes.
// SPFE_CT_BEGIN(multiexp_digit_at)
inline unsigned digit_at(const BigInt& /*secret*/ e, std::size_t window_index, unsigned w) {
  const std::vector<std::uint64_t>& limbs = e.limbs();
  std::uint64_t d = 0;
  const std::size_t base_bit = window_index * w;
  for (unsigned b = 0; b < w; ++b) {
    const std::size_t bit_index = base_bit + b;
    const std::size_t limb = bit_index / 64;  // public window position
    const std::uint64_t v = limb < limbs.size() ? limbs[limb] : 0;  // public shape test
    d |= ((v >> (bit_index % 64)) & 1) << b;
  }
  return static_cast<unsigned>(d);
}
// SPFE_CT_END

// A validated multi-exp problem: which bases are used (nonzero exponent
// row), its column count and its widest exponent.
struct ProblemShape {
  std::vector<char> used;
  std::size_t columns = 0;
  std::size_t max_bits = 0;
};

// One lane Straus pass over the Straus-planned problems[p], p in `lane`,
// writing out[p]: a lane runs one column of one problem over a range of its
// used bases (straus_column's partitions). Exponents are public.
void straus_pass(const BigInt& modulus, std::span<const MultiPowProblem> problems,
                 const std::vector<ProblemShape>& shapes, const std::vector<std::size_t>& lane,
                 std::vector<std::vector<BigInt>>& out);

}  // namespace spfe::bignum::ifma
