// The 8-lane radix-2^52 Montgomery kernel for CPUs with AVX-512 IFMA,
// internal to spfe_bignum. It backs MontgomeryContext::pow_batch and
// pow_batch_secret (pow_batch.cpp, which defines everything declared here)
// and the lane path of multi_pow_matrices (multiexp.cpp).
//
// Each __m512i holds one radix-2^52 digit position of eight independent
// lanes: digit j of lane l lives at word 8j + l of a lane-interleaved
// buffer. Only functions marked SPFE_IFMA_TARGET are compiled for AVX-512;
// the library is built without any -m flags, so callers must check
// cpu_has_ifma() before running any of them.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bignum/bigint.h"

#define SPFE_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

namespace spfe::bignum::ifma {

using u64 = std::uint64_t;
using Vec = __m512i;

constexpr std::size_t kLanes = 8;
constexpr std::size_t kDigitBits = 52;
// Lazy accumulation adds at most 4 * 2^52 per digit position per row, so
// k rows stay below 2^64 for k < 1024; 256 digits (13312-bit moduli) leaves
// ample room for the carries. Larger moduli take the portable path.
constexpr std::size_t kMaxDigits = 256;

// CPUID: AVX-512F and AVX-512 IFMA are both present.
bool cpu_has_ifma();

std::size_t digits_for(std::size_t bits);

// A 64-byte-aligned run of at least `words` u64 inside `buf`, for the
// kernel's vector loads and stores.
u64* aligned_words(std::vector<u64>& buf, std::size_t words);

// Writes the k radix-2^52 digits of `v` (v < 2^(52k)) to out[0], out[stride],
// ...; from_digits reads them back.
void to_digits(const BigInt& v, std::size_t k, u64* out, std::size_t stride);
BigInt from_digits(const u64* in, std::size_t stride, std::size_t k);

// Per-modulus constants of the kernel, shared read-only by every lane group.
struct IfmaPlan {
  std::size_t k = 0;             // radix-2^52 digits of the modulus
  std::vector<u64> n;            // modulus digits
  u64 n0_inv = 0;                // -n^{-1} mod 2^52
  std::vector<u64> lane_consts;  // backing store of r2 and one
  const u64* r2 = nullptr;       // R^2 mod n, R = 2^(52k), in all 8 lanes
  const u64* one = nullptr;      // the integer 1 in all 8 lanes

  explicit IfmaPlan(const BigInt& modulus);
  IfmaPlan(const IfmaPlan&) = delete;
  IfmaPlan& operator=(const IfmaPlan&) = delete;
};

// out = a * b * R^{-1} mod n in all eight lanes (a, b < n; out < n and may
// alias a or b). All pointers are 64-byte aligned; t holds 2k+1 vectors of
// scratch.
SPFE_IFMA_TARGET void ct_ifma_mont_mul(Vec* out, const Vec* a, const Vec* b, const IfmaPlan& plan,
                                       Vec* t);

}  // namespace spfe::bignum::ifma
