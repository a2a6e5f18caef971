// Modular arithmetic over BigInt: gcd, inverses, Jacobi symbol, and
// Montgomery-accelerated modular exponentiation.
//
// `MontgomeryContext` caches per-modulus constants so repeated modexps with
// the same modulus (the hot path in Paillier and OT) avoid per-call setup.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bignum/bigint.h"

namespace spfe::bignum {

BigInt gcd(const BigInt& a, const BigInt& b);

// Returns (g, x, y) with a*x + b*y = g = gcd(a, b).
struct ExtGcdResult {
  BigInt g;
  BigInt x;
  BigInt y;
};
ExtGcdResult ext_gcd(const BigInt& a, const BigInt& b);

// Inverse of a modulo m (m > 1); throws CryptoError if gcd(a, m) != 1.
BigInt mod_inverse(const BigInt& a, const BigInt& m);

// (a + b) mod m, (a - b) mod m, (a * b) mod m with results in [0, m).
BigInt mod_add(const BigInt& a, const BigInt& b, const BigInt& m);
BigInt mod_sub(const BigInt& a, const BigInt& b, const BigInt& m);
BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m);

// base^exp mod m for exp >= 0, m > 0. Uses Montgomery for odd m, plain
// square-and-multiply otherwise.
BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m);

// Jacobi symbol (a/n) for odd positive n; returns -1, 0, or 1.
int jacobi(const BigInt& a, const BigInt& n);

// Solves x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2;
// returns x in [0, m1*m2).
BigInt crt_combine(const BigInt& r1, const BigInt& m1, const BigInt& r2, const BigInt& m2);
// Same, with m1^{-1} mod m2 precomputed — for hot paths (CRT Paillier
// decryption) that combine under fixed moduli and shouldn't pay an
// extended-gcd per call.
BigInt crt_combine(const BigInt& r1, const BigInt& m1, const BigInt& r2, const BigInt& m2,
                   const BigInt& m1_inv_mod_m2);

// Montgomery multiplication context for a fixed odd modulus.
class MontgomeryContext {
 public:
  explicit MontgomeryContext(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  // base^exp mod modulus via 4-bit fixed-window exponentiation.
  BigInt pow(const BigInt& base, const BigInt& exp) const;

  // out[i] = bases[i]^public_exp mod modulus: independent exponentiations
  // to one public exponent (e.g. Paillier factors r^N mod N^2), equal to
  // pow() element by element. On CPUs with AVX-512 IFMA eight bases run
  // side by side in radix 2^52; the window schedule depends only on the
  // exponent. Lane groups (or, on the portable path, elements) fan out
  // across the global thread pool. Counts one kModExp per base.
  std::vector<BigInt> pow_batch(std::span<const BigInt> bases, const BigInt& public_exp) const;
  // out[i] = bases[i]^exp mod modulus for one *secret* exponent (the CRT
  // exponents p-1, q-1 of Paillier decryption), equal to pow() element by
  // element and constant time in the same sense: on AVX-512 IFMA CPUs eight
  // bases run side by side through pow's 4-bit fixed window, with every
  // window's table entry read through a mask over all 16 entries. The
  // exponent's bit length is public. Elsewhere it loops pow(). Counts one
  // kModExp per base.
  std::vector<BigInt> pow_batch_secret(std::span<const BigInt> bases, const BigInt& exp) const;
  // out[i] = bases[i]^public_exp mod m1*m2 for coprime m1, m2 held by the
  // caller (a Paillier key's p^2 and q^2): pow_batch to the same public
  // exponent under each of m1 and m2, at half the width, recombined with
  // crt_combine and m1_inv = m1^{-1} mod m2. Equal to pow_batch under m1*m2
  // element by element. Counts one kModExp per base, as that pow_batch does.
  static std::vector<BigInt> pow_batch_crt(const MontgomeryContext& m1,
                                           const MontgomeryContext& m2, const BigInt& m1_inv,
                                           std::span<const BigInt> bases,
                                           const BigInt& public_exp);
  // The kernel pow_batch dispatches to on this CPU: "avx512ifma" or
  // "portable".
  static const char* pow_batch_kernel();

  // Montgomery-domain primitives (exposed for the multi-exponentiation
  // engine in multiexp.h and for benchmarking the ablation against
  // divmod-based reduction).
  std::vector<std::uint64_t> to_mont(const BigInt& a) const;
  BigInt from_mont(const std::vector<std::uint64_t>& a) const;
  std::vector<std::uint64_t> mont_mul(const std::vector<std::uint64_t>& a,
                                      const std::vector<std::uint64_t>& b) const;
  // REDC(a * a): squares with symmetric cross terms (~2x fewer limb
  // multiplies than mont_mul(a, a)), then runs a separate reduction pass.
  std::vector<std::uint64_t> mont_sqr(const std::vector<std::uint64_t>& a) const;
  // Montgomery form of 1 — the multiplicative identity for mont_mul.
  const std::vector<std::uint64_t>& mont_one() const { return one_; }
  std::size_t limbs() const { return n_.size(); }

 private:
  // pow() and pow_batch() without the op count (the batches count once per
  // base themselves).
  BigInt pow_uncounted(const BigInt& base, const BigInt& exp) const;
  std::vector<BigInt> pow_batch_uncounted(std::span<const BigInt> bases,
                                          const BigInt& public_exp) const;
  // Montgomery reduction of a double-width (2k-limb) product into [0, n).
  std::vector<std::uint64_t> mont_reduce(std::vector<std::uint64_t> t) const;

  BigInt modulus_;
  std::vector<std::uint64_t> n_;       // modulus limbs
  std::uint64_t n0_inv_;               // -n^{-1} mod 2^64
  std::vector<std::uint64_t> r2_;      // R^2 mod n (Montgomery form of R)
  std::vector<std::uint64_t> one_;     // Montgomery form of 1 (R mod n)
};

}  // namespace spfe::bignum
