// Reference Paillier decryption for regression tests and the bench
// ablation: the CRT-free textbook equation L(c^lambda mod N^2) * mu mod N,
// with lambda = lcm(p - 1, q - 1) and mu = lambda^{-1} mod N, on
// bignum::mod_pow. It must equal PaillierPrivateKey::decrypt
// (CRT) for every c in Z_{N^2}^*, and it throws what decrypt throws.
#pragma once

#include <cstddef>
#include <utility>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "bignum/primes.h"
#include "common/error.h"
#include "crypto/prg.h"

namespace spfe::reference {

struct PaillierPrimes {
  bignum::BigInt p;
  bignum::BigInt q;
};

// The primes he::paillier_keygen(prg, modulus_bits) picks, drawn the same
// way, so he::PaillierPrivateKey(p, q) is the key it returns.
inline PaillierPrimes paillier_primes(crypto::Prg& prg, std::size_t modulus_bits) {
  using bignum::BigInt;
  const std::size_t half = modulus_bits / 2;
  for (;;) {
    BigInt p = bignum::random_prime(prg, half);
    BigInt q = bignum::random_prime(prg, modulus_bits - half);
    if (p == q) continue;
    const BigInt n = p * q;
    if (n.bit_length() != modulus_bits) continue;
    if (!bignum::gcd(n, (p - BigInt(1)) * (q - BigInt(1))).is_one()) continue;
    return {std::move(p), std::move(q)};
  }
}

inline bignum::BigInt paillier_decrypt_reference(const bignum::BigInt& p, const bignum::BigInt& q,
                                                 const bignum::BigInt& c) {
  using bignum::BigInt;
  const BigInt n = p * q;
  const BigInt n2 = n * n;
  if (c.is_negative() || c >= n2) throw InvalidArgument("Paillier decrypt: ciphertext range");
  if (!bignum::gcd(c, n).is_one()) throw CryptoError("Paillier decrypt: invalid ciphertext");
  const BigInt p1 = p - BigInt(1), q1 = q - BigInt(1);
  const BigInt lambda = (p1 * q1) / bignum::gcd(p1, q1);
  const BigInt u = bignum::mod_pow(c, lambda, n2);
  // With g = N + 1, L(g^lambda mod N^2) = lambda mod N, so mu = lambda^{-1}.
  return bignum::mod_mul((u - BigInt(1)) / n, bignum::mod_inverse(lambda, n), n);
}

}  // namespace spfe::reference
