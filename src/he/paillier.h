// Paillier additively homomorphic encryption (cited as [41] in the paper).
//
// Plaintext group is Z_N; ciphertexts live in Z_{N^2}^*. The homomorphism is
// exactly what §3.3.2/§3.3.3/§3.3.4/§4 require:
//   E(a) (*) E(b)   = E(a + b mod N)      (ciphertext multiplication)
//   E(a) ^ c        = E(c * a mod N)      (scalar exponentiation)
// Protocols that work over a small ring Z_u embed Z_u in Z_N (u << N) and
// track value ranges so blinding stays statistically hiding — see
// mpc/arith_protocol.h for the bookkeeping.
//
// Encryption uses g = N + 1, so E(m, r) = (1 + m*N) * r^N mod N^2 costs a
// single modexp. Decryption uses the standard CRT split: with knowledge of
// p and q, m mod p = L_p(c^{p-1} mod p^2) * h_p mod p (h_p precomputed, and
// symmetrically mod q), recombined with bignum::crt_combine — two half-size
// modexps with half-size exponents, ~4x cheaper than the direct
// L(c^lambda mod N^2) * mu mod N path, which lives outside the library as
// the test and bench reference (tests/paillier_reference.h).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "bignum/multiexp.h"
#include "common/serialize.h"
#include "crypto/prg.h"

namespace spfe::he {

class PaillierPublicKey {
 public:
  explicit PaillierPublicKey(bignum::BigInt n);

  const bignum::BigInt& n() const { return n_; }
  const bignum::BigInt& n_squared() const { return n2_; }
  std::size_t modulus_bits() const { return n_.bit_length(); }
  // Serialized ciphertext size in bytes (fixed width).
  std::size_t ciphertext_bytes() const { return (n2_.bit_length() + 7) / 8; }

  // Encrypts m (reduced mod N) with fresh randomness from `prg`.
  bignum::BigInt encrypt(const bignum::BigInt& m, crypto::Prg& prg) const;
  // Deterministic encryption with explicit randomness r in Z_N^*.
  bignum::BigInt encrypt_with_randomness(const bignum::BigInt& m,
                                         const bignum::BigInt& r) const;

  // The message-independent encryption factor r^N mod N^2 — the entire
  // modexp cost of an encryption. Precomputable offline (he/precomp.h).
  bignum::BigInt encryption_factor(const bignum::BigInt& r) const;
  // encryption_factor(rs[i]) for every r, computed as one batched
  // exponentiation to the public exponent N (bignum pow_batch: eight at a
  // time on AVX-512 IFMA CPUs, fanned out across the global thread pool).
  // A key holder computes the same factors faster with
  // PaillierPrivateKey::encryption_factors.
  std::vector<bignum::BigInt> encryption_factors(std::span<const bignum::BigInt> rs) const;
  // Encrypts m with a precomputed factor rn = encryption_factor(r): one
  // modular multiplication. encrypt_with_factor(m, encryption_factor(r)) ==
  // encrypt_with_randomness(m, r).
  bignum::BigInt encrypt_with_factor(const bignum::BigInt& m,
                                     const bignum::BigInt& rn) const;
  // Rerandomization with a precomputed factor: c * rn mod N^2.
  bignum::BigInt rerandomize_with_factor(const bignum::BigInt& c,
                                         const bignum::BigInt& rn) const;

  // Uniform randomness in [1, N) for encryption/rerandomization; gcd(r, N)
  // is 1 except with negligible probability (a violation would factor N).
  bignum::BigInt random_unit(crypto::Prg& prg) const;

  // E(a) * E(b) = E(a + b).
  bignum::BigInt add(const bignum::BigInt& ca, const bignum::BigInt& cb) const;
  // E(a)^c = E(c * a). Negative scalars use the group inverse.
  bignum::BigInt mul_scalar(const bignum::BigInt& c, const bignum::BigInt& scalar) const;
  // Homomorphic weighted sum E(sum_i scalars[i] * a_i) = prod_i cts[i]^{scalars[i]}
  // evaluated as one simultaneous multi-exponentiation (shared squaring
  // chain) instead of |cts| independent modexps. Byte-identical to folding
  // mul_scalar results with add.
  bignum::BigInt mul_scalar_sum(std::span<const bignum::BigInt> cts,
                                std::span<const bignum::BigInt> scalars) const;
  // Column-wise batch of the above: out[c] = E(sum_i scalars[i][c] * a_i).
  // Window/comb tables are shared across columns and the columns fan out
  // across the global thread pool — the cPIR server fold kernel.
  std::vector<bignum::BigInt> mul_scalar_sum_matrix(
      std::span<const bignum::BigInt> cts,
      const std::vector<std::vector<bignum::BigInt>>& scalars) const;
  // Many of the above in one call: out[p] = mul_scalar_sum_matrix(
  // problems[p].bases, *problems[p].exps). On AVX-512 IFMA CPUs their
  // Straus multi-exps share one lane pass (bignum::multi_pow_matrices).
  std::vector<std::vector<bignum::BigInt>> mul_scalar_sum_matrices(
      std::span<const bignum::MultiPowProblem> problems) const;
  // E(a) -> E(-a).
  bignum::BigInt negate(const bignum::BigInt& c) const;
  // Refreshes randomness without changing the plaintext.
  bignum::BigInt rerandomize(const bignum::BigInt& c, crypto::Prg& prg) const;
  // Deterministic rerandomization with explicit r in Z_N^*; lets callers
  // pre-draw randomness serially and fan the modexps out across threads.
  bignum::BigInt rerandomize_with_randomness(const bignum::BigInt& c,
                                             const bignum::BigInt& r) const;

  // Reads one fixed-width ciphertext off the wire and checks it is < N^2;
  // throws ProtocolError for an out-of-range value (e.g. all-0xff bytes),
  // which no encryption under this key can produce.
  bignum::BigInt parse_ciphertext(Reader& r) const;

  void serialize(Writer& w) const;
  static PaillierPublicKey deserialize(Reader& r);

  bool operator==(const PaillierPublicKey& o) const { return n_ == o.n_; }

 private:
  bignum::BigInt n_;
  bignum::BigInt n2_;
  bignum::MontgomeryContext mont_n2_;
};

class PaillierPrivateKey {
 public:
  // Requires odd p != q > 2 with gcd(pq, (p-1)(q-1)) = 1 (the keygen
  // invariant the decryption equation relies on); throws InvalidArgument
  // otherwise, so adversarially constructed keys fail fast.
  PaillierPrivateKey(bignum::BigInt p, bignum::BigInt q);

  const PaillierPublicKey& public_key() const { return pk_; }

  // CRT decryption (see the file comment); the default fast path.
  bignum::BigInt decrypt(const bignum::BigInt& c) const;
  // Batch decryption; element i of the result is decrypt(cts[i]), and an
  // invalid element throws what decrypt would (the first one in order).
  // The CRT exponentiations c^(p-1) mod p^2 and c^(q-1) mod q^2 of the
  // whole batch run through MontgomeryContext::pow_batch_secret (eight
  // lanes at a time on AVX-512 IFMA, constant time in the exponents); the
  // rest of each decryption fans out across the global thread pool.
  std::vector<bignum::BigInt> decrypt_all(std::span<const bignum::BigInt> cts) const;
  // Decrypts into the symmetric range (-N/2, N/2]; used by protocols that
  // encode signed differences.
  bignum::BigInt decrypt_signed(const bignum::BigInt& c) const;

  // Element i equals public_key().encryption_factor(rs[i]), computed by
  // CRT: (r mod p^2)^N and (r mod q^2)^N, each a pow_batch to the public
  // exponent N at half the width of N^2, recombined with (p^2)^{-1} mod q^2.
  // Counts one kModExp per factor, as the public-key batch does.
  std::vector<bignum::BigInt> encryption_factors(std::span<const bignum::BigInt> rs) const;
  // Encrypts every plaintext under public_key() with fresh randomness: the
  // units are drawn serially from `prg` (the order of ms.size()
  // public_key().encrypt() calls), then the factors are computed in one
  // encryption_factors batch. Element i equals public_key().encrypt(ms[i],
  // prg) in that serial order.
  std::vector<bignum::BigInt> encrypt_all(std::span<const bignum::BigInt> ms,
                                          crypto::Prg& prg) const;

 private:
  void check_ciphertext(const bignum::BigInt& c) const;
  // c mod p^2 and c mod q^2 after the range check; CryptoError when p or q
  // divides c.
  std::pair<bignum::BigInt, bignum::BigInt> crt_residues(const bignum::BigInt& c) const;
  // m from up = c^(p-1) mod p^2 and uq = c^(q-1) mod q^2.
  bignum::BigInt crt_finish(const bignum::BigInt& up, const bignum::BigInt& uq) const;

  PaillierPublicKey pk_;
  bignum::BigInt p_;
  bignum::BigInt q_;
  bignum::BigInt p2_;  // p^2
  bignum::BigInt q2_;  // q^2
  bignum::MontgomeryContext mont_p2_;
  bignum::MontgomeryContext mont_q2_;
  bignum::BigInt ep_;  // p - 1 (CRT decryption exponent mod p^2)
  bignum::BigInt eq_;  // q - 1
  bignum::BigInt hp_;  // ((p-1) * q)^{-1} mod p
  bignum::BigInt hq_;  // ((q-1) * p)^{-1} mod q
  bignum::BigInt pinv_q_;  // p^{-1} mod q (CRT recombination)
  bignum::BigInt p2inv_q2_;  // (p^2)^{-1} mod q^2 (encryption factor recombination)
};

struct PaillierKeyPair {
  PaillierPrivateKey sk;
};

// Generates a key with an N of `modulus_bits` bits (two primes of half size).
PaillierPrivateKey paillier_keygen(crypto::Prg& prg, std::size_t modulus_bits);

}  // namespace spfe::he
