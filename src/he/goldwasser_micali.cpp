#include "he/goldwasser_micali.h"

#include "bignum/primes.h"
#include "bignum/serialize.h"
#include "common/error.h"
#include "common/secret.h"
#include "obs/obs.h"

namespace spfe::he {

using bignum::BigInt;

GmPublicKey::GmPublicKey(BigInt n, BigInt z)
    : n_(std::move(n)), z_(std::move(z)), mont_(n_) {
  if (n_ <= BigInt(3) || !n_.is_odd()) {
    throw InvalidArgument("GmPublicKey: N must be odd and > 3");
  }
  if (bignum::jacobi(z_, n_) != 1) {
    throw InvalidArgument("GmPublicKey: z must have Jacobi symbol +1");
  }
}

BigInt GmPublicKey::encrypt(bool bit, crypto::Prg& prg) const {
  const BigInt r = random_unit(prg);
  const BigInt r2 = bignum::mod_mul(r, r, n_);
  return encrypt_with_factors(bit, r2, bignum::mod_mul(z_, r2, n_));
}

BigInt GmPublicKey::encrypt_with_factors(bool bit, const BigInt& r2, const BigInt& zr2) const {
  obs::count(obs::Op::kGmEncrypt);
  return bit ? zr2 : r2;
}

BigInt GmPublicKey::random_unit(crypto::Prg& prg) const {
  // Uniform over [1, N): draw from [0, N) and reject 0, so neither end of
  // the documented range is silently excluded. The zero test runs over all
  // limbs through the mask primitives; only the accept/reject bit is
  // declassified (rejected draws are independent of the surviving secret).
  for (;;) {
    BigInt r = BigInt::random_below(prg, n_);
    common::SecretBool nonzero;
    for (const std::uint64_t limb : r.limbs()) {
      nonzero = nonzero | common::SecretBool::from_mask(common::ct_is_nonzero_u64(limb));
    }
    // SPFE_DECLASSIFY: rejection-sampling accept bit; rejected draws are discarded and independent of the survivor
    if (nonzero.declassify()) return r;
  }
}

BigInt GmPublicKey::xor_ct(const BigInt& ca, const BigInt& cb) const {
  return bignum::mod_mul(ca, cb, n_);
}

BigInt GmPublicKey::rerandomize(const BigInt& c, crypto::Prg& prg) const {
  const BigInt r = random_unit(prg);
  return rerandomize_with_factor(c, bignum::mod_mul(r, r, n_));
}

BigInt GmPublicKey::rerandomize_with_factor(const BigInt& c, const BigInt& r2) const {
  return bignum::mod_mul(c, r2, n_);
}

BigInt GmPublicKey::parse_ciphertext(Reader& r) const {
  BigInt c = BigInt::from_bytes_be(r.raw(ciphertext_bytes()));
  if (c.is_zero() || c >= n_) throw ProtocolError("GM: ciphertext out of range");
  return c;
}

void GmPublicKey::serialize(Writer& w) const {
  bignum::write_bigint(w, n_);
  bignum::write_bigint(w, z_);
}

GmPublicKey GmPublicKey::deserialize(Reader& r) {
  BigInt n = bignum::read_bigint(r);
  BigInt z = bignum::read_bigint(r);
  return GmPublicKey(std::move(n), std::move(z));
}

GmPrivateKey::GmPrivateKey(BigInt p, BigInt q, BigInt z)
    : pk_(p * q, std::move(z)),
      p_(std::move(p)),
      mont_p_(p_),
      euler_exp_((p_ - BigInt(1)) >> 1) {}

bool GmPrivateKey::decrypt(const BigInt& c) const {
  obs::count(obs::Op::kGmDecrypt);
  // c is a residue mod p iff the plaintext bit is 0. Euler criterion:
  // c^((p-1)/2) mod p is 1 for residues and p-1 for non-residues — same
  // verdict as the Legendre symbol, but computed with the constant-time
  // modexp instead of a Euclid chain whose iteration count and remainder
  // sizes depend on the secret factor.
  const BigInt ls = mont_p_.pow(c.mod_floor(p_), euler_exp_);
  if (ls.is_zero()) throw CryptoError("GM decrypt: ciphertext shares factor with N");
  return !ls.is_one();
}

GmPrivateKey gm_keygen(crypto::Prg& prg, std::size_t modulus_bits) {
  if (modulus_bits < 16) throw InvalidArgument("gm_keygen: modulus too small");
  const std::size_t half = modulus_bits / 2;
  const BigInt p = bignum::random_prime(prg, half);
  BigInt q = bignum::random_prime(prg, modulus_bits - half);
  while (q == p) q = bignum::random_prime(prg, modulus_bits - half);
  const BigInt n = p * q;
  // Find z: non-residue mod p and mod q (Jacobi(z, N) = +1 but z is not a QR).
  for (;;) {
    const BigInt z = BigInt::random_below(prg, n - BigInt(2)) + BigInt(2);
    if (bignum::jacobi(z, p) == -1 && bignum::jacobi(z, q) == -1) {
      return GmPrivateKey(p, q, z);
    }
  }
}

}  // namespace spfe::he
