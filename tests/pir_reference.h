// Reference cPIR server fold for regression tests and the bench ablation:
// the original per-row mul_scalar/add loop, one cell at a time, with no
// multi-exponentiation, batching or lanes. It draws the server PRG exactly
// as PaillierPir's answers do (each level's cells in (group, chunk) order,
// then the last level's rerandomizing units), so its answers must equal
// PaillierPir::answer_u64 / answer_bytes byte for byte.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/serialize.h"
#include "crypto/prg.h"
#include "pir/cpir.h"

namespace spfe::reference {

// Plaintext chunk size of the recursion (as PaillierPir chooses it).
inline std::size_t pir_chunk_bytes(const he::PaillierPublicKey& pk) {
  return (pk.modulus_bits() - 16) / 8;
}

// Little-endian chunks of a big-endian byte string: chunk p covers bytes
// [size - (p+1)*cb, size - p*cb).
inline std::vector<bignum::BigInt> pir_chunks(BytesView be, std::size_t pieces, std::size_t cb) {
  std::vector<bignum::BigInt> out;
  for (std::size_t p = 0; p < pieces; ++p) {
    const std::size_t end = be.size() - p * cb;
    const std::size_t begin = end > cb ? end - cb : 0;
    out.push_back(bignum::BigInt::from_bytes_be(be.subspan(begin, end - begin)));
  }
  return out;
}

inline Bytes naive_answer_chunks(const pir::PaillierPir& pir,
                                 std::vector<std::vector<bignum::BigInt>> items, BytesView query,
                                 crypto::Prg& prg) {
  using bignum::BigInt;
  const he::PaillierPublicKey& pk = pir.public_key();
  const std::vector<std::size_t>& dims = pir.dims();
  Reader r(query);
  std::vector<std::vector<BigInt>> selectors(dims.size());
  for (std::size_t j = 0; j < dims.size(); ++j) {
    for (std::size_t i = 0; i < dims[j]; ++i) selectors[j].push_back(pk.parse_ciphertext(r));
  }
  r.expect_done();
  const std::size_t cb = pir_chunk_bytes(pk);
  const std::size_t ct_bytes = pk.ciphertext_bytes();
  const std::size_t pieces = (ct_bytes + cb - 1) / cb;
  for (std::size_t level = 0;; ++level) {
    const std::size_t dim = dims[level];
    const std::size_t groups = (items.size() + dim - 1) / dim;
    const std::size_t chunks = items.empty() ? 0 : items[0].size();
    const bool last = level + 1 == dims.size();
    std::vector<BigInt> units(groups * chunks);
    for (BigInt& unit : units) unit = pk.random_unit(prg);
    if (last) {
      for (BigInt& unit : units) unit = bignum::mod_mul(unit, pk.random_unit(prg), pk.n());
    }
    std::vector<std::vector<BigInt>> folded(groups, std::vector<BigInt>(chunks));
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t c = 0; c < chunks; ++c) {
        BigInt acc = pk.encrypt_with_randomness(BigInt(0), units[g * chunks + c]);
        for (std::size_t row = 0; row < dim; ++row) {
          const std::size_t idx = g * dim + row;
          if (idx >= items.size()) break;
          if (items[idx][c].is_zero()) continue;  // exponent 0 contributes nothing
          acc = pk.add(acc, pk.mul_scalar(selectors[level][row], items[idx][c]));
        }
        folded[g][c] = std::move(acc);
      }
    }
    if (last) {
      Writer w;
      w.varint(folded[0].size());
      for (const BigInt& ct : folded[0]) w.raw(ct.to_bytes_be_padded(ct_bytes));
      return w.take();
    }
    std::vector<std::vector<BigInt>> next(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      for (const BigInt& ct : folded[g]) {
        const Bytes be = ct.to_bytes_be_padded(ct_bytes);
        for (BigInt& chunk : pir_chunks(be, pieces, cb)) next[g].push_back(std::move(chunk));
      }
    }
    items = std::move(next);
  }
}

inline Bytes naive_answer_u64(const pir::PaillierPir& pir, std::span<const std::uint64_t> db,
                              BytesView query, crypto::Prg& prg) {
  std::vector<std::vector<bignum::BigInt>> items(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) items[i] = {bignum::BigInt(db[i])};
  return naive_answer_chunks(pir, std::move(items), query, prg);
}

inline Bytes naive_answer_bytes(const pir::PaillierPir& pir, std::span<const Bytes> db,
                                std::size_t item_bytes, BytesView query, crypto::Prg& prg) {
  const std::size_t cb = pir_chunk_bytes(pir.public_key());
  std::vector<std::vector<bignum::BigInt>> items(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    if (db[i].size() != item_bytes) throw InvalidArgument("naive_answer_bytes: item size");
    items[i] = pir_chunks(db[i], (item_bytes + cb - 1) / cb, cb);
  }
  return naive_answer_chunks(pir, std::move(items), query, prg);
}

}  // namespace spfe::reference
