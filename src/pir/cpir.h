// Single-server computational PIR from additively homomorphic encryption
// (Kushilevitz–Ostrovsky [32] style, instantiated with Paillier).
//
// The client sends, per recursion dimension, an encrypted one-hot selector;
// the server folds the database dimension-by-dimension:
//   level 0: E(x_i0) = prod_r E(sel0[r])^{x_r}  (exponents are *data*, small)
//   level j>0: previous-level ciphertexts are split into chunks < N and the
//   fold is repeated, tripling the ciphertext count per level.
// depth 1 is the linear baseline (n ciphertexts up), depth 2 gives the
// classic O(sqrt n) communication, depth 3 O(n^{1/3}) with a 9x response
// expansion — bench_spir ablates the trade-off.
//
// Database secrecy: a semi-honest client learns exactly one item. A
// malicious client can submit a non-one-hot selector and learn one *linear
// combination* of items — which is precisely one function of <= m database
// locations, i.e. the paper's weak-security class. This is documented
// behaviour (tested in tests/pir_test.cpp), matching how §3.3 consumes SPIR.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bignum/bigint.h"
#include "common/bytes.h"
#include "crypto/prg.h"
#include "he/paillier.h"
#include "he/precomp.h"

namespace spfe::pir {

class PaillierPir {
 public:
  // `depth` recursion dimensions (1..4); dims are balanced ~ n^(1/depth).
  PaillierPir(he::PaillierPublicKey pk, std::size_t n, std::size_t depth);

  std::size_t n() const { return n_; }
  std::size_t depth() const { return dims_.size(); }
  const std::vector<std::size_t>& dims() const { return dims_; }
  const he::PaillierPublicKey& public_key() const { return pk_; }

  struct ClientState {
    std::vector<std::size_t> positions;  // per-dimension coordinate
  };

  // Client: encrypted selector per dimension (sum(dims) ciphertexts). The
  // client holds the key it decodes with, so the selectors' encryption
  // factors come from sk.encryption_factors (by CRT); units are drawn from
  // `prg` in selector order. `sk` must be this PIR's key (InvalidArgument
  // otherwise).
  Bytes make_query(std::size_t index, ClientState& state, const he::PaillierPrivateKey& sk,
                   crypto::Prg& prg) const;
  // Pooled client query: encryption factors come from the precomputation
  // pool (he/precomp.h). Byte-identical to the Prg overload when the pool's
  // stream is seeded with the same seed, whatever the pool's warmth. The
  // pool must hold factors for this PIR's public key.
  Bytes make_query(std::size_t index, ClientState& state,
                   he::PaillierRandomnessPool& pool) const;

  // Server: database of u64 values (must each be < N).
  Bytes answer_u64(std::span<const std::uint64_t> database, BytesView query,
                   crypto::Prg& prg) const;
  // Server: database of equal-length byte items (arbitrary length; chunked).
  Bytes answer_bytes(std::span<const Bytes> database, std::size_t item_bytes, BytesView query,
                     crypto::Prg& prg) const;

  // Server, many (database, query) instances in one call; the single
  // answers above are its one-instance case. Instance i pairs queries[i]
  // with database(i), whose span need only stay valid until the next call.
  // Answer i, and every draw from `prg`, equal what answer_u64(database(i),
  // queries[i], prg) for i = 0, 1, ... in turn would produce.
  //
  // Instances fold in waves of plan_wave(...).instances: a wave parses its
  // selectors and builds its items when it starts, draws its randomness in
  // the sequential order, computes all of its blinders in one
  // encryption_factors call, and folds each recursion level of all its
  // instances in one Paillier mul_scalar_sum_matrices call, whose Straus
  // multi-exps share one lane pass on AVX-512 IFMA CPUs.
  std::vector<Bytes> answer_u64_many(
      std::span<const BytesView> queries,
      const std::function<std::span<const std::uint64_t>(std::size_t)>& database,
      crypto::Prg& prg) const;
  std::vector<Bytes> answer_bytes_many(
      std::span<const BytesView> queries, std::size_t item_bytes,
      const std::function<std::span<const Bytes>(std::size_t)>& database,
      crypto::Prg& prg) const;

  // Client: recursive decryption. Answer ciphertexts must be < N^2
  // (ProtocolError otherwise, like every malformed answer).
  std::uint64_t decode_u64(const he::PaillierPrivateKey& sk, BytesView answer) const;
  Bytes decode_bytes(const he::PaillierPrivateKey& sk, std::size_t item_bytes,
                     BytesView answer) const;
  // Many answers in one call, equal to the single decodes above: each
  // recursion level of every answer is peeled by one decrypt_all.
  std::vector<std::uint64_t> decode_u64_many(const he::PaillierPrivateKey& sk,
                                             std::span<const BytesView> answers) const;
  std::vector<Bytes> decode_bytes_many(const he::PaillierPrivateKey& sk, std::size_t item_bytes,
                                       std::span<const BytesView> answers) const;

  // How a batched answer of `instances` instances with `level0_chunks`
  // plaintext chunks per item is cut into waves (bignum::detail::
  // plan_lane_wave over the recursion levels). The wave size is derived
  // from the level shapes, the lane width and the pool's thread count: at
  // most enough instances that the narrowest level fills a lane group per
  // thread, the size with the least modelled lane cost per instance among
  // those whose shared multi-exp tables fit bignum::detail::
  // kLaneTableBudget at every level. One instance per wave keeps the
  // single-instance plan. `table_bytes` is the wave's largest level table.
  struct WavePlan {
    std::size_t instances;
    std::size_t table_bytes;
  };
  // Level-0 chunks have at most `level0_bits` bits.
  WavePlan plan_wave(std::size_t instances, std::size_t level0_chunks,
                     std::size_t level0_bits) const;

 private:
  // items(i, put) hands instance i's items to the fold as level-0
  // plaintext chunks (< N), calling put(item, chunk, value) for each.
  using ChunkSink = std::function<void(std::size_t, std::size_t, bignum::BigInt)>;
  using ItemSource = std::function<void(std::size_t, const ChunkSink&)>;

  // Shared query construction; `factors(count)` supplies the next `count`
  // encryption factors in stream order (from a Prg or a randomness pool).
  Bytes make_query_impl(
      std::size_t index, ClientState& state,
      const std::function<std::vector<bignum::BigInt>(std::size_t)>& factors) const;
  // Core fold over a matrix of plaintext chunks per item, wave by wave.
  std::vector<Bytes> answer_chunks(std::span<const BytesView> queries, std::size_t level0_chunks,
                                   std::size_t level0_bits, const ItemSource& items,
                                   crypto::Prg& prg) const;
  // Level-0 plaintext chunks of every answer.
  std::vector<std::vector<bignum::BigInt>> decode_chunks(const he::PaillierPrivateKey& sk,
                                                         std::span<const BytesView> answers,
                                                         std::size_t level0_chunks) const;

  std::size_t chunk_bytes() const;  // plaintext chunk size for recursion
  // Chunks per item entering each recursion level, and the level's groups
  // (items folded into one output item).
  struct LevelShape {
    std::size_t chunks;
    std::size_t groups;
    std::size_t cells() const { return groups * chunks; }  // the level's outputs
  };
  std::vector<LevelShape> level_shapes(std::size_t level0_chunks) const;

  he::PaillierPublicKey pk_;
  std::size_t n_;
  std::vector<std::size_t> dims_;
};

}  // namespace spfe::pir
