#include "pir/cpir.h"

#include <algorithm>
#include <cmath>

#include "bignum/multiexp.h"
#include "bignum/serialize.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/secret.h"
#include "common/serialize.h"
#include "obs/obs.h"

namespace spfe::pir {

using bignum::BigInt;

namespace {

std::vector<std::size_t> balanced_dims(std::size_t n, std::size_t depth) {
  if (depth == 0 || depth > 4) throw InvalidArgument("PaillierPir: depth must be 1..4");
  std::vector<std::size_t> dims(depth);
  // Smallest d with d^depth >= n, then shrink trailing dims where possible.
  std::size_t d = 1;
  while (true) {
    std::size_t prod = 1;
    bool enough = false;
    for (std::size_t j = 0; j < depth; ++j) {
      prod *= d;
      if (prod >= n) {
        enough = true;
        break;
      }
    }
    if (enough) break;
    ++d;
  }
  std::size_t remaining = n;
  for (std::size_t j = 0; j < depth; ++j) {
    dims[j] = d;
    remaining = (remaining + d - 1) / d;
  }
  // Tighten the last dimensions to the residual count.
  std::size_t count = n;
  for (std::size_t j = 0; j + 1 < depth; ++j) count = (count + dims[j] - 1) / dims[j];
  dims[depth - 1] = std::max<std::size_t>(count, 1);
  return dims;
}

}  // namespace

PaillierPir::PaillierPir(he::PaillierPublicKey pk, std::size_t n, std::size_t depth)
    : pk_(std::move(pk)), n_(n), dims_(balanced_dims(n, depth)) {
  if (n == 0) throw InvalidArgument("PaillierPir: empty database");
}

std::size_t PaillierPir::chunk_bytes() const {
  // Chunks must stay below N with headroom for the fold's additions.
  return (pk_.modulus_bits() - 16) / 8;
}

Bytes PaillierPir::make_query(std::size_t /*secret*/ index, ClientState& state,
                              const he::PaillierPrivateKey& sk, crypto::Prg& prg) const {
  if (!(sk.public_key() == pk_)) {
    throw InvalidArgument("PaillierPir: private key is for a different public key");
  }
  return make_query_impl(index, state, [&](std::size_t count) {
    std::vector<BigInt> rs(count);
    for (BigInt& r : rs) r = pk_.random_unit(prg);
    return sk.encryption_factors(rs);
  });
}

Bytes PaillierPir::make_query(std::size_t /*secret*/ index, ClientState& state,
                              he::PaillierRandomnessPool& pool) const {
  if (!(pool.public_key() == pk_)) {
    throw InvalidArgument("PaillierPir: pool is for a different public key");
  }
  return make_query_impl(index, state, [&](std::size_t count) {
    std::vector<BigInt> factors(count);
    for (BigInt& f : factors) f = pool.next_factor();
    return factors;
  });
}

Bytes PaillierPir::make_query_impl(
    std::size_t /*secret*/ index, ClientState& state,
    const std::function<std::vector<BigInt>(std::size_t)>& factors) const {
  if (index >= n_) throw InvalidArgument("PaillierPir: index out of range");
  SPFE_OBS_SPAN("cpir.make_query");
  state.positions.clear();
  // Decompose the retrieval index into per-dimension positions and compute
  // every selector bit with the mask primitives: the mixed-radix div/mod and
  // the position comparisons all run branch-free so the client's query
  // construction time carries no trace of which record it wants. (BigInt
  // normalization of the 0/1 plaintexts below is a documented non-goal —
  // see DESIGN.md "Constant-time policy".)
  std::vector<std::vector<std::uint64_t>> bits(dims_.size());
  std::uint64_t residual = index;
  // SPFE_CT_BEGIN(cpir_make_query)
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    const common::CtDivmod dm = common::ct_divmod_u64(residual, dims_[j]);
    residual = dm.quotient;
    state.positions.push_back(static_cast<std::size_t>(dm.remainder));
    bits[j].resize(dims_[j]);
    for (std::size_t r = 0; r < dims_[j]; ++r) {
      bits[j][r] = common::ct_eq_u64(r, dm.remainder) & 1;
    }
  }
  // SPFE_CT_END
  std::size_t selectors = 0;
  for (const std::size_t d : dims_) selectors += d;
  const std::vector<BigInt> rn = factors(selectors);
  Writer w;
  std::size_t next = 0;
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    for (std::size_t r = 0; r < dims_[j]; ++r) {
      w.raw(pk_.encrypt_with_factor(BigInt(bits[j][r]), rn[next++])
                .to_bytes_be_padded(pk_.ciphertext_bytes()));
    }
  }
  return w.take();
}

std::vector<PaillierPir::LevelShape> PaillierPir::level_shapes(std::size_t level0_chunks) const {
  const std::size_t pieces = (pk_.ciphertext_bytes() + chunk_bytes() - 1) / chunk_bytes();
  std::vector<LevelShape> shapes;
  std::size_t items = n_, chunks = level0_chunks;
  for (std::size_t level = 0; level < dims_.size(); ++level) {
    const std::size_t groups = (items + dims_[level] - 1) / dims_[level];
    if (level + 1 == dims_.size() && groups != 1) {
      throw InvalidArgument("PaillierPir: dimension mismatch");
    }
    shapes.push_back({chunks, groups});
    items = groups;
    chunks *= pieces;
  }
  return shapes;
}

PaillierPir::WavePlan PaillierPir::plan_wave(std::size_t instances, std::size_t level0_chunks,
                                             std::size_t level0_bits) const {
  std::vector<bignum::detail::LaneStage> stages;
  for (const LevelShape& shape : level_shapes(level0_chunks)) {
    const std::size_t bits = stages.empty() ? level0_bits : chunk_bytes() * 8;
    stages.push_back({dims_[stages.size()], shape.cells(), bits});
  }
  const bignum::detail::LaneWavePlan plan = bignum::detail::plan_lane_wave(
      stages, instances, common::ThreadPool::global().thread_count(),
      pk_.n_squared().bit_length());
  return {plan.instances, plan.table_bytes};
}

std::vector<Bytes> PaillierPir::answer_chunks(std::span<const BytesView> queries,
                                              std::size_t level0_chunks, std::size_t level0_bits,
                                              const ItemSource& items, crypto::Prg& prg) const {
  SPFE_OBS_SPAN("cpir.answer");
  const std::vector<LevelShape> shapes = level_shapes(level0_chunks);
  const std::size_t depth = dims_.size();
  const std::size_t cb = chunk_bytes();
  const std::size_t ct_bytes = pk_.ciphertext_bytes();
  const std::size_t pieces = (ct_bytes + cb - 1) / cb;
  // Blinders per instance, level by level: one per cell.
  std::vector<std::size_t> level_offset(depth + 1, 0);
  for (std::size_t level = 0; level < depth; ++level) {
    level_offset[level + 1] = level_offset[level] + shapes[level].cells();
  }
  const std::size_t per_instance = level_offset[depth];
  const std::size_t wave = plan_wave(queries.size(), level0_chunks, level0_bits).instances;

  // A level's input is its exponent matrix, base-major with one column per
  // (group, chunk) cell: item `item` of the level is row item % dim of
  // group item / dim. Entries no item fills (a ragged tail group) stay 0.
  using Matrix = std::vector<std::vector<BigInt>>;
  const auto level_matrix = [&](std::size_t level) {
    return Matrix(dims_[level], std::vector<BigInt>(shapes[level].cells()));
  };
  const auto place = [&](Matrix& m, std::size_t level, std::size_t item, std::size_t chunk,
                         BigInt value) {
    const std::size_t dim = dims_[level];
    m[item % dim][(item / dim) * shapes[level].chunks + chunk] = std::move(value);
  };

  std::vector<Bytes> answers;
  answers.reserve(queries.size());
  for (std::size_t first = 0; first < queries.size(); first += wave) {
    const std::size_t size = std::min(wave, queries.size() - first);
    // The wave's items and selectors, made only now.
    std::vector<Matrix> exps(size);
    std::vector<std::vector<std::vector<BigInt>>> selectors(size);
    for (std::size_t i = 0; i < size; ++i) {
      exps[i] = level_matrix(0);
      items(first + i, [&](std::size_t item, std::size_t chunk, BigInt value) {
        place(exps[i], 0, item, chunk, std::move(value));
      });
      Reader r(queries[first + i]);
      selectors[i].resize(depth);
      for (std::size_t j = 0; j < depth; ++j) {
        selectors[i][j].reserve(dims_[j]);
        for (std::size_t row = 0; row < dims_[j]; ++row) {
          selectors[i][j].push_back(pk_.parse_ciphertext(r));
        }
      }
      r.expect_done();
    }

    std::vector<BigInt> blinders;
    {
      obs::Span span("cpir.fold");
      span.note("blinders");
      // Each cell's encrypt(0) randomness, drawn serially in the order
      // sequential answers consume the PRG: instance by instance, level by
      // level, (group, chunk) within a level. The final level rerandomizes
      // every cell with a second unit, drawn after the level's first ones.
      // r1^N * r2^N = (r1 r2 mod N)^N mod N^2, so one factor per cell does
      // both the blinding and the rerandomization.
      std::vector<BigInt> units(size * per_instance);
      for (std::size_t i = 0; i < size; ++i) {
        for (std::size_t level = 0; level < depth; ++level) {
          BigInt* cell = units.data() + i * per_instance + level_offset[level];
          const std::size_t cells = level_offset[level + 1] - level_offset[level];
          for (std::size_t c = 0; c < cells; ++c) cell[c] = pk_.random_unit(prg);
          if (level + 1 < depth) continue;
          for (std::size_t c = 0; c < cells; ++c) {
            cell[c] = bignum::mod_mul(cell[c], pk_.random_unit(prg), pk_.n());
          }
        }
      }
      blinders = pk_.encryption_factors(units);
    }

    for (std::size_t level = 0; level < depth; ++level) {
      obs::Span fold_span("cpir.fold");
      fold_span.note("level=" + std::to_string(level));
      const LevelShape& shape = shapes[level];
      const std::size_t cells = shape.cells();
      // One multi-exp per instance, all of the wave's in one call; window
      // tables built for an instance's selectors serve all of its cells.
      std::vector<bignum::MultiPowProblem> problems(size);
      for (std::size_t i = 0; i < size; ++i) problems[i] = {selectors[i][level], &exps[i]};
      const std::vector<std::vector<BigInt>> sums = pk_.mul_scalar_sum_matrices(problems);
      for (std::size_t i = 0; i < size; ++i) {
        const BigInt* blinder = blinders.data() + i * per_instance + level_offset[level];
        std::vector<BigInt> folded(cells);
        for (std::size_t cell = 0; cell < cells; ++cell) {
          folded[cell] = pk_.add(pk_.encrypt_with_factor(BigInt(0), blinder[cell]), sums[i][cell]);
        }
        if (level + 1 == depth) {
          // Final level: the cells are already rerandomized; emit them.
          Writer w;
          w.varint(folded.size());
          for (const BigInt& ct : folded) w.raw(ct.to_bytes_be_padded(ct_bytes));
          answers.push_back(w.take());
          continue;
        }
        // Re-chunk the ciphertexts into plaintexts for the next level: the
        // item of group g holds its cells' chunks in cell order.
        exps[i] = level_matrix(level + 1);
        for (std::size_t cell = 0; cell < cells; ++cell) {
          const Bytes be = folded[cell].to_bytes_be_padded(ct_bytes);
          const std::size_t g = cell / shape.chunks, c = cell % shape.chunks;
          // Little-endian chunk order over big-endian bytes: chunk p covers
          // bytes [ct_bytes - (p+1)*cb, ct_bytes - p*cb).
          for (std::size_t p = 0; p < pieces; ++p) {
            const std::size_t end = ct_bytes - p * cb;
            const std::size_t begin = end > cb ? end - cb : 0;
            place(exps[i], level + 1, g, c * pieces + p,
                  BigInt::from_bytes_be(BytesView(be.data() + begin, end - begin)));
          }
        }
      }
    }
  }
  return answers;
}

std::vector<Bytes> PaillierPir::answer_u64_many(
    std::span<const BytesView> queries,
    const std::function<std::span<const std::uint64_t>(std::size_t)>& database,
    crypto::Prg& prg) const {
  return answer_chunks(queries, 1, 64, [&](std::size_t instance, const ChunkSink& put) {
    const std::span<const std::uint64_t> db = database(instance);
    if (db.size() != n_) throw InvalidArgument("PaillierPir: database size mismatch");
    for (std::size_t i = 0; i < n_; ++i) put(i, 0, BigInt(db[i]));
  }, prg);
}

std::vector<Bytes> PaillierPir::answer_bytes_many(
    std::span<const BytesView> queries, std::size_t item_bytes,
    const std::function<std::span<const Bytes>(std::size_t)>& database, crypto::Prg& prg) const {
  const std::size_t cb = chunk_bytes();
  const std::size_t pieces = (item_bytes + cb - 1) / cb;
  return answer_chunks(queries, pieces, std::min(item_bytes, cb) * 8,
                       [&](std::size_t instance, const ChunkSink& put) {
    const std::span<const Bytes> db = database(instance);
    if (db.size() != n_) throw InvalidArgument("PaillierPir: database size mismatch");
    for (std::size_t i = 0; i < n_; ++i) {
      if (db[i].size() != item_bytes) throw InvalidArgument("PaillierPir: item size mismatch");
      for (std::size_t p = 0; p < pieces; ++p) {
        const std::size_t end = item_bytes - p * cb;
        const std::size_t begin = end > cb ? end - cb : 0;
        put(i, p, BigInt::from_bytes_be(BytesView(db[i].data() + begin, end - begin)));
      }
    }
  }, prg);
}

Bytes PaillierPir::answer_u64(std::span<const std::uint64_t> database, BytesView query,
                              crypto::Prg& prg) const {
  return std::move(answer_u64_many({&query, 1}, [&](std::size_t) { return database; }, prg)[0]);
}

Bytes PaillierPir::answer_bytes(std::span<const Bytes> database, std::size_t item_bytes,
                                BytesView query, crypto::Prg& prg) const {
  return std::move(
      answer_bytes_many({&query, 1}, item_bytes, [&](std::size_t) { return database; }, prg)[0]);
}

std::vector<std::vector<BigInt>> PaillierPir::decode_chunks(const he::PaillierPrivateKey& sk,
                                                            std::span<const BytesView> answers,
                                                            std::size_t level0_chunks) const {
  SPFE_OBS_SPAN("cpir.decode");
  const std::size_t cb = chunk_bytes();
  const std::size_t ct_bytes = pk_.ciphertext_bytes();
  const std::size_t pieces = (ct_bytes + cb - 1) / cb;
  std::size_t expected = level0_chunks;
  for (std::size_t level = 1; level < dims_.size(); ++level) expected *= pieces;
  std::vector<std::vector<BigInt>> cts(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    Reader r(answers[i]);
    const std::uint64_t count = r.varint_count(ct_bytes);
    if (count != expected) throw ProtocolError("PaillierPir: bad answer shape");
    cts[i].reserve(count);
    for (std::uint64_t c = 0; c < count; ++c) cts[i].push_back(pk_.parse_ciphertext(r));
    r.expect_done();
  }

  // Decrypts every answer's current level in one batch.
  const auto decrypt_level = [&] {
    std::vector<BigInt> all;
    for (std::vector<BigInt>& v : cts) {
      for (BigInt& ct : v) all.push_back(std::move(ct));
    }
    const std::vector<BigInt> plain = sk.decrypt_all(all);
    std::size_t next = 0;
    for (std::vector<BigInt>& v : cts) {
      for (BigInt& m : v) m = plain[next++];
    }
  };
  // Peel recursion levels: decrypt, reassemble chunk groups into inner
  // ciphertexts, repeat. After peeling depth-1 levels, `cts` holds the
  // level-0 ciphertexts whose plaintexts are the item chunks.
  for (std::size_t level = dims_.size(); level-- > 1;) {
    decrypt_level();
    for (std::vector<BigInt>& v : cts) {
      std::vector<BigInt> inner;
      inner.reserve(v.size() / pieces);
      for (std::size_t g = 0; g < v.size(); g += pieces) {
        BigInt c;
        for (std::size_t p = pieces; p-- > 0;) c = (c << (cb * 8)) + v[g + p];
        if (c >= pk_.n_squared()) throw ProtocolError("PaillierPir: inner ciphertext out of range");
        inner.push_back(std::move(c));
      }
      v = std::move(inner);
    }
  }
  decrypt_level();
  return cts;
}

std::vector<std::uint64_t> PaillierPir::decode_u64_many(const he::PaillierPrivateKey& sk,
                                                        std::span<const BytesView> answers) const {
  const std::vector<std::vector<BigInt>> chunks = decode_chunks(sk, answers, 1);
  std::vector<std::uint64_t> out(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i][0].bit_length() > 64) throw ProtocolError("PaillierPir: item exceeds 64 bits");
    out[i] = chunks[i][0].to_u64();
  }
  return out;
}

std::vector<Bytes> PaillierPir::decode_bytes_many(const he::PaillierPrivateKey& sk,
                                                  std::size_t item_bytes,
                                                  std::span<const BytesView> answers) const {
  const std::size_t cb = chunk_bytes();
  const std::size_t pieces = (item_bytes + cb - 1) / cb;
  const std::vector<std::vector<BigInt>> chunks = decode_chunks(sk, answers, pieces);
  std::vector<Bytes> out(chunks.size(), Bytes(item_bytes, 0));
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    for (std::size_t p = 0; p < pieces; ++p) {
      const std::size_t end = item_bytes - p * cb;
      const std::size_t begin = end > cb ? end - cb : 0;
      if (chunks[i][p].bit_length() > 8 * (end - begin)) {
        throw ProtocolError("PaillierPir: item chunk wider than the item");
      }
      const Bytes be = chunks[i][p].to_bytes_be_padded(end - begin);
      std::copy(be.begin(), be.end(), out[i].begin() + static_cast<std::ptrdiff_t>(begin));
    }
  }
  return out;
}

std::uint64_t PaillierPir::decode_u64(const he::PaillierPrivateKey& sk, BytesView answer) const {
  return decode_u64_many(sk, {&answer, 1})[0];
}

Bytes PaillierPir::decode_bytes(const he::PaillierPrivateKey& sk, std::size_t item_bytes,
                                BytesView answer) const {
  return std::move(decode_bytes_many(sk, item_bytes, {&answer, 1})[0]);
}

}  // namespace spfe::pir
