#include "spfe/psm_spfe.h"

#include <functional>

#include "common/error.h"
#include "common/serialize.h"
#include "obs/obs.h"

namespace spfe::protocols {
namespace {

void check_indices(const std::vector<std::size_t>& indices, std::size_t m, std::size_t n) {
  if (indices.size() != m) throw InvalidArgument("PSM SPFE: need exactly m indices");
  for (const std::size_t i : indices) {
    if (i >= n) throw InvalidArgument("PSM SPFE: index out of range");
  }
}

// The server's m SPIR answers, one per PSM player, from one batched
// PaillierPir call: the m queries are read off `r` (which must then be
// done), and player j's virtual database is built when its wave starts.
std::vector<Bytes> answer_players(const pir::PaillierPir& spir, Reader& r, std::size_t m,
                                  std::size_t alpha,
                                  const std::function<std::vector<Bytes>(std::size_t)>& player_db,
                                  crypto::Prg& server_prg) {
  std::vector<BytesView> queries(m);
  for (BytesView& q : queries) q = r.bytes_view();
  r.expect_done();
  std::vector<Bytes> virtual_db;
  return spir.answer_bytes_many(queries, alpha, [&](std::size_t j) {
    virtual_db = player_db(j);
    return std::span<const Bytes>(virtual_db);
  }, server_prg);
}

}  // namespace

PsmSumSpfeSingleServer::PsmSumSpfeSingleServer(he::PaillierPublicKey pk, std::size_t n,
                                               std::size_t m, std::uint64_t modulus,
                                               std::size_t pir_depth)
    : pk_(std::move(pk)), n_(n), m_(m), psm_(m, modulus), pir_depth_(pir_depth) {
  if (n == 0) throw InvalidArgument("PsmSumSpfeSingleServer: empty database");
}

std::uint64_t PsmSumSpfeSingleServer::run(net::StarNetwork& net,
                                          std::span<const std::uint64_t> database,
                                          const std::vector<std::size_t>& indices,
                                          const he::PaillierPrivateKey& sk,
                                          crypto::Prg& client_prg,
                                          crypto::Prg& server_prg) const {
  SPFE_OBS_SPAN("psm.sum_single_server");
  check_indices(indices, m_, n_);
  if (database.size() != n_) throw InvalidArgument("PsmSumSpfeSingleServer: database size");
  const pir::PaillierPir spir(pk_, n_, pir_depth_);
  const std::size_t alpha = psm_.message_bytes();

  // Client round-1 message: m independent SPIR queries.
  std::vector<pir::PaillierPir::ClientState> states(m_);
  {
    Writer w;
    for (std::size_t j = 0; j < m_; ++j) {
      w.bytes(spir.make_query(indices[j], states[j], sk, client_prg));
    }
    net.client_send(0, w.take());
  }

  // Server: virtual databases of player messages, one SPIR answer each,
  // plus p0 in the clear.
  {
    Reader r(net.server_receive(0));
    const crypto::Prg::Seed psm_seed = [&] {
      crypto::Prg::Seed s;
      const Bytes raw = server_prg.bytes(s.size());
      std::copy(raw.begin(), raw.end(), s.begin());
      return s;
    }();
    Writer w;
    for (const Bytes& answer : answer_players(spir, r, m_, alpha, [&](std::size_t j) {
           return psm_.player_messages(j, database, psm_seed);
         }, server_prg)) {
      w.bytes(answer);
    }
    w.bytes(psm_.referee_extra(psm_seed));
    net.server_send(0, w.take());
  }

  // Client: decode the m PSM messages and reconstruct.
  Reader r(net.client_receive(0));
  std::vector<BytesView> answers(m_);
  for (BytesView& a : answers) a = r.bytes_view();
  const std::vector<Bytes> messages = spir.decode_bytes_many(sk, alpha, answers);
  const Bytes extra = r.bytes();
  r.expect_done();
  return psm_.reconstruct(messages, extra);
}

PsmYaoSpfeSingleServer::PsmYaoSpfeSingleServer(he::PaillierPublicKey pk,
                                               const circuits::BooleanCircuit& circuit,
                                               std::size_t n, std::size_t m,
                                               std::size_t bits_per_item, std::size_t pir_depth)
    : pk_(std::move(pk)), n_(n), m_(m), psm_(circuit, m, bits_per_item), pir_depth_(pir_depth) {
  if (n == 0) throw InvalidArgument("PsmYaoSpfeSingleServer: empty database");
}

std::vector<bool> PsmYaoSpfeSingleServer::run(net::StarNetwork& net,
                                              std::span<const std::uint64_t> database,
                                              const std::vector<std::size_t>& indices,
                                              const he::PaillierPrivateKey& sk,
                                              crypto::Prg& client_prg,
                                              crypto::Prg& server_prg) const {
  SPFE_OBS_SPAN("psm.yao_single_server");
  check_indices(indices, m_, n_);
  if (database.size() != n_) throw InvalidArgument("PsmYaoSpfeSingleServer: database size");
  const pir::PaillierPir spir(pk_, n_, pir_depth_);
  const std::size_t alpha = psm_.message_bytes();

  std::vector<pir::PaillierPir::ClientState> states(m_);
  {
    Writer w;
    for (std::size_t j = 0; j < m_; ++j) {
      w.bytes(spir.make_query(indices[j], states[j], sk, client_prg));
    }
    net.client_send(0, w.take());
  }

  {
    Reader r(net.server_receive(0));
    crypto::Prg::Seed psm_seed;
    const Bytes raw = server_prg.bytes(psm_seed.size());
    std::copy(raw.begin(), raw.end(), psm_seed.begin());
    Writer w;
    for (const Bytes& answer : answer_players(spir, r, m_, alpha, [&](std::size_t j) {
           return psm_.player_messages(j, database, psm_seed);
         }, server_prg)) {
      w.bytes(answer);
    }
    w.bytes(psm_.referee_extra(psm_seed));
    net.server_send(0, w.take());
  }

  Reader r(net.client_receive(0));
  std::vector<BytesView> answers(m_);
  for (BytesView& a : answers) a = r.bytes_view();
  const std::vector<Bytes> messages = spir.decode_bytes_many(sk, alpha, answers);
  const Bytes extra = r.bytes();
  r.expect_done();
  return psm_.reconstruct(messages, extra);
}

PsmSumSpfeMultiServer::PsmSumSpfeMultiServer(field::Fp64 field, std::size_t n, std::size_t m,
                                             std::uint64_t modulus, std::size_t num_servers,
                                             std::size_t threshold)
    : field_(field), n_(n), m_(m), psm_(m, modulus), k_(num_servers), t_(threshold) {
  if (modulus > field.modulus()) {
    throw InvalidArgument("PsmSumSpfeMultiServer: modulus must fit in the field");
  }
}

std::uint64_t PsmSumSpfeMultiServer::run(net::StarNetwork& net,
                                         std::span<const std::uint64_t> database,
                                         const std::vector<std::size_t>& indices,
                                         crypto::Prg& client_prg,
                                         crypto::Prg& server_prg) const {
  SPFE_OBS_SPAN("psm.sum_multi_server");
  check_indices(indices, m_, n_);
  if (database.size() != n_) throw InvalidArgument("PsmSumSpfeMultiServer: database size");
  if (net.num_servers() != k_) throw InvalidArgument("PsmSumSpfeMultiServer: server count");
  const pir::PolyItPir spir(field_, n_, k_, t_);

  // Servers' common randomness: PSM seed + per-slot SPIR masking seeds.
  // (Derived here once; in deployment this is the replicated servers'
  // shared random input.)
  crypto::Prg::Seed common;
  {
    const Bytes raw = server_prg.bytes(common.size());
    std::copy(raw.begin(), raw.end(), common.begin());
  }
  const crypto::Prg common_prg(common);
  const crypto::Prg::Seed psm_seed = common_prg.fork_seed("psm");

  // Client: m IT-SPIR queries, one bundle per server.
  std::vector<pir::PolyItPir::ClientState> states(m_);
  std::vector<Writer> per_server(k_);
  for (std::size_t j = 0; j < m_; ++j) {
    const auto queries = spir.make_queries(indices[j], states[j], client_prg);
    for (std::size_t h = 0; h < k_; ++h) per_server[h].bytes(queries[h]);
  }
  for (std::size_t h = 0; h < k_; ++h) net.client_send(h, per_server[h].take());

  // Each server: answer all m slots over its virtual databases.
  for (std::size_t h = 0; h < k_; ++h) {
    Reader r(net.server_receive(h));
    Writer w;
    for (std::size_t j = 0; j < m_; ++j) {
      const Bytes query = r.bytes();
      const std::vector<Bytes> raw_msgs = psm_.player_messages(j, database, psm_seed);
      std::vector<std::uint64_t> virtual_db(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        Reader mr(raw_msgs[i]);
        virtual_db[i] = mr.u64();
      }
      const crypto::Prg::Seed slot_seed =
          common_prg.fork_seed("spir-slot-" + std::to_string(j));
      w.bytes(spir.answer(h, virtual_db, query, &slot_seed));
    }
    r.expect_done();
    if (h == 0) w.bytes(psm_.referee_extra(psm_seed));
    net.server_send(h, w.take());
  }

  // Client: decode each slot and reconstruct the sum.
  std::vector<std::vector<Bytes>> answers(m_, std::vector<Bytes>(k_));
  Bytes extra;
  for (std::size_t h = 0; h < k_; ++h) {
    Reader r(net.client_receive(h));
    for (std::size_t j = 0; j < m_; ++j) answers[j][h] = r.bytes();
    if (h == 0) extra = r.bytes();
    r.expect_done();
  }
  std::vector<Bytes> messages(m_);
  for (std::size_t j = 0; j < m_; ++j) {
    Writer w;
    w.u64(spir.decode(answers[j], states[j]));
    messages[j] = w.take();
  }
  return psm_.reconstruct(messages, extra);
}


PsmBpSpfeSingleServer::PsmBpSpfeSingleServer(he::PaillierPublicKey pk,
                                             circuits::BranchingProgram bp, std::size_t n,
                                             std::size_t pir_depth)
    : pk_(std::move(pk)), n_(n), psm_(std::move(bp)), pir_depth_(pir_depth) {
  if (n == 0) throw InvalidArgument("PsmBpSpfeSingleServer: empty database");
}

bool PsmBpSpfeSingleServer::run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                                const std::vector<std::size_t>& indices,
                                const he::PaillierPrivateKey& sk, crypto::Prg& client_prg,
                                crypto::Prg& server_prg) const {
  const std::size_t m = psm_.num_players();
  check_indices(indices, m, n_);
  if (database.size() != n_) throw InvalidArgument("PsmBpSpfeSingleServer: database size");
  const pir::PaillierPir spir(pk_, n_, pir_depth_);
  const std::size_t alpha = psm_.message_bytes();

  std::vector<pir::PaillierPir::ClientState> states(m);
  {
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      w.bytes(spir.make_query(indices[j], states[j], sk, client_prg));
    }
    net.client_send(0, w.take());
  }

  {
    Reader r(net.server_receive(0));
    crypto::Prg::Seed psm_seed;
    const Bytes raw = server_prg.bytes(psm_seed.size());
    std::copy(raw.begin(), raw.end(), psm_seed.begin());
    Writer w;
    for (const Bytes& answer : answer_players(spir, r, m, alpha, [&](std::size_t j) {
           return psm_.player_messages(j, database, psm_seed);
         }, server_prg)) {
      w.bytes(answer);
    }
    w.bytes(psm_.referee_extra(psm_seed));
    net.server_send(0, w.take());
  }

  Reader r(net.client_receive(0));
  std::vector<BytesView> answers(m);
  for (BytesView& a : answers) a = r.bytes_view();
  const std::vector<Bytes> messages = spir.decode_bytes_many(sk, alpha, answers);
  const Bytes extra = r.bytes();
  r.expect_done();
  return psm_.reconstruct(messages, extra);
}

namespace {

// Number of 7-byte field chunks needed for a message of `bytes` bytes
// (7 bytes < 2^56 fits any Fp64 field used here).
constexpr std::size_t kItChunkBytes = 7;

std::size_t it_chunks(std::size_t bytes) { return (bytes + kItChunkBytes - 1) / kItChunkBytes; }

std::vector<std::uint64_t> chunk_column(const std::vector<Bytes>& items, std::size_t chunk,
                                        std::size_t item_bytes) {
  std::vector<std::uint64_t> col(items.size(), 0);
  const std::size_t begin = chunk * kItChunkBytes;
  const std::size_t end = std::min(begin + kItChunkBytes, item_bytes);
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::uint64_t v = 0;
    for (std::size_t b = begin; b < end; ++b) v = (v << 8) | items[i][b];
    col[i] = v;
  }
  return col;
}

void unchunk_into(Bytes& out, std::size_t chunk, std::uint64_t value, std::size_t item_bytes) {
  const std::size_t begin = chunk * kItChunkBytes;
  const std::size_t end = std::min(begin + kItChunkBytes, item_bytes);
  for (std::size_t b = end; b-- > begin;) {
    out[b] = static_cast<std::uint8_t>(value);
    value >>= 8;
  }
}

}  // namespace

PsmBpSpfeMultiServer::PsmBpSpfeMultiServer(field::Fp64 field, circuits::BranchingProgram bp,
                                           std::size_t n, std::size_t num_servers,
                                           std::size_t threshold)
    : field_(field), n_(n), psm_(std::move(bp)), k_(num_servers), t_(threshold) {
  if (field.modulus() < (std::uint64_t(1) << (8 * kItChunkBytes))) {
    throw InvalidArgument("PsmBpSpfeMultiServer: field too small for 7-byte chunks");
  }
}

bool PsmBpSpfeMultiServer::run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                               const std::vector<std::size_t>& indices, crypto::Prg& client_prg,
                               crypto::Prg& server_prg) const {
  const std::size_t m = psm_.num_players();
  check_indices(indices, m, n_);
  if (database.size() != n_) throw InvalidArgument("PsmBpSpfeMultiServer: database size");
  if (net.num_servers() != k_) throw InvalidArgument("PsmBpSpfeMultiServer: server count");
  const pir::PolyItPir spir(field_, n_, k_, t_);
  const std::size_t alpha = psm_.message_bytes();
  const std::size_t chunks = it_chunks(alpha);

  // Servers' common randomness.
  crypto::Prg::Seed common;
  {
    const Bytes raw = server_prg.bytes(common.size());
    std::copy(raw.begin(), raw.end(), common.begin());
  }
  const crypto::Prg common_prg(common);
  const crypto::Prg::Seed psm_seed = common_prg.fork_seed("bp-psm");

  // Client: one IT-SPIR query per (argument slot, chunk).
  std::vector<std::vector<pir::PolyItPir::ClientState>> states(
      m, std::vector<pir::PolyItPir::ClientState>(chunks));
  std::vector<Writer> per_server(k_);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto queries = spir.make_queries(indices[j], states[j][c], client_prg);
      for (std::size_t h = 0; h < k_; ++h) per_server[h].bytes(queries[h]);
    }
  }
  for (std::size_t h = 0; h < k_; ++h) net.client_send(h, per_server[h].take());

  // Servers: chunked virtual databases, one masked answer per query.
  for (std::size_t h = 0; h < k_; ++h) {
    Reader r(net.server_receive(h));
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      const std::vector<Bytes> virtual_db = psm_.player_messages(j, database, psm_seed);
      for (std::size_t c = 0; c < chunks; ++c) {
        const Bytes query = r.bytes();
        const std::vector<std::uint64_t> col = chunk_column(virtual_db, c, alpha);
        const crypto::Prg::Seed slot_seed = common_prg.fork_seed(
            "bp-spir-" + std::to_string(j) + "-" + std::to_string(c));
        w.bytes(spir.answer(h, col, query, &slot_seed));
      }
    }
    r.expect_done();
    if (h == 0) w.bytes(psm_.referee_extra(psm_seed));
    net.server_send(h, w.take());
  }

  // Client: reassemble messages chunk-wise and reconstruct.
  std::vector<std::vector<std::vector<Bytes>>> answers(
      m, std::vector<std::vector<Bytes>>(chunks, std::vector<Bytes>(k_)));
  Bytes extra;
  for (std::size_t h = 0; h < k_; ++h) {
    Reader r(net.client_receive(h));
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t c = 0; c < chunks; ++c) answers[j][c][h] = r.bytes();
    }
    if (h == 0) extra = r.bytes();
    r.expect_done();
  }
  std::vector<Bytes> messages(m, Bytes(alpha, 0));
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t c = 0; c < chunks; ++c) {
      unchunk_into(messages[j], c, spir.decode(answers[j][c], states[j][c]), alpha);
    }
  }
  return psm_.reconstruct(messages, extra);
}

}  // namespace spfe::protocols
