#include <gtest/gtest.h>

#include <bit>

#include "common/error.h"
#include "common/serialize.h"
#include "dbgen/census.h"
#include "pir/batch_pir.h"
#include "spfe/stats.h"

namespace spfe::protocols {
namespace {

using field::Fp64;

class StatsTest : public ::testing::Test {
 protected:
  StatsTest()
      : client_prg_("stats-client"),
        server_prg_("stats-server"),
        client_sk_(he::paillier_keygen(client_prg_, 512)),
        server_sk_(he::paillier_keygen(server_prg_, 512)) {}

  static std::vector<std::uint64_t> make_db(std::size_t n, std::uint64_t cap) {
    std::vector<std::uint64_t> db(n);
    for (std::size_t i = 0; i < n; ++i) db[i] = (i * 97 + 13) % cap;
    return db;
  }

  crypto::Prg client_prg_, server_prg_;
  he::PaillierPrivateKey client_sk_;
  he::PaillierPrivateKey server_sk_;
};

TEST_F(StatsTest, WeightedSumMatchesPlainComputation) {
  constexpr std::size_t kN = 64, kM = 4;
  const Fp64 field(field::smallest_prime_above(1u << 24));
  const auto db = make_db(kN, 10000);
  const WeightedSumProtocol proto(field, kN, kM, 1);
  const std::vector<std::size_t> indices = {3, 9, 33, 63};
  const std::vector<std::uint64_t> weights = {1, 2, 3, 4};
  net::StarNetwork net(1);
  const std::uint64_t got =
      proto.run(net, 0, db, indices, weights, client_sk_, client_prg_, server_prg_);
  std::uint64_t expect = 0;
  for (std::size_t j = 0; j < kM; ++j) expect += weights[j] * db[indices[j]];
  EXPECT_EQ(got, expect);
}

TEST_F(StatsTest, WeightedSumIsOneRound) {
  constexpr std::size_t kN = 32, kM = 2;
  const Fp64 field(field::smallest_prime_above(1u << 20));
  const auto db = make_db(kN, 1000);
  const WeightedSumProtocol proto(field, kN, kM, 1);
  net::StarNetwork net(1);
  proto.run(net, 0, db, {1, 2}, {1, 1}, client_sk_, client_prg_, server_prg_);
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
  EXPECT_TRUE(net.idle());
}

// Overwrites the last ciphertext of every client message with all-0xff
// bytes: a value >= N^2 that no encryption produces.
class OutOfRangeCiphertextNet : public net::StarNetwork {
 public:
  OutOfRangeCiphertextNet(std::size_t ct_bytes) : net::StarNetwork(1), ct_bytes_(ct_bytes) {}
  void client_send(std::size_t s, Bytes message) override {
    std::fill(message.end() - static_cast<std::ptrdiff_t>(ct_bytes_), message.end(), 0xff);
    net::StarNetwork::client_send(s, std::move(message));
  }

 private:
  std::size_t ct_bytes_;
};

TEST_F(StatsTest, ServerRejectsOutOfRangeCiphertext) {
  constexpr std::size_t kN = 32, kM = 2;
  const Fp64 field(field::smallest_prime_above(1u << 20));
  const auto db = make_db(kN, 1000);
  const std::size_t ct_bytes = client_sk_.public_key().ciphertext_bytes();
  {
    const WeightedSumProtocol proto(field, kN, kM, 1);
    OutOfRangeCiphertextNet net(ct_bytes);
    EXPECT_THROW(proto.run(net, 0, db, {1, 2}, {1, 1}, client_sk_, client_prg_, server_prg_),
                 ProtocolError);
  }
  {
    const MeanVariancePackage proto(field, kN, kM, 1);
    OutOfRangeCiphertextNet net(ct_bytes);
    EXPECT_THROW(proto.run(net, 0, db, {1, 2}, client_sk_, client_prg_, server_prg_),
                 ProtocolError);
  }
}

TEST_F(StatsTest, PlainSumViaUnitWeights) {
  constexpr std::size_t kN = 50, kM = 5;
  const Fp64 field(field::smallest_prime_above(1u << 22));
  const auto db = make_db(kN, 5000);
  const WeightedSumProtocol proto(field, kN, kM, 1);
  const std::vector<std::size_t> indices = {0, 10, 20, 30, 49};
  net::StarNetwork net(1);
  const std::uint64_t got = proto.run(net, 0, db, indices,
                                      std::vector<std::uint64_t>(kM, 1), client_sk_,
                                      client_prg_, server_prg_);
  std::uint64_t expect = 0;
  for (const std::size_t i : indices) expect += db[i];
  EXPECT_EQ(got, expect);
}

TEST_F(StatsTest, MeanVariancePackage) {
  constexpr std::size_t kN = 40, kM = 4;
  const Fp64 field(field::smallest_prime_above(1ull << 30));
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = 100 + i;
  const MeanVariancePackage proto(field, kN, kM, 1);
  const std::vector<std::size_t> indices = {0, 10, 20, 30};  // values 100,110,120,130
  net::StarNetwork net(1);
  const MeanVarianceResult res =
      proto.run(net, 0, db, indices, client_sk_, client_prg_, server_prg_);
  EXPECT_EQ(res.sum, 100u + 110 + 120 + 130);
  EXPECT_EQ(res.sum_of_squares, 100u * 100 + 110 * 110 + 120 * 120 + 130 * 130);
  EXPECT_DOUBLE_EQ(res.mean, 115.0);
  EXPECT_DOUBLE_EQ(res.variance, 125.0);  // population variance of {100,110,120,130}
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);  // still one round (§4 package)
}

// Keeps the client's last message.
class CapturingNet : public net::StarNetwork {
 public:
  CapturingNet() : net::StarNetwork(1) {}
  void client_send(std::size_t s, Bytes message) override {
    up = message;
    net::StarNetwork::client_send(s, std::move(message));
  }
  Bytes up;
};

// The package's item width: masked x and masked x^2, ceil(bits(p)/8) bytes
// each.
std::size_t packed_item_bytes(std::uint64_t p) {
  return 2 * ((static_cast<std::size_t>(std::bit_width(p)) + 7) / 8);
}

TEST_F(StatsTest, MeanVarianceSendsOnePackedReply) {
  constexpr std::size_t kN = 64, kM = 4, kDepth = 2;
  const Fp64 field(field::smallest_prime_above(1ull << 30));
  const auto db = make_db(kN, 10000);
  const std::vector<std::size_t> indices = {3, 9, 33, 63};
  const he::PaillierPublicKey& pk = client_sk_.public_key();
  CapturingNet net;
  (void)MeanVariancePackage(field, kN, kM, kDepth)
      .run(net, 0, db, indices, client_sk_, client_prg_, server_prg_);

  // Downlink: one batch-SPIR answer to the client's query over packed items,
  // then two mask-sum ciphertexts.
  Reader up(net.up);
  const Bytes query = up.bytes();
  const std::size_t item_bytes = packed_item_bytes(field.modulus());
  Writer expect_down;
  expect_down.bytes(pir::CuckooBatchPir(pk, kN, kM, kDepth)
                        .answer_bytes(std::vector<Bytes>(kN, Bytes(item_bytes)), item_bytes,
                                      query, server_prg_));
  EXPECT_EQ(net.stats().server_to_client_messages, 1u);
  EXPECT_EQ(net.stats().server_to_client_bytes,
            expect_down.data().size() + 2 * pk.ciphertext_bytes());

  // Uplink: unchanged, the query plus m ciphertexts, byte for byte the size
  // of the weighted-sum protocol's one message.
  EXPECT_EQ(net.stats().client_to_server_bytes, net.up.size());
  EXPECT_EQ(up.remaining(), kM * pk.ciphertext_bytes());
  net::StarNetwork ws_net(1);
  (void)WeightedSumProtocol(field, kN, kM, kDepth)
      .run(ws_net, 0, db, indices, std::vector<std::uint64_t>(kM, 1), client_sk_, client_prg_,
           server_prg_);
  EXPECT_EQ(net.stats().client_to_server_bytes, ws_net.stats().client_to_server_bytes);
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
}

TEST_F(StatsTest, MeanVarianceWidestHalves) {
  // A prime near 2^62 fills both 8-byte halves of a packed item; the values
  // sit near p so the masked halves and x^2 mod p use every byte.
  constexpr std::size_t kN = 48, kM = 4;
  const Fp64 field(field::smallest_prime_above((1ull << 62) - (1ull << 20)));
  const std::uint64_t p = field.modulus();
  ASSERT_EQ(packed_item_bytes(p), 16u);
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = p - 1 - i * 1'000'003;
  const std::vector<std::size_t> indices = {0, 7, 30, 47};
  net::StarNetwork net(1);
  const MeanVarianceResult res = MeanVariancePackage(field, kN, kM, 2)
                                     .run(net, 0, db, indices, client_sk_, client_prg_,
                                          server_prg_);
  unsigned __int128 sum = 0, sum_sq = 0;
  for (const std::size_t i : indices) {
    sum += db[i];
    sum_sq += static_cast<unsigned __int128>(db[i]) * db[i] % p;
  }
  EXPECT_EQ(res.sum, static_cast<std::uint64_t>(sum % p));
  EXPECT_EQ(res.sum_of_squares, static_cast<std::uint64_t>(sum_sq % p));
}

// A hostile server: answers the client's real query with one packed reply
// whose items are all 0xff bytes, so each half is >= p, plus two honest-
// looking mask-sum ciphertexts.
class ForgedPackedReplyNet : public net::StarNetwork {
 public:
  ForgedPackedReplyNet(const he::PaillierPublicKey& pk, std::size_t n, std::size_t m,
                       std::size_t item_bytes)
      : net::StarNetwork(1), pk_(pk), spir_(pk, n, m, 1), db_(n, Bytes(item_bytes, 0xff)) {}

  void client_send(std::size_t s, Bytes message) override {
    query_ = Reader(message).bytes();
    net::StarNetwork::client_send(s, std::move(message));
  }
  void server_send(std::size_t s, Bytes) override {
    crypto::Prg prg("forged-packed-reply");
    Writer w;
    w.bytes(spir_.answer_bytes(db_, db_[0].size(), query_, prg));
    for (int k = 0; k < 2; ++k) {
      w.raw(pk_.encrypt(bignum::BigInt(0), prg).to_bytes_be_padded(pk_.ciphertext_bytes()));
    }
    net::StarNetwork::server_send(s, w.take());
  }

 private:
  he::PaillierPublicKey pk_;
  pir::CuckooBatchPir spir_;
  std::vector<Bytes> db_;
  Bytes query_;
};

TEST_F(StatsTest, MeanVarianceRejectsPackedHalvesOutsideField) {
  constexpr std::size_t kN = 32, kM = 2;
  const Fp64 field(field::smallest_prime_above(1u << 20));
  const auto db = make_db(kN, 1000);
  ForgedPackedReplyNet net(client_sk_.public_key(), kN, kM, packed_item_bytes(field.modulus()));
  EXPECT_THROW(MeanVariancePackage(field, kN, kM, 1)
                   .run(net, 0, db, {1, 2}, client_sk_, client_prg_, server_prg_),
               ProtocolError);
}

TEST_F(StatsTest, FrequencyCountsKeyword) {
  constexpr std::size_t kN = 30, kM = 6;
  const Fp64 field(field::smallest_prime_above(1u << 16));
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i % 5;
  const FrequencyProtocol proto(field, kN, kM, SelectionMethod::kPolyMaskClientKey, 1);
  // indices with values {2, 2, 0, 3, 2, 4}: keyword 2 appears 3 times.
  const std::vector<std::size_t> indices = {2, 7, 10, 13, 22, 29};
  net::StarNetwork net(1);
  EXPECT_EQ(proto.run(net, 0, db, indices, 2, client_sk_, server_sk_, client_prg_, server_prg_),
            3u);
  EXPECT_EQ(net.stats().half_rounds, 4u);  // selection round + one extra round
}

TEST_F(StatsTest, FrequencyZeroAndAllMatches) {
  constexpr std::size_t kN = 16, kM = 3;
  const Fp64 field(field::smallest_prime_above(1u << 16));
  std::vector<std::uint64_t> db(kN, 42);
  const FrequencyProtocol proto(field, kN, kM, SelectionMethod::kEncryptedDb, 1);
  net::StarNetwork net(1);
  EXPECT_EQ(proto.run(net, 0, db, {0, 5, 15}, 42, client_sk_, server_sk_, client_prg_,
                      server_prg_),
            3u);
  net::StarNetwork net2(1);
  EXPECT_EQ(proto.run(net2, 0, db, {0, 5, 15}, 7, client_sk_, server_sk_, client_prg_,
                      server_prg_),
            0u);
}

TEST_F(StatsTest, CensusWorkloadEndToEnd) {
  // The motivating scenario: average salary of a public-attribute cohort.
  crypto::Prg data_prg("census");
  dbgen::CensusOptions options;
  options.num_records = 128;
  options.num_zip_codes = 4;
  const dbgen::CensusDatabase census = dbgen::generate_census(options, data_prg);
  const auto salaries = census.private_column();

  constexpr std::size_t kM = 8;
  const auto indices = census.select_sample(
      [](const dbgen::CensusRecord& r) { return r.zip_code == 2; }, kM);

  const Fp64 field(field::smallest_prime_above(kM * 200'000ull * 200'000ull));
  const MeanVariancePackage proto(field, salaries.size(), kM, 1);
  net::StarNetwork net(1);
  const auto res = proto.run(net, 0, salaries, indices, client_sk_, client_prg_, server_prg_);

  std::uint64_t expect_sum = 0;
  for (const std::size_t i : indices) expect_sum += salaries[i];
  EXPECT_EQ(res.sum, expect_sum);
  EXPECT_GT(res.mean, 0.0);
  EXPECT_GE(res.variance, 0.0);
}

TEST_F(StatsTest, Validation) {
  const Fp64 field(1009);
  EXPECT_THROW(WeightedSumProtocol(field, 2000, 4, 1), InvalidArgument);  // field <= n
  const Fp64 ok(field::smallest_prime_above(1u << 16));
  const WeightedSumProtocol proto(ok, 16, 2, 1);
  const auto db = std::vector<std::uint64_t>(16, 1);
  net::StarNetwork net(1);
  EXPECT_THROW(proto.run(net, 0, db, {1}, {1, 1}, client_sk_, client_prg_, server_prg_),
               InvalidArgument);
  EXPECT_THROW(
      proto.run(net, 0, db, {1, 2}, {1}, client_sk_, client_prg_, server_prg_),
      InvalidArgument);
}

TEST(CensusGen, GeneratesValidRecords) {
  crypto::Prg prg("gen-test");
  dbgen::CensusOptions options;
  options.num_records = 200;
  options.num_zip_codes = 10;
  const auto db = dbgen::generate_census(options, prg);
  ASSERT_EQ(db.size(), 200u);
  for (const auto& r : db.records) {
    EXPECT_LT(r.zip_code, 10u);
    EXPECT_LT(r.age_bracket, 8);
    EXPECT_LE(r.salary, options.max_salary);
  }
  // The select helpers agree.
  const auto all = db.select([](const auto& r) { return r.zip_code == 3; });
  EXPECT_FALSE(all.empty());
  const auto sample = db.select_sample([](const auto& r) { return r.zip_code == 3; }, 2);
  EXPECT_EQ(sample.size(), 2u);
  EXPECT_EQ(sample[0], all[0]);
  EXPECT_THROW(db.select_sample([](const auto&) { return false; }, 1), InvalidArgument);
}

}  // namespace
}  // namespace spfe::protocols
