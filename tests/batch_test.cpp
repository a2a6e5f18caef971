// Batched evaluation across instances: the secret-exponent lane
// exponentiation behind PaillierPrivateKey::decrypt_all, multi-problem
// multi-exponentiation, the fold-wave planner, and PaillierPir's batched
// answers and decodes. Every batched path must equal its one-at-a-time
// reference exactly, at any thread count.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bignum/multiexp.h"
#include "common/error.h"
#include "common/parallel.h"
#include "crypto/prg.h"
#include "he/paillier.h"
#include "kernel_arms.h"
#include "obs/obs.h"
#include "pir/cpir.h"

namespace spfe {
namespace {

using bignum::BigInt;
using bignum::MontgomeryContext;
using common::ThreadPool;

const he::PaillierPrivateKey& cached_key(std::size_t bits) {
  static std::map<std::size_t, he::PaillierPrivateKey> keys;
  auto it = keys.find(bits);
  if (it == keys.end()) {
    crypto::Prg prg("batch-test-key/" + std::to_string(bits));
    it = keys.emplace(bits, he::paillier_keygen(prg, bits)).first;
  }
  return it->second;
}

BigInt random_odd(crypto::Prg& prg, std::size_t bits) {
  BigInt v = (BigInt(1) << (bits - 1)) + BigInt::random_below(prg, BigInt(1) << (bits - 1));
  return v.is_odd() ? v : v + BigInt(1);
}

obs::OpCounts metered(const std::function<void()>& body) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.reset();
  body();
  const obs::OpCounts ops = tracer.totals();
  tracer.set_enabled(false);
  tracer.reset();
  return ops;
}

std::uint64_t op(const obs::OpCounts& ops, obs::Op o) { return ops[static_cast<std::size_t>(o)]; }

// Run on both kernel arms (kernel_arms.h): the "Threads" instantiations on
// the lane arm, the "PortableArm" ones on the portable arm.
class ThreadsTest : public arms::ArmTest<std::size_t> {
 protected:
  void SetUp() override {
    ArmTest::SetUp();
    ThreadPool::set_global_threads(GetParam());
  }
  void TearDown() override { ThreadPool::set_global_threads(0); }
};

// ---- pow_batch_secret ---------------------------------------------------------

// Against per-element pow on the CRT decryption shapes (modulus p^2 with
// exponent p - 1) and on exponents at window and limb boundaries, with
// bases 0, 1, m - 1 and >= m, in partial and full lane groups.
using PowBatchSecret = ThreadsTest;

TEST_P(PowBatchSecret, MatchesPowElementByElement) {
  ::testing::Test::RecordProperty("pow_batch_kernel", MontgomeryContext::pow_batch_kernel());
  crypto::Prg prg("pow-batch-secret");
  for (const std::size_t p_bits : {128, 256, 384, 512, 1024}) {
    const BigInt p = random_odd(prg, p_bits);
    const BigInt m = p * p;
    const MontgomeryContext ctx(m);
    std::vector<BigInt> pool = {BigInt(0), BigInt(1), m - BigInt(1), m, m + BigInt(5)};
    while (pool.size() < 20) pool.push_back(BigInt::random_below(prg, m));
    const std::vector<BigInt> exps = {BigInt(1),
                                      BigInt(2),
                                      BigInt(15),
                                      BigInt(16),
                                      (BigInt(1) << 64) - BigInt(1),
                                      BigInt(1) << 64,
                                      BigInt::random_below(prg, BigInt(1) << 200),
                                      p - BigInt(1)};
    for (const BigInt& e : exps) {
      for (const std::size_t size : {0, 1, 7, 8, 9, 17}) {
        std::vector<BigInt> bases;
        for (std::size_t i = 0; i < size; ++i) bases.push_back(pool[(i + size) % pool.size()]);
        const std::vector<BigInt> got = ctx.pow_batch_secret(bases, e);
        ASSERT_EQ(got.size(), size);
        for (std::size_t i = 0; i < size; ++i) {
          ASSERT_EQ(got[i], ctx.pow(bases[i], e))
              << "modulus bits " << m.bit_length() << ", exponent bits " << e.bit_length()
              << ", batch " << size << ", lane " << i;
        }
      }
    }
  }
}

TEST_P(PowBatchSecret, EdgeExponentsAndOpCount) {
  const MontgomeryContext ctx(BigInt::from_string("1000000007") * BigInt(1000000009));
  const std::vector<BigInt> bases = {BigInt(0), BigInt(2), BigInt(12345), BigInt(7), BigInt(9),
                                     BigInt(10), BigInt(11), BigInt(12), BigInt(13)};
  EXPECT_EQ(ctx.pow_batch_secret(bases, BigInt(0)),
            std::vector<BigInt>(bases.size(), BigInt(1)));
  EXPECT_THROW(ctx.pow_batch_secret(bases, BigInt(-1)), InvalidArgument);
  const obs::OpCounts ops = metered([&] { (void)ctx.pow_batch_secret(bases, BigInt(65537)); });
  EXPECT_EQ(op(ops, obs::Op::kModExp), bases.size());
}

INSTANTIATE_TEST_SUITE_P(Threads, PowBatchSecret, ::testing::Values(1, 2, 8));
INSTANTIATE_TEST_SUITE_P(PortableArm, PowBatchSecret, ::testing::Values(1, 2, 8));

// ---- decrypt_all ---------------------------------------------------------------

class DecryptAllLanes : public arms::ArmTest<std::size_t> {};

// The lane decrypt_all against per-element scalar decrypt, on c = 1,
// c = N^2 - 1 and fresh encryptions, in batches of 1, 7, 8 and 9.
TEST_P(DecryptAllLanes, MatchesScalarDecrypt) {
  const he::PaillierPrivateKey& sk = cached_key(GetParam());
  const he::PaillierPublicKey& pk = sk.public_key();
  crypto::Prg prg("decrypt-all-lanes/" + std::to_string(GetParam()));
  std::vector<BigInt> pool = {BigInt(1), pk.n_squared() - BigInt(1)};
  while (pool.size() < 9) {
    pool.push_back(pk.encrypt(BigInt::random_below(prg, pk.n()), prg));
  }
  for (const std::size_t size : {1, 7, 8, 9}) {
    const std::vector<BigInt> cts(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(size));
    obs::OpCounts batch_ops, scalar_ops;
    std::vector<BigInt> got, want;
    batch_ops = metered([&] { got = sk.decrypt_all(cts); });
    scalar_ops = metered([&] {
      for (const BigInt& c : cts) want.push_back(sk.decrypt(c));
    });
    EXPECT_EQ(got, want) << "batch " << size;
    EXPECT_EQ(batch_ops, scalar_ops) << "batch " << size;
  }
}

// An invalid element throws what scalar decrypt throws for it:
// CryptoError when p divides c, the range error (InvalidArgument) when
// c >= N^2. Checked in every position of a batch of 9.
TEST_P(DecryptAllLanes, InvalidInputThrowsLikeScalar) {
  const he::PaillierPrivateKey& sk = cached_key(GetParam());
  const he::PaillierPublicKey& pk = sk.public_key();
  crypto::Prg prg("decrypt-all-invalid/" + std::to_string(GetParam()));
  // N * 7 < N^2 is a multiple of both prime factors.
  const BigInt factor_multiple = pk.n() * BigInt(7);
  EXPECT_THROW(sk.decrypt(factor_multiple), CryptoError);
  EXPECT_THROW(sk.decrypt(pk.n_squared()), InvalidArgument);
  std::vector<BigInt> good;
  for (int i = 0; i < 9; ++i) good.push_back(pk.encrypt(BigInt(i), prg));
  for (std::size_t at = 0; at < good.size(); ++at) {
    std::vector<BigInt> cts = good;
    cts[at] = factor_multiple;
    EXPECT_THROW(sk.decrypt_all(cts), CryptoError) << at;
    cts[at] = pk.n_squared();
    EXPECT_THROW(sk.decrypt_all(cts), InvalidArgument) << at;
    cts[at] = BigInt(-1);
    EXPECT_THROW(sk.decrypt_all(cts), InvalidArgument) << at;
  }
}

INSTANTIATE_TEST_SUITE_P(KeyBits, DecryptAllLanes, ::testing::Values(512, 768, 1024, 2048));
INSTANTIATE_TEST_SUITE_P(PortableArm, DecryptAllLanes,
                         ::testing::Values(512, 768, 1024, 2048));

// ---- multi_pow_matrices ----------------------------------------------------------

// Problems of different shapes in one call (varying used rows, exponent
// widths, a problem with no columns, one with all-zero exponents, one
// Pippenger-planned) equal per-problem multi_pow_matrix calls, op counts
// included.
using MultiPowMatrices = ThreadsTest;

TEST_P(MultiPowMatrices, MatchesPerProblemCalls) {
  crypto::Prg prg("multi-pow-matrices");
  const BigInt n = random_odd(prg, 512);
  const MontgomeryContext ctx(n * n);
  struct Shape {
    std::size_t count, columns, bits;
    bool zero_rows;
  };
  const std::vector<Shape> shapes = {{24, 3, 752, false}, {24, 3, 700, true}, {24, 24, 40, false},
                                     {5, 0, 10, false},   {7, 4, 0, false},   {31, 3, 496, true},
                                     {200, 2, 16, false}, {1, 1, 1, false},   {9, 17, 300, true}};
  std::vector<std::vector<BigInt>> bases(shapes.size());
  std::vector<std::vector<std::vector<BigInt>>> exps(shapes.size());
  std::vector<bignum::MultiPowProblem> problems;
  for (std::size_t p = 0; p < shapes.size(); ++p) {
    const Shape& s = shapes[p];
    for (std::size_t i = 0; i < s.count; ++i) {
      bases[p].push_back(i == 0 ? ctx.modulus() - BigInt(1) : BigInt::random_below(prg, ctx.modulus()));
    }
    exps[p].assign(s.count, std::vector<BigInt>(s.columns));
    for (std::size_t i = 0; i < s.count; ++i) {
      if (s.zero_rows && i % 3 == 1) continue;
      for (BigInt& e : exps[p][i]) {
        e = s.bits == 0 ? BigInt(0) : BigInt::random_below(prg, BigInt(1) << s.bits);
      }
    }
    problems.push_back({bases[p], &exps[p]});
  }
  std::vector<std::vector<BigInt>> got, want;
  const obs::OpCounts batch_ops =
      metered([&] { got = bignum::multi_pow_matrices(ctx, problems); });
  const obs::OpCounts single_ops = metered([&] {
    for (std::size_t p = 0; p < shapes.size(); ++p) {
      want.push_back(bignum::multi_pow_matrix(ctx, bases[p], exps[p]));
    }
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(batch_ops, single_ops);
}

INSTANTIATE_TEST_SUITE_P(Threads, MultiPowMatrices, ::testing::Values(1, 2, 8));
INSTANTIATE_TEST_SUITE_P(PortableArm, MultiPowMatrices, ::testing::Values(1, 2, 8));

// ---- wave planner ----------------------------------------------------------------

// The tables of a multi-problem lane pass stay within kLaneTableBudget, and
// so do those of every fold wave the cPIR planner picks, on the survey's
// 768-bit bucket and on Table 1-like 512-bit shapes.
TEST(LaneWavePlan, TablesWithinBudget) {
  using bignum::detail::kLaneTableBudget;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    for (const std::size_t problems : {2, 4, 8, 32}) {
      const auto plan = bignum::detail::plan_lane_straus(24, 3, 752, threads, problems, 1536);
      if (plan.window > 1) {
        EXPECT_LE(plan.table_bytes, kLaneTableBudget) << threads << " " << problems;
      }
      EXPECT_EQ(plan.table_bytes,
                ((problems * 24) << plan.window) * ((1536 + 51) / 52) * sizeof(std::uint64_t));
    }
    // One problem keeps its uncapped plan.
    const auto single = bignum::detail::plan_lane_straus(24, 3, 752, threads);
    const auto single_again = bignum::detail::plan_lane_straus(24, 3, 752, threads, 1, 1536);
    EXPECT_EQ(single.window, single_again.window);
    EXPECT_EQ(single.partitions, single_again.partitions);

    ThreadPool::set_global_threads(threads);
    crypto::Prg prg("wave-plan");
    for (const std::size_t bits : {512, 768}) {
      const he::PaillierPublicKey pk(random_odd(prg, bits));
      for (const std::size_t n : {40, 557, 4096}) {
        for (const std::size_t depth : {1, 2, 3}) {
          const pir::PaillierPir pir(pk, n, depth);
          for (const std::size_t instances : {1, 2, 32}) {
            const auto wave = pir.plan_wave(instances, 1, 64);
            EXPECT_GE(wave.instances, 1u);
            EXPECT_LE(wave.instances, instances);
            if (wave.instances > 1) {
              EXPECT_LE(wave.table_bytes, kLaneTableBudget)
                  << bits << " bits, n " << n << ", depth " << depth << ", threads " << threads;
            }
          }
          EXPECT_EQ(pir.plan_wave(1, 1, 64).instances, 1u);
        }
      }
    }
    ThreadPool::set_global_threads(0);
  }
  // The survey's bucket (capacity 557 at n = 4096, m = 16) at 2 threads
  // batches several instances per wave.
  ThreadPool::set_global_threads(2);
  crypto::Prg prg("wave-plan-survey");
  const pir::PaillierPir bucket(he::PaillierPublicKey(random_odd(prg, 768)), 557, 2);
  EXPECT_GT(bucket.plan_wave(32, 1, 64).instances, 1u);
  ThreadPool::set_global_threads(0);
}

// ---- batched cPIR answers and decodes ---------------------------------------------

// answer_*_many equals sequential single answers, byte for byte, and leaves
// the server PRG in the same state; decode_*_many equals single decodes.
using BatchedPirAnswers = ThreadsTest;

TEST_P(BatchedPirAnswers, EqualSequentialAnswers) {
  constexpr std::size_t kN = 14, kItem = 70;  // byte items span two chunks
  struct Case {
    std::size_t bits, depth, count;
    bool bytes;
  };
  // Every depth at both key sizes, u64 and byte items, 1, 2, 7 and 33
  // instances (33 leaves a ragged last wave whenever waves hold 2, 4, 5, 6
  // or 7 instances).
  std::vector<Case> cases;
  for (const std::size_t depth : {1, 2, 3}) {
    for (const std::size_t count : {1, 2, 7, 33}) cases.push_back({512, depth, count, false});
    cases.push_back({512, depth, 7, true});
    cases.push_back({768, depth, depth == 2 ? 33u : 2u, false});
    cases.push_back({768, depth, depth == 2 ? 7u : 1u, true});
  }
  cases.push_back({512, 2, 33, true});
  bool ragged = false;
  for (const Case& test : cases) {
    const he::PaillierPrivateKey& sk = cached_key(test.bits);
    const pir::PaillierPir pir(sk.public_key(), kN, test.depth);
    const std::size_t count = test.count;
    const std::string where = std::to_string(test.bits) + " bits, depth " +
                              std::to_string(test.depth) + ", " + std::to_string(count) +
                              (test.bytes ? " byte" : " u64") + " instances";
    const std::size_t wave = pir.plan_wave(count, test.bytes ? 2 : 1, 64).instances;
    ragged = ragged || (wave > 1 && count % wave != 0);
    // Instance i: its own database and query.
    crypto::Prg data("batched-data/" + where), client("batched-client/" + where);
    std::vector<std::vector<std::uint64_t>> dbs(count, std::vector<std::uint64_t>(kN));
    std::vector<std::vector<Bytes>> byte_dbs(count, std::vector<Bytes>(kN));
    std::vector<Bytes> queries(count);
    std::vector<std::size_t> want(count);
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t k = 0; k < kN; ++k) {
        dbs[i][k] = data.u64() >> (i % 3 == 0 ? 0 : 24);
        byte_dbs[i][k] = data.bytes(kItem);
      }
      dbs[i][i % kN] = 0;  // a zero item: exponent 0
      want[i] = data.uniform(kN);
      pir::PaillierPir::ClientState state;
      queries[i] = pir.make_query(want[i], state, sk, client);
    }
    const std::vector<BytesView> views(queries.begin(), queries.end());

    crypto::Prg batch_prg("batched-server/" + where), seq_prg("batched-server/" + where);
    std::vector<Bytes> batched, sequential;
    if (test.bytes) {
      batched = pir.answer_bytes_many(
          views, kItem, [&](std::size_t i) { return std::span<const Bytes>(byte_dbs[i]); },
          batch_prg);
      for (std::size_t i = 0; i < count; ++i) {
        sequential.push_back(pir.answer_bytes(byte_dbs[i], kItem, queries[i], seq_prg));
      }
    } else {
      batched = pir.answer_u64_many(
          views, [&](std::size_t i) { return std::span<const std::uint64_t>(dbs[i]); },
          batch_prg);
      for (std::size_t i = 0; i < count; ++i) {
        sequential.push_back(pir.answer_u64(dbs[i], queries[i], seq_prg));
      }
    }
    EXPECT_EQ(batched, sequential) << where;
    EXPECT_EQ(batch_prg.u64(), seq_prg.u64()) << where;

    const std::vector<BytesView> answers(batched.begin(), batched.end());
    if (test.bytes) {
      const std::vector<Bytes> decoded = pir.decode_bytes_many(sk, kItem, answers);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(decoded[i], byte_dbs[i][want[i]]) << where << " #" << i;
      }
    } else {
      const std::vector<std::uint64_t> decoded = pir.decode_u64_many(sk, answers);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(decoded[i], dbs[i][want[i]]) << where << " #" << i;
        EXPECT_EQ(decoded[i], pir.decode_u64(sk, batched[i])) << where << " #" << i;
      }
    }
  }
  if (GetParam() > 1) {
    EXPECT_TRUE(ragged) << "no case cut 33 instances into a ragged last wave";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchedPirAnswers, ::testing::Values(1, 2, 8));
INSTANTIATE_TEST_SUITE_P(PortableArm, BatchedPirAnswers, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace spfe
