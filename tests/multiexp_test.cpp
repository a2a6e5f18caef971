#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "bignum/multiexp.h"
#include "common/error.h"
#include "common/parallel.h"
#include "crypto/prg.h"
#include "kernel_arms.h"

namespace spfe::bignum {
namespace {

// Odd modulus (Montgomery requires it) of roughly `bits` bits.
BigInt random_odd_modulus(crypto::Prg& prg, std::size_t bits) {
  BigInt m = BigInt::random_bits(prg, bits);
  if (!m.is_odd()) m = m + BigInt(1);
  if (m <= BigInt(3)) m = BigInt(5);
  return m;
}

// Reference: plain product of independent mod_pow calls.
BigInt naive_multi_pow(std::span<const BigInt> bases, std::span<const BigInt> exps,
                       const BigInt& m) {
  BigInt acc = BigInt(1).mod_floor(m);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    acc = mod_mul(acc, mod_pow(bases[i], exps[i], m), m);
  }
  return acc;
}

// ---- BigInt::sqr ------------------------------------------------------------

TEST(BigIntSqr, MatchesMulAcrossSizes) {
  crypto::Prg prg("sqr-sizes");
  // Sweep across the schoolbook/Karatsuba threshold (32 limbs = 2048 bits).
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 640u, 2047u, 2048u, 2049u, 4096u, 6400u}) {
    const BigInt a = BigInt::random_bits(prg, bits);
    const BigInt b = a;  // distinct object so operator* takes the general path
    EXPECT_EQ(a.sqr(), a * b) << "bits=" << bits;
  }
}

TEST(BigIntSqr, NegativeAndZero) {
  crypto::Prg prg("sqr-neg");
  const BigInt a = BigInt::random_bits(prg, 700);
  EXPECT_EQ((-a).sqr(), a.sqr());
  EXPECT_FALSE((-a).sqr().is_negative());
  EXPECT_EQ(BigInt().sqr(), BigInt());
  EXPECT_EQ(BigInt(-3).sqr(), BigInt(9));
}

TEST(BigIntSqr, SelfMultiplicationUsesSquarePath) {
  crypto::Prg prg("sqr-self");
  const BigInt a = BigInt::random_bits(prg, 3000);
  EXPECT_EQ(a * a, a.sqr());
}

// ---- MontgomeryContext::mont_sqr -------------------------------------------

TEST(MontSqr, MatchesMontMul) {
  crypto::Prg prg("mont-sqr");
  for (const std::size_t bits : {64u, 128u, 512u, 1024u, 2050u}) {
    const BigInt m = random_odd_modulus(prg, bits);
    const MontgomeryContext ctx(m);
    for (int it = 0; it < 8; ++it) {
      const BigInt a = BigInt::random_below(prg, m);
      const auto am = ctx.to_mont(a);
      EXPECT_EQ(ctx.mont_sqr(am), ctx.mont_mul(am, am)) << "bits=" << bits;
      EXPECT_EQ(ctx.from_mont(ctx.mont_sqr(am)), mod_mul(a, a, m)) << "bits=" << bits;
    }
  }
}

TEST(MontSqr, EdgeValues) {
  const BigInt m = BigInt::from_string("1000000000000000000000000000057");
  const MontgomeryContext ctx(m);
  for (const BigInt& a : {BigInt(0), BigInt(1), m - BigInt(1)}) {
    EXPECT_EQ(ctx.from_mont(ctx.mont_sqr(ctx.to_mont(a))), mod_mul(a, a, m));
  }
}

// ---- multi_pow --------------------------------------------------------------

TEST(MultiPow, MatchesNaiveProductRandomized) {
  crypto::Prg prg("multipow");
  for (int it = 0; it < 12; ++it) {
    const std::size_t bits = 64 + (it % 4) * 160;
    const BigInt m = random_odd_modulus(prg, bits);
    const std::size_t count = 1 + static_cast<std::size_t>(it) % 9;
    std::vector<BigInt> bases(count), exps(count);
    for (std::size_t i = 0; i < count; ++i) {
      bases[i] = BigInt::random_below(prg, m);
      exps[i] = BigInt::random_bits(prg, 1 + (i * 97) % bits);
    }
    EXPECT_EQ(multi_pow(MontgomeryContext(m), bases, exps), naive_multi_pow(bases, exps, m))
        << "it=" << it;
  }
}

TEST(MultiPow, ExponentEdgeCases) {
  crypto::Prg prg("multipow-edge");
  const BigInt m = random_odd_modulus(prg, 512);
  const MontgomeryContext ctx(m);
  std::vector<BigInt> bases(4);
  for (auto& b : bases) b = BigInt::random_below(prg, m);
  // Mix of 0, 1, and modulus-sized exponents (engine must not reduce them).
  const std::vector<BigInt> exps = {BigInt(0), BigInt(1), m + BigInt(7),
                                    BigInt::random_bits(prg, 512)};
  EXPECT_EQ(multi_pow(ctx, bases, exps), naive_multi_pow(bases, exps, m));
  // All-zero exponents: identity.
  const std::vector<BigInt> zeros(4, BigInt(0));
  EXPECT_EQ(multi_pow(ctx, bases, zeros), BigInt(1));
  // Empty input: identity.
  EXPECT_EQ(multi_pow(ctx, {}, {}), BigInt(1));
  // Single base degenerates to pow.
  EXPECT_EQ(multi_pow(ctx, std::span(bases.data(), 1), std::span(exps.data() + 3, 1)),
            ctx.pow(bases[0], exps[3]));
}

TEST(MultiPow, RejectsBadInput) {
  const BigInt m(1009);
  const MontgomeryContext ctx(m);
  const std::vector<BigInt> bases = {BigInt(2), BigInt(3)};
  const std::vector<BigInt> one = {BigInt(1)};
  EXPECT_THROW(multi_pow(ctx, bases, one), InvalidArgument);
  const std::vector<BigInt> neg = {BigInt(1), BigInt(-1)};
  EXPECT_THROW(multi_pow(ctx, bases, neg), InvalidArgument);
}

// ---- multi_pow_matrix -------------------------------------------------------

TEST(MultiPowMatrix, MatchesNaivePerColumn) {
  crypto::Prg prg("matrix");
  // Shapes chosen to land on each kernel: (few bases, few cols) -> Straus,
  // (many bases, small exps) -> Pippenger, (few bases, many cols) -> fixed.
  struct Shape {
    std::size_t count, columns, exp_bits;
  };
  for (const Shape s : {Shape{3, 2, 512}, Shape{48, 6, 12}, Shape{3, 40, 256}}) {
    const BigInt m = random_odd_modulus(prg, 384);
    const MontgomeryContext ctx(m);
    std::vector<BigInt> bases(s.count);
    for (auto& b : bases) b = BigInt::random_below(prg, m);
    std::vector<std::vector<BigInt>> exps(s.count, std::vector<BigInt>(s.columns));
    for (auto& row : exps) {
      for (auto& e : row) e = BigInt::random_bits(prg, 1 + prg.uniform(s.exp_bits));
    }
    // Sprinkle structural zeros, including one all-zero row.
    for (auto& e : exps[0]) e = BigInt(0);
    exps[s.count - 1][0] = BigInt(0);
    const std::vector<BigInt> out = multi_pow_matrix(ctx, bases, exps);
    ASSERT_EQ(out.size(), s.columns);
    for (std::size_t c = 0; c < s.columns; ++c) {
      std::vector<BigInt> col(s.count);
      for (std::size_t i = 0; i < s.count; ++i) col[i] = exps[i][c];
      EXPECT_EQ(out[c], naive_multi_pow(bases, col, m)) << "col=" << c;
    }
  }
}

TEST(MultiPowMatrix, RejectsRaggedRows) {
  const MontgomeryContext ctx(BigInt(1009));
  const std::vector<BigInt> bases = {BigInt(2), BigInt(3)};
  const std::vector<std::vector<BigInt>> ragged = {{BigInt(1), BigInt(2)}, {BigInt(1)}};
  EXPECT_THROW(multi_pow_matrix(ctx, bases, ragged), InvalidArgument);
}

// ---- multi_pow_matrix lane path ----------------------------------------------
//
// On a CPU with AVX-512 IFMA every Straus-planned multi_pow_matrix call runs
// the 8-lane kernel (lanes are (column, base range) jobs); elsewhere the
// scalar Straus code. Either way each checked column must equal the naive
// product of mod_pow calls, at 1, 2 and 8 threads (the lane planner's base
// split depends on the thread count). The kernel that ran is recorded as a
// test property: the lane path dispatches on the same CPUID test as
// pow_batch.

// Odd N of exactly `bits` bits; the moduli below are the Paillier N^2.
BigInt random_paillier_n(crypto::Prg& prg, std::size_t bits) {
  const BigInt n = (BigInt(1) << (bits - 1)) + BigInt::random_below(prg, BigInt(1) << (bits - 1));
  return n.is_odd() ? n : n + BigInt(1);
}

std::vector<std::vector<BigInt>> random_exps(crypto::Prg& prg, std::size_t count,
                                             std::size_t columns, std::size_t bits) {
  std::vector<std::vector<BigInt>> exps(count, std::vector<BigInt>(columns));
  for (auto& row : exps) {
    for (auto& e : row) e = BigInt::random_bits(prg, 1 + prg.uniform(bits));
  }
  return exps;
}

// multi_pow_matrix at 1, 2 and 8 threads against the naive product, on the
// given columns (all of them when `check` is empty). The scalar planner
// must pick Straus, or the lane path would not run.
void expect_lane_path_matches(const BigInt& m, const std::vector<BigInt>& bases,
                              const std::vector<std::vector<BigInt>>& exps,
                              std::vector<std::size_t> check, const std::string& what) {
  const std::size_t columns = exps.empty() ? 0 : exps[0].size();
  std::size_t max_bits = 0;
  for (const auto& row : exps) {
    for (const BigInt& e : row) max_bits = std::max(max_bits, e.bit_length());
  }
  if (max_bits > 0) {
    ASSERT_EQ(detail::plan_multi_exp(bases.size(), columns, max_bits).kind,
              detail::MultiExpKind::kStraus)
        << what;
  }
  if (check.empty()) {
    for (std::size_t c = 0; c < columns; ++c) check.push_back(c);
  }
  std::vector<BigInt> want;
  for (const std::size_t c : check) {
    std::vector<BigInt> col(bases.size());
    for (std::size_t i = 0; i < bases.size(); ++i) col[i] = exps[i][c];
    want.push_back(naive_multi_pow(bases, col, m));
  }
  const MontgomeryContext ctx(m);
  for (const std::size_t threads : {1, 2, 8}) {
    common::ThreadPool::set_global_threads(threads);
    const std::vector<BigInt> got = multi_pow_matrix(ctx, bases, exps);
    ASSERT_EQ(got.size(), columns) << what;
    for (std::size_t idx = 0; idx < check.size(); ++idx) {
      EXPECT_EQ(got[check[idx]], want[idx])
          << what << ", threads " << threads << ", column " << check[idx];
    }
  }
  common::ThreadPool::set_global_threads(0);  // back to the SPFE_THREADS default
}

void lanes_match_naive_on_fold_shapes() {
  ::testing::Test::RecordProperty("multiexp_kernel", MontgomeryContext::pow_batch_kernel());
  crypto::Prg prg("matrix-lanes-fold");
  // The cPIR fold's multi-exps: the salary survey's depth-2 levels at
  // 768-bit N, and the Table 1 rows' shapes at 512-bit N.
  struct Shape {
    std::size_t count, columns, exp_bits, n_bits;
  };
  for (const Shape s : {Shape{24, 24, 40, 768}, Shape{24, 3, 752, 768}, Shape{31, 3, 496, 512},
                        Shape{32, 93, 496, 512}, Shape{46, 135, 496, 512}}) {
    const BigInt n = random_paillier_n(prg, s.n_bits);
    const BigInt m = n * n;
    std::vector<BigInt> bases(s.count);
    for (auto& b : bases) b = BigInt::random_below(prg, m);
    std::vector<std::vector<BigInt>> exps = random_exps(prg, s.count, s.columns, s.exp_bits);
    // Full-width exponents in the first column, so every shape reaches its
    // stated width; a ragged tail group's rows are all zero.
    for (auto& row : exps) row[0] = (BigInt(1) << (s.exp_bits - 1)) + row[0];
    for (auto& e : exps[s.count - 1]) e = BigInt(0);
    // Every column of the small shapes; on the wide ones, the first two
    // lane groups, a middle column and the last (partial) group.
    std::vector<std::size_t> check;
    if (s.columns > 24) {
      for (std::size_t c = 0; c < 17; ++c) check.push_back(c);
      check.push_back(s.columns / 2);
      for (std::size_t c = s.columns - 3; c < s.columns; ++c) check.push_back(c);
    }
    const std::string what = std::to_string(s.count) + "x" + std::to_string(s.columns) + "x" +
                             std::to_string(s.exp_bits);
    expect_lane_path_matches(m, bases, exps, check, what);
  }
}

void lanes_match_naive_on_edge_shapes() {
  ::testing::Test::RecordProperty("multiexp_kernel", MontgomeryContext::pow_batch_kernel());
  crypto::Prg prg("matrix-lanes-edge");
  // N^2 for N of 256 to 2048 bits, and an odd modulus of exactly 20
  // radix-2^52 digits whose top digit is all ones (no headroom below R).
  std::vector<BigInt> moduli;
  for (const std::size_t n_bits : {256, 512, 768, 1024, 2048}) {
    const BigInt n = random_paillier_n(prg, n_bits);
    moduli.push_back(n * n);
  }
  moduli.push_back((BigInt(1) << 1040) - BigInt(1) -
                   BigInt(2) * BigInt::random_below(prg, BigInt(1) << 600));
  for (const BigInt& m : moduli) {
    const std::string mod = "modulus bits " + std::to_string(m.bit_length());
    // Bases 0, 1, M - 1, M and above M, then random residues.
    std::vector<BigInt> pool = {BigInt(0), BigInt(1), m - BigInt(1), m, m + BigInt(5),
                                m * BigInt(3) + BigInt(1)};
    while (pool.size() < 9) pool.push_back(BigInt::random_below(prg, m));
    const std::size_t bits = m.bit_length() > 2048 ? 64 : 160;
    // 1 to 17 columns over five bases: partial lane groups, and lanes whose
    // base ranges run out at different steps.
    for (std::size_t columns = 1; columns <= 17; ++columns) {
      const std::vector<BigInt> bases(pool.begin() + 1, pool.begin() + 6);
      expect_lane_path_matches(m, bases, random_exps(prg, 5, columns, bits), {},
                               mod + ", " + std::to_string(columns) + " columns");
    }
    // One base.
    expect_lane_path_matches(m, {pool[8]}, random_exps(prg, 1, 1, bits), {}, mod + ", count 1");
    // All-zero exponent rows, an all-zero column, and every edge base.
    std::vector<std::vector<BigInt>> exps = random_exps(prg, pool.size(), 9, bits);
    for (auto& e : exps[1]) e = BigInt(0);
    for (auto& e : exps[4]) e = BigInt(0);
    for (auto& row : exps) row[3] = BigInt(0);
    expect_lane_path_matches(m, pool, exps, {}, mod + ", zero rows and column");
    // max_bits 1: exponents 0 and 1.
    for (auto& row : exps) {
      for (auto& e : row) e = BigInt(prg.uniform(2));
    }
    expect_lane_path_matches(m, pool, exps, {}, mod + ", max_bits 1");
    // Every exponent zero: the identity in every column.
    for (auto& row : exps) {
      for (auto& e : row) e = BigInt(0);
    }
    expect_lane_path_matches(m, pool, exps, {}, mod + ", all zero");
  }
}

// On the portable arm the same shapes run the scalar Straus columns.
TEST(MultiPowMatrixLanes, MatchesNaiveOnFoldShapes) {
  SPFE_REQUIRE_LANE_ARM();
  lanes_match_naive_on_fold_shapes();
}

TEST(MultiPowMatrixLanesPortableArm, MatchesNaiveOnFoldShapes) {
  const ifma::ScopedPortableArm arm;
  lanes_match_naive_on_fold_shapes();
}

TEST(MultiPowMatrixLanes, MatchesNaiveOnEdgeShapesAndModuli) {
  SPFE_REQUIRE_LANE_ARM();
  lanes_match_naive_on_edge_shapes();
}

TEST(MultiPowMatrixLanesPortableArm, MatchesNaiveOnEdgeShapesAndModuli) {
  const ifma::ScopedPortableArm arm;
  lanes_match_naive_on_edge_shapes();
}

// ---- FixedBasePowTable ------------------------------------------------------

TEST(FixedBasePowTable, MatchesPow) {
  crypto::Prg prg("fixed-base");
  const BigInt m = random_odd_modulus(prg, 512);
  const MontgomeryContext ctx(m);
  const BigInt base = BigInt::random_below(prg, m);
  const FixedBasePowTable table(ctx, base, 512);
  EXPECT_GE(table.max_exp_bits(), 512u);
  EXPECT_EQ(table.pow(BigInt(0)), BigInt(1));
  EXPECT_EQ(table.pow(BigInt(1)), base.mod_floor(m));
  for (int it = 0; it < 10; ++it) {
    const BigInt e = BigInt::random_bits(prg, 1 + prg.uniform(512));
    EXPECT_EQ(table.pow(e), ctx.pow(base, e)) << "it=" << it;
  }
  // Full-capacity exponent (every comb digit populated).
  const BigInt full = (BigInt(1) << table.max_exp_bits()) - BigInt(1);
  EXPECT_EQ(table.pow(full), ctx.pow(base, full));
}

TEST(FixedBasePowTable, RejectsOverCapacityAndNegative) {
  const MontgomeryContext ctx(BigInt(1009));
  const FixedBasePowTable table(ctx, BigInt(7), 32);
  EXPECT_THROW(table.pow(BigInt(1) << (table.max_exp_bits() + 1)), InvalidArgument);
  EXPECT_THROW(table.pow(BigInt(-1)), InvalidArgument);
}

// ---- Planner ----------------------------------------------------------------

TEST(MultiExpPlan, PicksExpectedKernelForCanonicalShapes) {
  using detail::MultiExpKind;
  // Two 512-bit cross terms (arith_protocol): shared chain, Straus.
  EXPECT_EQ(detail::plan_multi_exp(2, 1, 512).kind, MultiExpKind::kStraus);
  // Depth-1 cPIR fold: thousands of bases, tiny exponents, one column.
  EXPECT_EQ(detail::plan_multi_exp(4096, 1, 16).kind, MultiExpKind::kPippenger);
  // Few bases amortized over many columns: fixed-base comb.
  EXPECT_EQ(detail::plan_multi_exp(2, 1000, 512).kind, MultiExpKind::kFixedBase);
  const detail::MultiExpPlan p = detail::plan_multi_exp(64, 64, 496);
  EXPECT_GE(p.window, 1u);
  EXPECT_LE(p.window, 10u);
}

// The lane planner on the fold shapes. Its window stays at most 8, so the
// widest Table 1 fold (46 bases, 135 columns, 496-bit exponents at 512-bit
// N: 20 radix-2^52 digits mod N^2) keeps its tables within 2 MB at any
// thread count. The upper survey level (3 columns) splits bases to fill
// the lanes; the 24-column level 0 fills them with whole columns.
TEST(MultiExpPlan, LaneStrausWindowAndTableBound) {
  for (const std::size_t threads : {1, 2, 4, 8}) {
    const detail::LaneStrausPlan p = detail::plan_lane_straus(46, 135, 496, threads);
    EXPECT_GE(p.window, 1u);
    EXPECT_LE(p.window, 8u);
    EXPECT_LE((std::size_t(46) << p.window) * 20 * sizeof(std::uint64_t), std::size_t(2) << 20);
    EXPECT_GE(p.partitions, 1u);
    EXPECT_LE(p.partitions, 46u);
  }
  EXPECT_GT(detail::plan_lane_straus(24, 3, 752, 1).partitions, 1u);
  EXPECT_EQ(detail::plan_lane_straus(24, 24, 40, 1).partitions, 1u);
  EXPECT_LE(detail::plan_lane_straus(1, 1, 1, 1).partitions, 1u);
}

TEST(MultiExpPlan, FixedBaseWindowGrowsWithExponentSize) {
  EXPECT_GE(detail::plan_fixed_base_window(4096), detail::plan_fixed_base_window(64));
  for (const std::size_t bits : {1u, 64u, 512u, 4096u}) {
    const unsigned w = detail::plan_fixed_base_window(bits);
    EXPECT_GE(w, 1u);
    EXPECT_LE(w, 8u);
  }
}

}  // namespace
}  // namespace spfe::bignum
