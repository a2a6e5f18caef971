// Simultaneous multi-exponentiation on top of MontgomeryContext — the
// batched kernel under every homomorphic hot path (the cPIR server fold,
// Paillier weighted sums in the §4 statistics protocols, and the
// arithmetic-circuit SPFE cross-term elimination).
//
// Three evaluation strategies, selected per call by a cost model (costs in
// Montgomery multiplications, squarings weighted cheaper via mont_sqr):
//   * Straus interleaving — one shared squaring chain for all bases, a
//     2^w-entry window table per base. Tables are shared across all columns
//     of a matrix call. Best for a moderate base count with large exponents.
//   * Pippenger bucketing — no per-base tables; each window accumulates
//     bases into 2^w-1 buckets combined with the running-product trick.
//     Takes over above a base-count threshold (and for small exponents,
//     where Straus tables would dominate).
//   * Fixed-base comb (FixedBasePowTable) — per-base tables of b^(2^(w*j)),
//     no squarings at evaluation time. Wins for a matrix with few bases and
//     many columns, where the table cost amortizes across the columns.
//
// On CPUs with AVX-512 IFMA (CPUID decides; nothing else), Straus-planned
// problems run eight (problem, column, base range) jobs at a time on the
// radix-2^52 kernel behind MontgomeryContext::pow_batch, with their own
// plan (detail::plan_lane_straus). Pippenger, fixed-base and every other CPU run
// the scalar code, which stays the reference.
//
// Every strategy returns the canonical representative in [0, modulus), so
// results are byte-identical to the naive product of mod_pow calls — the
// engine changes evaluation order only, never transcripts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/modarith.h"

namespace spfe::bignum {

// prod_i bases[i]^exps[i] mod ctx.modulus(). Exponents must be >= 0; zero
// exponents contribute the identity and cost nothing. Throws InvalidArgument
// on size mismatch or a negative exponent.
BigInt multi_pow(const MontgomeryContext& ctx, std::span<const BigInt> bases,
                 std::span<const BigInt> exps);

// Column-wise multi-exp over a base-major exponent matrix:
//   out[c] = prod_i bases[i]^{exps[i][c]}  for c in [0, columns).
// All rows must have the same length. Window tables (Straus) or comb tables
// (fixed-base) are built once and shared across columns; columns are fanned
// out across the global thread pool (outputs are per-column, so the result
// is bit-identical at every SPFE_THREADS setting). The one-problem case of
// multi_pow_matrices.
std::vector<BigInt> multi_pow_matrix(const MontgomeryContext& ctx, std::span<const BigInt> bases,
                                     const std::vector<std::vector<BigInt>>& exps);

// One problem of multi_pow_matrices: bases and their base-major exponent
// matrix, which must outlive the call.
struct MultiPowProblem {
  std::span<const BigInt> bases;
  const std::vector<std::vector<BigInt>>* exps = nullptr;
};

// out[p] = multi_pow_matrix(ctx, problems[p].bases, *problems[p].exps) for
// every problem, with the same op counts (one multi-exp per nontrivial
// problem). On AVX-512 IFMA CPUs the Straus-planned problems share one lane
// pass: its jobs are (problem, column, base range) and the used bases of
// all of them sit in one table, so many narrow problems (the cPIR fold of a
// batch SPIR's buckets) fill the lanes together. With more than one problem
// the pass keeps that table within detail::kLaneTableBudget when it can.
std::vector<std::vector<BigInt>> multi_pow_matrices(const MontgomeryContext& ctx,
                                                    std::span<const MultiPowProblem> problems);

// Fixed-base windowing: precomputes base^(2^(w*j)) for all comb positions so
// each pow() costs ~bits/w multiplies and no squarings. The context must
// outlive the table. Exponents above max_exp_bits throw InvalidArgument.
class FixedBasePowTable {
 public:
  FixedBasePowTable(const MontgomeryContext& ctx, const BigInt& base, std::size_t max_exp_bits);

  BigInt pow(const BigInt& exp) const;
  // Montgomery-domain result, for callers that keep accumulating products.
  std::vector<std::uint64_t> pow_mont(const BigInt& exp) const;

  std::size_t max_exp_bits() const { return digits_ * window_; }
  unsigned window() const { return window_; }

 private:
  const MontgomeryContext* ctx_;
  unsigned window_;
  std::size_t digits_;
  std::vector<std::vector<std::uint64_t>> powers_;  // base^(2^(window_*j)), Montgomery form
};

namespace detail {

// Strategy planning, exposed so tests (and DESIGN.md's crossover table) can
// pin which kernel a given shape selects.
enum class MultiExpKind { kStraus, kPippenger, kFixedBase };
struct MultiExpPlan {
  MultiExpKind kind;
  unsigned window;  // w in [1, 10]
};
// `count` bases, `columns` independent exponent columns, exponents of at
// most `max_bits` bits.
MultiExpPlan plan_multi_exp(std::size_t count, std::size_t columns, std::size_t max_bits);

// The lane path of a Straus-planned multi_pow_matrix on AVX-512 IFMA CPUs
// runs eight jobs at a time, each one column over one of `partitions`
// base ranges with its own squaring chain. Its plan minimises lane rounds
// over `threads` pool participants times windows times (w + bases per
// lane), plus the table builds. Tables hold count * 2^w entries, so w is
// capped at kMaxLaneWindow to bound their memory.
//
// `problems` problems of at most `count` used bases and `columns` columns
// each may share one pass (multi_pow_matrices). With more than one, w is
// further capped so that their table, problems * count * 2^w entries of
// one residue mod a `modulus_bits`-bit modulus each, fits kLaneTableBudget: 512 KiB, about the table one
// 768-bit survey bucket's upper fold level builds on its own (24 bases at
// w = 6, 240-byte entries). If even w = 1 does not fit, the plan keeps
// w = 1 and reports table_bytes above the budget; callers that size
// batches (the cPIR fold waves) treat that as infeasible. A single problem
// keeps the uncapped plan.
constexpr unsigned kMaxLaneWindow = 8;
constexpr std::size_t kLaneTableBudget = std::size_t(512) << 10;
struct LaneStrausPlan {
  unsigned window;          // w in [1, kMaxLaneWindow]
  std::size_t partitions;   // base ranges per column, in [1, count]
  std::size_t cost = 0;         // modelled 8-lane products on the critical path
  std::size_t table_bytes = 0;  // problems * count * 2^w entries
};
LaneStrausPlan plan_lane_straus(std::size_t count, std::size_t columns, std::size_t max_bits,
                                std::size_t threads, std::size_t problems = 1,
                                std::size_t modulus_bits = 0);

// Batches of instances that each run one problem per stage, stage after
// stage (the recursion levels of a cPIR fold), run a wave of instances per
// lane pass. plan_lane_wave picks the wave size: at most enough instances
// that the narrowest stage fills a lane group per thread (and at most
// `instances`), the size with the least modelled cost per instance among
// those whose tables fit kLaneTableBudget at every stage. One instance per
// wave is always allowed and keeps the one-problem plans. `table_bytes` is
// the wave's largest modelled stage table.
struct LaneStage {
  std::size_t count;     // bases per instance
  std::size_t columns;   // exponent columns per instance
  std::size_t max_bits;  // widest exponent
};
struct LaneWavePlan {
  std::size_t instances;
  std::size_t table_bytes;
};
LaneWavePlan plan_lane_wave(std::span<const LaneStage> stages, std::size_t instances,
                            std::size_t threads, std::size_t modulus_bits);

// Window size minimizing the per-exponentiation cost of a fixed-base comb.
unsigned plan_fixed_base_window(std::size_t max_bits);

}  // namespace detail

}  // namespace spfe::bignum
