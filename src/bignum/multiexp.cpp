#include "bignum/multiexp.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "bignum/ifma.h"
#include "common/error.h"
#include "common/parallel.h"
#include "obs/obs.h"

namespace spfe::bignum {
namespace {

using ifma::digit_at;
using ifma::kLanes;
using u64 = std::uint64_t;
using MontVec = std::vector<u64>;

// Relative cost of a Montgomery squaring vs a full multiplication: mont_sqr
// computes each cross product once and reduces in a separate pass.
constexpr double kSqrCost = 0.7;


// Window table for one base: table[d - 1] = base^d for d in [1, 2^w).
// Even entries come from mont_sqr, odd ones from one mont_mul.
std::vector<MontVec> build_window_table(const MontgomeryContext& ctx, const MontVec& base,
                                        unsigned w) {
  std::vector<MontVec> table((std::size_t(1) << w) - 1);
  table[0] = base;
  for (std::size_t d = 2; d <= table.size(); ++d) {
    table[d - 1] = (d % 2 == 0) ? ctx.mont_sqr(table[d / 2 - 1])
                                : ctx.mont_mul(table[d - 2], base);
  }
  return table;
}

// One column of Straus interleaving over the base range [i0, i1): a single
// squaring chain shared by the range's bases, window lookups from the
// (column-shared) per-base tables. An empty accumulator stands for the
// identity so leading zero windows are free. Ranges let a wide-count,
// narrow-column fold (the depth >= 2 cPIR levels) split one column across
// several partitions; partition products combine exactly because modular
// multiplication is associative.
MontVec straus_column(const MontgomeryContext& ctx, const std::vector<std::vector<MontVec>>& tables,
                      std::span<const BigInt> bases_exps_col, std::size_t windows, unsigned w,
                      std::size_t i0, std::size_t i1) {
  MontVec acc;
  for (std::size_t j = windows; j-- > 0;) {
    if (!acc.empty()) {
      for (unsigned s = 0; s < w; ++s) acc = ctx.mont_sqr(acc);
    }
    for (std::size_t i = i0; i < i1; ++i) {
      if (tables[i].empty()) continue;  // base unused (all-zero exponent row)
      const unsigned d = digit_at(bases_exps_col[i], j, w);
      if (d == 0) continue;
      acc = acc.empty() ? tables[i][d - 1] : ctx.mont_mul(acc, tables[i][d - 1]);
    }
  }
  return acc;
}

// One column of Pippenger bucketing: per window, bases fall into 2^w - 1
// buckets by digit; sum_d d * bucket[d] (in the exponent) is evaluated with
// the running-product trick in at most 2 * (2^w - 1) multiplications.
MontVec pippenger_column(const MontgomeryContext& ctx, const std::vector<MontVec>& mont_bases,
                         std::span<const BigInt> bases_exps_col, std::size_t windows, unsigned w,
                         std::size_t i0, std::size_t i1) {
  MontVec acc;
  std::vector<MontVec> bucket(std::size_t(1) << w);
  for (std::size_t j = windows; j-- > 0;) {
    if (!acc.empty()) {
      for (unsigned s = 0; s < w; ++s) acc = ctx.mont_sqr(acc);
    }
    for (auto& b : bucket) b.clear();
    for (std::size_t i = i0; i < i1; ++i) {
      if (mont_bases[i].empty()) continue;
      const unsigned d = digit_at(bases_exps_col[i], j, w);
      if (d == 0) continue;
      bucket[d] = bucket[d].empty() ? mont_bases[i] : ctx.mont_mul(bucket[d], mont_bases[i]);
    }
    // running = prod_{e >= d} bucket[e]; multiplying it into the window sum
    // once per d yields prod_d bucket[d]^d.
    MontVec running, wsum;
    for (std::size_t d = bucket.size(); d-- > 1;) {
      if (!bucket[d].empty()) {
        running = running.empty() ? bucket[d] : ctx.mont_mul(running, bucket[d]);
      }
      if (!running.empty()) wsum = wsum.empty() ? running : ctx.mont_mul(wsum, running);
    }
    if (!wsum.empty()) acc = acc.empty() ? std::move(wsum) : ctx.mont_mul(acc, wsum);
  }
  return acc;
}

// Partition count for the column fan-out. A depth >= 2 cPIR fold collapses
// to a handful of columns at the upper levels (e.g. 3 columns at n = 4096,
// depth 2), which used to cap the parallelism at `columns` however many
// workers the pool has. Splitting each column's base range into `parts`
// keeps every worker busy; the per-partition products recombine exactly
// (modular multiplication is associative), so the output bytes and the op
// counters are identical at every partition count.
std::size_t column_partitions(std::size_t count, std::size_t columns) {
  const std::size_t threads = common::ThreadPool::global().thread_count();
  if (columns == 0 || count == 0 || columns >= threads) return 1;
  return std::min(count, (threads + columns - 1) / columns);
}

// Folds each column's partition products (Montgomery form; empty = identity)
// in ascending partition order.
void combine_partials(const MontgomeryContext& ctx, std::vector<MontVec>& partials,
                      std::size_t columns, std::size_t parts, std::vector<BigInt>& out) {
  common::parallel_for(columns, [&](std::size_t c) {
    MontVec acc;
    for (std::size_t p = 0; p < parts; ++p) {
      MontVec& part = partials[c * parts + p];
      if (part.empty()) continue;
      acc = acc.empty() ? std::move(part) : ctx.mont_mul(acc, part);
    }
    if (!acc.empty()) out[c] = ctx.from_mont(acc);
  });
}

// The scalar strategies for one problem (the reference, and the path of
// every problem the lane pass does not take).
void scalar_multi_pow(const MontgomeryContext& ctx, std::span<const BigInt> bases,
                      const std::vector<std::vector<BigInt>>& exps, const ifma::ProblemShape& shape,
                      const detail::MultiExpPlan& plan, std::vector<BigInt>& out) {
  const std::size_t count = bases.size();
  const std::size_t columns = shape.columns;
  const std::vector<char>& used = shape.used;
  const unsigned w = plan.window;
  const std::size_t windows = (shape.max_bits + w - 1) / w;
  const std::size_t parts = column_partitions(count, columns);
  std::vector<MontVec> partials(columns * parts);
  const auto cell_range = [&](std::size_t cell, std::size_t& c, std::size_t& i0,
                              std::size_t& i1) {
    c = cell / parts;
    const std::size_t p = cell % parts;
    i0 = p * count / parts;
    i1 = (p + 1) * count / parts;
  };

  if (plan.kind == detail::MultiExpKind::kFixedBase) {
    // Comb tables per base, shared read-only across the column fan-out.
    std::vector<std::unique_ptr<FixedBasePowTable>> tables(count);
    common::parallel_for(count, [&](std::size_t i) {
      if (used[i]) tables[i] = std::make_unique<FixedBasePowTable>(ctx, bases[i], shape.max_bits);
    });
    common::parallel_for(columns * parts, [&](std::size_t cell) {
      std::size_t c, i0, i1;
      cell_range(cell, c, i0, i1);
      MontVec acc;
      for (std::size_t i = i0; i < i1; ++i) {
        if (!used[i] || exps[i][c].is_zero()) continue;
        MontVec p = tables[i]->pow_mont(exps[i][c]);
        acc = acc.empty() ? std::move(p) : ctx.mont_mul(acc, p);
      }
      partials[cell] = std::move(acc);
    });
    combine_partials(ctx, partials, columns, parts, out);
    return;
  }

  std::vector<MontVec> mont_bases(count);
  common::parallel_for(count, [&](std::size_t i) {
    if (used[i]) mont_bases[i] = ctx.to_mont(bases[i]);
  });

  if (plan.kind == detail::MultiExpKind::kStraus) {
    std::vector<std::vector<MontVec>> tables(count);
    common::parallel_for(count, [&](std::size_t i) {
      if (used[i]) tables[i] = build_window_table(ctx, mont_bases[i], w);
    });
    common::parallel_for(columns * parts, [&](std::size_t cell) {
      std::size_t c, i0, i1;
      cell_range(cell, c, i0, i1);
      std::vector<BigInt> col(count);
      for (std::size_t i = i0; i < i1; ++i) col[i] = exps[i][c];
      partials[cell] = straus_column(ctx, tables, col, windows, w, i0, i1);
    });
    combine_partials(ctx, partials, columns, parts, out);
    return;
  }

  common::parallel_for(columns * parts, [&](std::size_t cell) {
    std::size_t c, i0, i1;
    cell_range(cell, c, i0, i1);
    std::vector<BigInt> col(count);
    for (std::size_t i = i0; i < i1; ++i) col[i] = exps[i][c];
    partials[cell] = pippenger_column(ctx, mont_bases, col, windows, w, i0, i1);
  });
  combine_partials(ctx, partials, columns, parts, out);
}

}  // namespace

namespace detail {

MultiExpPlan plan_multi_exp(std::size_t count, std::size_t columns, std::size_t max_bits) {
  const double n = static_cast<double>(count);
  const double cols = static_cast<double>(std::max<std::size_t>(columns, 1));
  const double bits = static_cast<double>(std::max<std::size_t>(max_bits, 1));
  MultiExpPlan best{MultiExpKind::kStraus, 1};
  double best_cost = -1;
  for (unsigned w = 1; w <= 10; ++w) {
    const double table = static_cast<double>((std::size_t(1) << w) - 2);
    const double buckets = static_cast<double>(2 * ((std::size_t(1) << w) - 1));
    const double windows = (bits + w - 1) / w;
    const double chain = kSqrCost * bits;  // shared squaring chain per column
    // Straus: per-base tables built once, shared by every column.
    const double straus = n * table + cols * (chain + n * windows);
    // Pippenger: no tables, but the bucket combine is paid per window.
    const double pip = cols * (chain + windows * (n + buckets));
    // Fixed-base comb: per-base table of `windows` squaring steps built
    // once; evaluation pays the Yao combine per (base, column) but shares
    // no squaring chain (there are no evaluation-time squarings at all).
    const double fixed = n * chain + cols * n * (windows + buckets);
    struct {
      MultiExpKind kind;
      double cost;
    } cand[3] = {{MultiExpKind::kStraus, straus},
                 {MultiExpKind::kPippenger, pip},
                 {MultiExpKind::kFixedBase, fixed}};
    for (const auto& c : cand) {
      if (best_cost < 0 || c.cost < best_cost) {
        best_cost = c.cost;
        best = {c.kind, w};
      }
    }
  }
  return best;
}

LaneStrausPlan plan_lane_straus(std::size_t count, std::size_t columns, std::size_t max_bits,
                                std::size_t threads, std::size_t problems,
                                std::size_t modulus_bits) {
  const auto ceil_div = [](std::size_t a, std::size_t b) { return (a + b - 1) / b; };
  count = std::max<std::size_t>(count, 1);
  columns = std::max<std::size_t>(columns, 1);
  threads = std::max<std::size_t>(threads, 1);
  max_bits = std::max<std::size_t>(max_bits, 1);
  problems = std::max<std::size_t>(problems, 1);
  // Costs in 8-lane products. The lane groups of a stage run in rounds of
  // `threads`; a group pays its slowest lane.
  const std::size_t table_rounds = ceil_div(ceil_div(problems * count, kLanes), threads);
  const std::size_t combine_rounds = ceil_div(ceil_div(problems * columns, kLanes), threads);
  const std::size_t entry_bytes = ifma::digits_for(modulus_bits) * sizeof(u64);
  LaneStrausPlan best{1, 1, std::numeric_limits<std::size_t>::max(), 0};
  for (unsigned w = 1; w <= kMaxLaneWindow; ++w) {
    const std::size_t table_bytes = (problems * count << w) * entry_bytes;
    if (w > 1 && problems > 1 && table_bytes > kLaneTableBudget) break;
    const std::size_t windows = ceil_div(max_bits, w);
    for (std::size_t parts = 1; parts <= count; ++parts) {
      const std::size_t rounds = ceil_div(ceil_div(problems * columns * parts, kLanes), threads);
      const std::size_t cost = rounds * windows * (w + ceil_div(count, parts)) +
                               table_rounds * (std::size_t(1) << w) + combine_rounds * parts;
      if (cost < best.cost) best = {w, parts, cost, table_bytes};
    }
  }
  return best;
}

LaneWavePlan plan_lane_wave(std::span<const LaneStage> stages, std::size_t instances,
                            std::size_t threads, std::size_t modulus_bits) {
  threads = std::max<std::size_t>(threads, 1);
  std::size_t narrowest = std::numeric_limits<std::size_t>::max();
  for (const LaneStage& stage : stages) narrowest = std::min(narrowest, stage.columns);
  narrowest = std::max<std::size_t>(narrowest, 1);
  const std::size_t fill = std::min(std::max<std::size_t>(instances, 1),
                                    (kLanes * threads + narrowest - 1) / narrowest);
  LaneWavePlan best{1, 0};
  std::size_t best_cost = 0;
  for (std::size_t wave = 1; wave <= fill; ++wave) {
    std::size_t cost = 0, table_bytes = 0;
    for (const LaneStage& stage : stages) {
      const LaneStrausPlan plan = plan_lane_straus(stage.count, stage.columns, stage.max_bits,
                                                   threads, wave, modulus_bits);
      cost += plan.cost;
      table_bytes = std::max(table_bytes, plan.table_bytes);
    }
    if (wave > 1 && table_bytes > kLaneTableBudget) continue;
    // Least cost per instance; ties keep the smaller wave.
    if (wave == 1 || cost * best.instances < best_cost * wave) {
      best = {wave, table_bytes};
      best_cost = cost;
    }
  }
  return best;
}

unsigned plan_fixed_base_window(std::size_t max_bits) {
  const double bits = static_cast<double>(std::max<std::size_t>(max_bits, 1));
  unsigned best_w = 1;
  double best_cost = -1;
  for (unsigned w = 1; w <= 8; ++w) {
    const double cost =
        (bits + w - 1) / w + static_cast<double>(2 * ((std::size_t(1) << w) - 1));
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return best_w;
}

}  // namespace detail

std::vector<std::vector<BigInt>> multi_pow_matrices(const MontgomeryContext& ctx,
                                                    std::span<const MultiPowProblem> problems) {
  std::vector<ifma::ProblemShape> shapes(problems.size());
  std::vector<std::vector<BigInt>> out(problems.size());
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const std::span<const BigInt> bases = problems[p].bases;
    const std::vector<std::vector<BigInt>>& exps = *problems[p].exps;
    ifma::ProblemShape& shape = shapes[p];
    if (exps.size() != bases.size()) throw InvalidArgument("multi_pow_matrix: row count mismatch");
    shape.columns = bases.empty() ? 0 : exps[0].size();
    shape.used.assign(bases.size(), 0);
    for (std::size_t i = 0; i < bases.size(); ++i) {
      if (exps[i].size() != shape.columns) {
        throw InvalidArgument("multi_pow_matrix: ragged exponent rows");
      }
      for (const BigInt& e : exps[i]) {
        if (e.is_negative()) throw InvalidArgument("multi_pow_matrix: negative exponent");
        const std::size_t b = e.bit_length();
        if (b > 0) shape.used[i] = 1;
        shape.max_bits = std::max(shape.max_bits, b);
      }
    }
    out[p].assign(shape.columns, BigInt(1).mod_floor(ctx.modulus()));
  }

  const bool lanes = ifma::lanes_fit(ctx.modulus());
  std::vector<std::size_t> lane;  // Straus-planned problems for the lane pass
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const ifma::ProblemShape& shape = shapes[p];
    if (problems[p].bases.empty() || shape.columns == 0 || shape.max_bits == 0) continue;
    const detail::MultiExpPlan plan =
        detail::plan_multi_exp(problems[p].bases.size(), shape.columns, shape.max_bits);
    obs::count(plan.kind == detail::MultiExpKind::kFixedBase ? obs::Op::kMultiexpFixedBase
               : plan.kind == detail::MultiExpKind::kStraus  ? obs::Op::kMultiexpStraus
                                                             : obs::Op::kMultiexpPippenger);
    if (lanes && plan.kind == detail::MultiExpKind::kStraus) {
      lane.push_back(p);
    } else {
      scalar_multi_pow(ctx, problems[p].bases, *problems[p].exps, shape, plan, out[p]);
    }
  }
  if (!lane.empty()) ifma::straus_pass(ctx.modulus(), problems, shapes, lane, out);
  return out;
}

std::vector<BigInt> multi_pow_matrix(const MontgomeryContext& ctx, std::span<const BigInt> bases,
                                     const std::vector<std::vector<BigInt>>& exps) {
  const MultiPowProblem problem{bases, &exps};
  return std::move(multi_pow_matrices(ctx, {&problem, 1})[0]);
}

BigInt multi_pow(const MontgomeryContext& ctx, std::span<const BigInt> bases,
                 std::span<const BigInt> exps) {
  if (bases.size() != exps.size()) throw InvalidArgument("multi_pow: size mismatch");
  if (bases.empty()) return BigInt(1).mod_floor(ctx.modulus());
  std::vector<std::vector<BigInt>> m(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) m[i] = {exps[i]};
  return multi_pow_matrix(ctx, bases, m)[0];
}

FixedBasePowTable::FixedBasePowTable(const MontgomeryContext& ctx, const BigInt& base,
                                     std::size_t max_exp_bits)
    : ctx_(&ctx), window_(detail::plan_fixed_base_window(max_exp_bits)) {
  const std::size_t bits = std::max<std::size_t>(max_exp_bits, 1);
  digits_ = (bits + window_ - 1) / window_;
  powers_.resize(digits_);
  powers_[0] = ctx.to_mont(base);
  for (std::size_t j = 1; j < digits_; ++j) {
    MontVec p = powers_[j - 1];
    for (unsigned s = 0; s < window_; ++s) p = ctx.mont_sqr(p);
    powers_[j] = std::move(p);
  }
}

std::vector<std::uint64_t> FixedBasePowTable::pow_mont(const BigInt& exp) const {
  if (exp.is_negative()) throw InvalidArgument("FixedBasePowTable: negative exponent");
  if (exp.bit_length() > digits_ * window_) {
    throw InvalidArgument("FixedBasePowTable: exponent exceeds table capacity");
  }
  // Yao's method: group comb positions by digit value, then evaluate
  // prod_d (prod_{j : digit_j = d} powers_[j])^d with running products.
  std::vector<MontVec> bucket(std::size_t(1) << window_);
  for (std::size_t j = 0; j < digits_; ++j) {
    const unsigned d = digit_at(exp, j, window_);
    if (d == 0) continue;
    bucket[d] = bucket[d].empty() ? powers_[j] : ctx_->mont_mul(bucket[d], powers_[j]);
  }
  MontVec running, acc;
  for (std::size_t d = bucket.size(); d-- > 1;) {
    if (!bucket[d].empty()) {
      running = running.empty() ? bucket[d] : ctx_->mont_mul(running, bucket[d]);
    }
    if (!running.empty()) acc = acc.empty() ? running : ctx_->mont_mul(acc, running);
  }
  return acc.empty() ? ctx_->mont_one() : acc;
}

BigInt FixedBasePowTable::pow(const BigInt& exp) const { return ctx_->from_mont(pow_mont(exp)); }

}  // namespace spfe::bignum
