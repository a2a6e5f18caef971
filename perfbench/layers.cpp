// Per-layer attribution of the traced run.
//
// Layer times come from the library's existing spans, all nested under the
// benchmark's per-query span: a layer's self time is its spans' duration
// minus their children's. Op counts are the per-query span deltas, exact
// and independent of the thread count. Layers without a span of their own
// (the Montgomery kernel, field evaluation, Berlekamp-Welch) get a probe:
// the cost of one public call at the workload's operand sizes, and an
// attributed time of count x probe cost. A metric is 0 on a workload that
// does not exercise its layer.
#include <algorithm>

#include "bench.h"

namespace perfbench {
namespace {

using spfe::obs::Op;
using spfe::obs::SpanRecord;

constexpr const char* k1s = "survey_1s";
constexpr const char* kT1 = "table1";
constexpr const char* kKs = "survey_ks";
constexpr const char* kPaillier = "survey_1s,table1";
constexpr const char* kAll = "survey_1s,table1,survey_ks";

// Which layer metric a library span's self time belongs to. Spans not
// listed (stats.*, multiserver.*, precomp.*) are shown in the span table
// only.
const char* layer_of_span(const std::string& name) {
  if (name == kQuerySpan) return "spfe.self_s";
  if (name == "cpir.make_query") return "pir.make_query_s";
  if (name == "cpir.answer") return "pir.answer_s";
  if (name == "cpir.fold") return "pir.fold_s";
  if (name == "cpir.decode") return "pir.decode_s";
  if (name == "spfe.input_selection" || name.starts_with("input_selection.")) {
    return "spfe.input_selection_s";
  }
  if (name.starts_with("spfe.two_phase")) return "spfe.two_phase_s";
  if (name == "psm.yao_single_server") return "psm.yao_single_server_s";
  if (name.starts_with("yao.run")) return "mpc.yao_s";
  if (name == "robust.attempt") return "robust.attempt_s";
  return nullptr;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // common/parallel
      {"parallel.cpu_util", "ratio", "higher", "query_p50_s", k1s},
      // bignum
      {"bignum.modexp", "count", "lower", "query_p50_s,queries_per_s", kPaillier},
      {"bignum.mont_mul_ns", "ns", "lower", "query_p50_s,queries_per_s", kPaillier},
      {"bignum.modexp_ms", "ms", "lower", "query_p50_s,queries_per_s", kPaillier},
      {"bignum.modexp_attr_s", "s", "lower", "query_p50_s,queries_per_s", kPaillier},
      {"bignum.multiexp_straus", "count", "lower", "query_p50_s", kPaillier},
      {"bignum.multiexp_pippenger", "count", "lower", "query_p50_s", kPaillier},
      {"bignum.multiexp_fixed_base", "count", "lower", "query_p50_s", kPaillier},
      // he
      {"he.paillier_encrypt", "count", "lower", "query_p50_s", kPaillier},
      {"he.paillier_decrypt", "count", "lower", "query_p50_s", kPaillier},
      {"he.paillier_rerandomize", "count", "lower", "query_p50_s", kPaillier},
      {"he.encrypt_ms", "ms", "lower", "query_p50_s", kPaillier},
      {"he.decrypt_ms", "ms", "lower", "query_p50_s", kPaillier},
      {"he.encrypt_attr_s", "s", "lower", "query_p50_s", kPaillier},
      {"he.decrypt_attr_s", "s", "lower", "query_p50_s", kPaillier},
      {"he.pool_hit_ratio", "ratio", "higher", "query_p50_s,setup_s", kPaillier},
      // pir
      {"pir.make_query_s", "s", "lower", "query_p50_s", kPaillier},
      {"pir.answer_s", "s", "lower", "query_p50_s", kPaillier},
      {"pir.fold_s", "s", "lower", "query_p50_s", kPaillier},
      {"pir.decode_s", "s", "lower", "query_p50_s", kPaillier},
      // spfe
      {"spfe.self_s", "s", "lower", "query_p50_s", kAll},
      {"spfe.input_selection_s", "s", "lower", "query_p50_s", kT1},
      {"spfe.two_phase_s", "s", "lower", "query_p50_s", kT1},
      {"psm.yao_single_server_s", "s", "lower", "query_p50_s", kT1},
      {"multiserver.make_queries_ms", "ms", "lower", "query_p50_s", kKs},
      {"multiserver.answer_ms", "ms", "lower", "query_p50_s", kKs},
      {"multiserver.answer_attr_s", "s", "lower", "query_p50_s", kKs},
      {"multiserver.decode_us", "us", "lower", "query_p50_s", kKs},
      // mpc, ot
      {"mpc.yao_s", "s", "lower", "query_p50_s", kT1},
      {"mpc.garbled_gates", "count", "lower", "query_p50_s", kT1},
      {"ot.base", "count", "lower", "query_p50_s", kT1},
      // field
      {"field.bw_decode", "count", "lower", "query_p50_s,query_p90_s", kKs},
      {"field.bw_decode_us", "us", "lower", "query_p50_s,query_p90_s", kKs},
      {"field.bw_decode_attr_s", "s", "lower", "query_p50_s,query_p90_s", kKs},
      // net
      {"net.bytes_up", "B", "lower", "bytes_per_query", kAll},
      {"net.bytes_down", "B", "lower", "bytes_per_query", kAll},
      {"net.messages", "count", "lower", "bytes_per_query,rounds_per_query", kAll},
      {"net.download_ratio", "ratio", "lower", "bytes_per_query", kAll},
      {"net.deadline_miss", "count", "lower", "sim_completion_p90_us", kKs},
      {"net.hedge_sent", "count", "lower", "bytes_per_query,sim_completion_p90_us", kKs},
      {"net.hedge_win_ratio", "ratio", "higher", "sim_completion_p90_us", kKs},
      {"net.backoff_wait", "count", "lower", "sim_completion_p90_us", kKs},
      {"net.adv_forged_answer", "count", "lower", "sim_completion_p90_us", kKs},
      // net/robust
      {"robust.attempt_s", "s", "lower", "query_p50_s,query_p90_s", kKs},
      {"robust.attempts_per_query", "count", "lower", "query_p90_s,sim_completion_p90_us", kKs},
      {"robust.retry", "count", "lower", "query_p90_s,sim_completion_p90_us", kKs},
      {"robust.errors_corrected", "count", "lower", "query_p90_s", kKs},
      // the traced run itself
      {"trace.ops_attributed", "ratio", "higher", "", kAll},
      {"trace.overhead_s", "s", "lower", "", kAll},
  };
  return specs;
}

std::map<std::string, double> self_seconds_by_name(const std::vector<SpanRecord>& spans) {
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent != SpanRecord::kNoParent) child_ns[s.parent] += s.duration_ns();
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    const std::uint64_t self = s.duration_ns() - std::min(child_ns[s.id], s.duration_ns());
    out[s.name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

std::map<std::string, double> layer_values(const TracedRun& run) {
  std::map<std::string, double> v;
  for (const MetricSpec& m : per_layer_metrics()) v[m.name] = 0.0;
  const double q = static_cast<double>(std::max<std::size_t>(run.queries, 1));

  for (const auto& [name, self_s] : self_seconds_by_name(run.spans)) {
    if (const char* metric = layer_of_span(name)) v[metric] += self_s / q;
  }

  // Ops per query: the deltas of the root spans, which are the per-query
  // spans (main.cpp checks that they account for every counted op).
  spfe::obs::OpCounts ops{};
  for (const SpanRecord& s : run.spans) {
    if (s.parent != SpanRecord::kNoParent) continue;
    const spfe::obs::OpCounts d = s.delta();
    for (std::size_t i = 0; i < ops.size(); ++i) ops[i] += d[i];
  }
  const auto per_query = [&](Op op) { return static_cast<double>(ops[static_cast<int>(op)]) / q; };
  v["bignum.modexp"] = per_query(Op::kModExp);
  v["bignum.multiexp_straus"] = per_query(Op::kMultiexpStraus);
  v["bignum.multiexp_pippenger"] = per_query(Op::kMultiexpPippenger);
  v["bignum.multiexp_fixed_base"] = per_query(Op::kMultiexpFixedBase);
  v["he.paillier_encrypt"] = per_query(Op::kPaillierEncrypt);
  v["he.paillier_decrypt"] = per_query(Op::kPaillierDecrypt);
  v["he.paillier_rerandomize"] = per_query(Op::kPaillierRerandomize);
  v["he.pool_hit_ratio"] =
      ratio(per_query(Op::kPoolHit), per_query(Op::kPoolHit) + per_query(Op::kPoolMiss));
  v["mpc.garbled_gates"] = per_query(Op::kGarbledGates);
  v["ot.base"] = per_query(Op::kOtBase);
  v["field.bw_decode"] = per_query(Op::kBwDecode);
  v["net.deadline_miss"] = per_query(Op::kDeadlineMiss);
  v["net.hedge_sent"] = per_query(Op::kHedgeSent);
  v["net.hedge_win_ratio"] = ratio(per_query(Op::kHedgeWon), per_query(Op::kHedgeSent));
  v["net.backoff_wait"] = per_query(Op::kBackoffWait);
  v["net.adv_forged_answer"] = per_query(Op::kAdvForgedAnswer);
  v["robust.retry"] = per_query(Op::kRobustRetry);

  double up = 0, down = 0, messages = 0, answers = 0, attempts = 0, corrected = 0;
  for (const QueryResult& r : run.results) {
    up += static_cast<double>(r.comm.client_to_server_bytes);
    down += static_cast<double>(r.comm.server_to_client_bytes);
    messages += static_cast<double>(r.comm.client_to_server_messages +
                                    r.comm.server_to_client_messages);
    answers += static_cast<double>(r.comm.server_to_client_messages);
    attempts += static_cast<double>(r.attempts);
    corrected += static_cast<double>(r.errors_corrected);
  }
  v["net.bytes_up"] = up / q;
  v["net.bytes_down"] = down / q;
  v["net.messages"] = messages / q;
  v["net.download_ratio"] = ratio((up + down) / q, static_cast<double>(run.column_bytes));
  v["robust.attempts_per_query"] = attempts / q;
  v["robust.errors_corrected"] = corrected / q;

  for (const auto& [name, value] : run.probes) v[name] = value;
  v["bignum.modexp_attr_s"] = v["bignum.modexp"] * v["bignum.modexp_ms"] * 1e-3;
  v["he.encrypt_attr_s"] = v["he.paillier_encrypt"] * v["he.encrypt_ms"] * 1e-3;
  v["he.decrypt_attr_s"] = v["he.paillier_decrypt"] * v["he.decrypt_ms"] * 1e-3;
  v["multiserver.answer_attr_s"] = answers / q * v["multiserver.answer_ms"] * 1e-3;
  v["field.bw_decode_attr_s"] = v["field.bw_decode"] * v["field.bw_decode_us"] * 1e-6;

  v["parallel.cpu_util"] = run.cpu_util;
  v["trace.ops_attributed"] = run.ops_attributed;
  v["trace.overhead_s"] = run.traced_p50_s - run.untraced_p50_s;
  return v;
}

}  // namespace perfbench
