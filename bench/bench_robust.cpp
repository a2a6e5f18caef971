// Experiment E8 — robust-mode overhead (fault-tolerant §3.1 protocols).
//
// The robust client provisions k = d + 1 + 2e + c servers to survive up to
// e Byzantine and c crashed servers (d = curve degree; see DESIGN.md "Fault
// model and robust reconstruction"). This bench measures what that
// redundancy costs against the exact-k baseline:
//   - extra servers (k - k0 for k0 = d + 1);
//   - communication delta, measured exactly by net::CommStats;
//   - wall time of the clean robust run and of a within-budget faulted run
//     (FaultPlan::random injects exactly e Byzantine + c unavailable
//     servers over a zero-latency SimStarNetwork) including Berlekamp-Welch
//     decoding and any retries.
//
// `--smoke` shrinks the database so CI can run the full flow in seconds.
// Emits BENCH_robust.json (see bench_util.h JsonReport) next to the tables.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench_util.h"
#include "net/adversary.h"
#include "net/fault.h"
#include "net/sim.h"
#include "obs/obs.h"
#include "pir/itpir.h"
#include "spfe/multiserver.h"

namespace {

using namespace spfe;

struct Budget {
  std::size_t e;
  std::size_t c;
};

constexpr Budget kBudgets[] = {{0, 0}, {1, 0}, {2, 0}, {2, 2}};

std::string delta_str(std::uint64_t bytes, std::uint64_t base) {
  if (bytes >= base) return "+" + bench::human_bytes(bytes - base);
  return "-" + bench::human_bytes(base - bytes);
}

std::uint64_t percentile_us(std::vector<std::uint64_t> xs, double q) {
  std::sort(xs.begin(), xs.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  if (rank > 0) --rank;
  return xs[std::min(rank, xs.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  bench::JsonReport json("robust");

  std::printf("== E8: robust-mode overhead (e Byzantine + c crashed servers)%s ==\n\n",
              smoke ? " (--smoke)" : "");
  const field::Fp64 field(field::Fp64::kMersenne61);
  const auto spir_seed = std::optional<crypto::Prg::Seed>(crypto::Prg::random_seed());

  // --- robust polynomial itPIR ----------------------------------------------
  const std::size_t pir_n = smoke ? 256 : 4096;
  const std::size_t t = 1;
  std::printf("--- PolyItPir (n = %zu, t = %zu): k = d+1+2e+c servers ---\n", pir_n, t);
  {
    std::vector<std::uint64_t> db(pir_n);
    for (std::size_t i = 0; i < pir_n; ++i) db[i] = i * 3 + 1;
    const std::size_t index = pir_n / 3;
    const std::size_t k0 = pir::PolyItPir::min_servers(pir_n, t);
    const std::size_t d = k0 - 1;  // l * t

    // Baseline: the plain (non-robust) run at the minimum server count.
    std::uint64_t base_bytes = 0;
    {
      const pir::PolyItPir p(field, pir_n, k0, t);
      net::StarNetwork net(k0);
      crypto::Prg prg("e8-itpir-base");
      const std::uint64_t got = p.run(net, db, index, spir_seed, prg);
      base_bytes = net.stats().total_bytes();
      if (got != db[index]) std::printf("BASELINE WRONG\n");
    }

    bench::Table table({"e", "c", "k", "extra srv", "comm", "vs k0", "rounds", "faulted comm",
                        "attempts", "erasures", "corrected", "clean ms", "faulted ms", "ok"});
    for (const Budget b : kBudgets) {
      const std::size_t k = d + 1 + 2 * b.e + b.c;
      const pir::PolyItPir p(field, pir_n, k, t);

      // Clean robust run: no faults, pure redundancy overhead.
      net::StarNetwork clean_net(k);
      crypto::Prg clean_prg("e8-itpir-clean");
      bench::Stopwatch clean_sw;
      const net::RobustResult clean = p.run_robust(clean_net, db, index, spir_seed, clean_prg);
      const double clean_ms = clean_sw.ms();

      // Within-budget faulted run: exactly e Byzantine + c unavailable.
      crypto::Prg plan_prg("e8-itpir-plan");
      const net::FaultPlan plan = net::FaultPlan::random(plan_prg, k, b.e, b.c);
      net::SimStarNetwork faulty_net(k, net::SimConfig{}, plan);
      crypto::Prg fault_prg("e8-itpir-fault");
      bench::Stopwatch fault_sw;
      const net::RobustResult faulted =
          p.run_robust(faulty_net, db, index, spir_seed, fault_prg);
      const double fault_ms = fault_sw.ms();

      const bool ok = clean.value == db[index] && faulted.value == db[index] &&
                      clean.report.success && faulted.report.success;
      table.add({std::to_string(b.e), std::to_string(b.c), std::to_string(k),
                 "+" + std::to_string(k - k0),
                 bench::human_bytes(clean_net.stats().total_bytes()),
                 delta_str(clean_net.stats().total_bytes(), base_bytes),
                 bench::rounds_str(clean_net.stats()),
                 bench::human_bytes(faulty_net.stats().total_bytes()),
                 bench::fmt_u(faulted.report.attempts), bench::fmt_u(faulted.report.erasures),
                 bench::fmt_u(faulted.report.errors_corrected), bench::fmt("%.2f", clean_ms),
                 bench::fmt("%.2f", fault_ms), ok ? "yes" : "WRONG"});
      const std::string tag = "e" + std::to_string(b.e) + "c" + std::to_string(b.c);
      json.add("itpir_robust_" + tag + "_clean", k, clean_ms * 1e6,
               clean_net.stats().total_bytes());
      json.add("itpir_robust_" + tag + "_faulted", k, fault_ms * 1e6,
               faulty_net.stats().total_bytes());
    }
    table.print();
  }

  // --- robust multi-server sum SPFE -----------------------------------------
  const std::size_t sum_n = smoke ? 256 : 1024;
  const std::size_t sum_m = 4;
  std::printf("\n--- MultiServerSumSpfe (n = %zu, m = %zu, t = %zu) ---\n", sum_n, sum_m, t);
  {
    std::vector<std::uint64_t> db(sum_n);
    crypto::Prg data_prg("e8-data");
    for (auto& v : db) v = data_prg.uniform(1u << 20);
    std::vector<std::size_t> indices;
    for (std::size_t j = 0; j < sum_m; ++j) indices.push_back((j * 7919 + 13) % sum_n);
    std::uint64_t expect = 0;
    for (const std::size_t i : indices) expect += db[i];
    const std::size_t k0 = protocols::MultiServerSumSpfe::min_servers(sum_n, t);
    const std::size_t d = k0 - 1;  // l * t

    std::uint64_t base_bytes = 0;
    {
      const protocols::MultiServerSumSpfe proto(field, sum_n, sum_m, k0, t);
      net::StarNetwork net(k0);
      crypto::Prg prg("e8-sum-base");
      const std::uint64_t got = proto.run(net, db, indices, spir_seed, prg);
      base_bytes = net.stats().total_bytes();
      if (got != expect) std::printf("BASELINE WRONG\n");
    }

    bench::Table table({"e", "c", "k", "extra srv", "comm", "vs k0", "rounds", "faulted comm",
                        "attempts", "erasures", "corrected", "clean ms", "faulted ms", "ok"});
    for (const Budget b : kBudgets) {
      const std::size_t k = d + 1 + 2 * b.e + b.c;
      const protocols::MultiServerSumSpfe proto(field, sum_n, sum_m, k, t);

      net::StarNetwork clean_net(k);
      crypto::Prg clean_prg("e8-sum-clean");
      bench::Stopwatch clean_sw;
      const net::RobustResult clean =
          proto.run_robust(clean_net, db, indices, spir_seed, clean_prg);
      const double clean_ms = clean_sw.ms();

      crypto::Prg plan_prg("e8-sum-plan");
      const net::FaultPlan plan = net::FaultPlan::random(plan_prg, k, b.e, b.c);
      net::SimStarNetwork faulty_net(k, net::SimConfig{}, plan);
      crypto::Prg fault_prg("e8-sum-fault");
      bench::Stopwatch fault_sw;
      const net::RobustResult faulted =
          proto.run_robust(faulty_net, db, indices, spir_seed, fault_prg);
      const double fault_ms = fault_sw.ms();

      const bool ok = clean.value == expect && faulted.value == expect &&
                      clean.report.success && faulted.report.success;
      table.add({std::to_string(b.e), std::to_string(b.c), std::to_string(k),
                 "+" + std::to_string(k - k0),
                 bench::human_bytes(clean_net.stats().total_bytes()),
                 delta_str(clean_net.stats().total_bytes(), base_bytes),
                 bench::rounds_str(clean_net.stats()),
                 bench::human_bytes(faulty_net.stats().total_bytes()),
                 bench::fmt_u(faulted.report.attempts), bench::fmt_u(faulted.report.erasures),
                 bench::fmt_u(faulted.report.errors_corrected), bench::fmt("%.2f", clean_ms),
                 bench::fmt("%.2f", fault_ms), ok ? "yes" : "WRONG"});
      const std::string tag = "e" + std::to_string(b.e) + "c" + std::to_string(b.c);
      json.add("sumspfe_robust_" + tag + "_clean", k, clean_ms * 1e6,
               clean_net.stats().total_bytes());
      json.add("sumspfe_robust_" + tag + "_faulted", k, fault_ms * 1e6,
               faulty_net.stats().total_bytes());
    }
    table.print();
  }

  std::printf("\nShape check: communication grows linearly in the extra servers 2e + c (each\n"
              "costs one query + one answer); decode stays sub-millisecond because\n"
              "Berlekamp-Welch solves a (d + e + 1)-square system once per attempt. A\n"
              "crashed server's answers never arrive, so faulted-run communication dips\n"
              "below the clean run at the same k.\n");

  // --- E9: virtual tail latency, hedged vs unhedged -------------------------
  // One chronically degraded replica (the classic production tail): every
  // message to or from server 2 straggles at 40x. The unhedged timed client
  // drains every queried channel before decoding, so each query eats the
  // degraded round trip; the hedged client declares the replica a straggler
  // after hedge_timeout_us, dispatches a spare, and decodes from the early
  // quorum. All latencies are VIRTUAL microseconds on the SimClock —
  // deterministic from the seeds, identical on any machine and at any
  // SPFE_THREADS — so the p99 gate below is exact, not flaky.
  const std::size_t tail_reps = smoke ? 60 : 400;
  std::printf("\n== E9: tail latency under a degraded replica (%zu queries, virtual us) ==\n\n",
              tail_reps);
  std::uint64_t hedged_p99 = 0;
  std::uint64_t unhedged_p99 = 0;
  bool tail_ok = true;
  {
    const std::size_t tail_n = smoke ? 256 : 4096;
    std::vector<std::uint64_t> db(tail_n);
    for (std::size_t i = 0; i < tail_n; ++i) db[i] = i * 5 + 7;
    const std::size_t k0 = pir::PolyItPir::min_servers(tail_n, t);
    const std::size_t spares = 4;
    const std::size_t k = k0 + spares;
    const pir::PolyItPir p(field, tail_n, k, t);
    const crypto::Prg meta("e9-tail");

    // Healthy replicas occasionally straggle mildly (1% per message, 3x);
    // replica 2 — a primary in both configurations — straggles always, 40x.
    std::vector<net::ServerProfile> profiles(k, net::ServerProfile{200, 100, 10, 3});
    profiles[2] = net::ServerProfile{200, 100, 1000, 40};

    auto percentile = [](std::vector<std::uint64_t> xs, double q) {
      std::sort(xs.begin(), xs.end());
      std::size_t rank =
          static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
      if (rank > 0) --rank;
      return xs[std::min(rank, xs.size() - 1)];
    };
    auto op_total = [](const spfe::obs::OpCounts& counts, spfe::obs::Op op) {
      return counts[static_cast<std::size_t>(op)];
    };

    struct TailRun {
      std::vector<std::uint64_t> completion_us;
      std::uint64_t hedges_sent = 0;
      std::uint64_t bytes = 0;
      bool ok = true;
    };
    auto run_mode = [&](bool hedged) {
      TailRun out;
      spfe::obs::Tracer::global().set_enabled(true);
      spfe::obs::Tracer::global().reset();
      for (std::size_t q = 0; q < tail_reps; ++q) {
        // Both modes replay the same per-query weather (same SimConfig seed).
        net::SimConfig cfg;
        cfg.seed = meta.fork_seed("net-" + std::to_string(q));
        cfg.profiles = profiles;
        net::SimStarNetwork net(k, cfg);
        net::RobustConfig rc;
        rc.timing.enabled = true;
        rc.timing.attempt_timeout_us = 50'000;
        rc.timing.hedge_timeout_us = hedged ? 600 : 0;
        rc.timing.hedge_spares = hedged ? spares : 0;
        rc.timing.backoff_seed = meta.fork_seed("backoff-" + std::to_string(q));
        crypto::Prg prg =
            meta.fork((hedged ? "proto-hedged-" : "proto-unhedged-") + std::to_string(q));
        const std::size_t index = (q * 7919 + 5) % tail_n;
        try {
          const net::RobustResult r = p.run_robust(net, db, index, spir_seed, prg, rc);
          if (r.value != db[index]) out.ok = false;
          out.completion_us.push_back(r.report.completion_us);
        } catch (const net::RobustProtocolError&) {
          out.ok = false;
          out.completion_us.push_back(rc.timing.attempt_timeout_us * rc.max_attempts);
        }
        out.bytes = net.stats().total_bytes();
      }
      out.hedges_sent =
          op_total(spfe::obs::Tracer::global().totals(), spfe::obs::Op::kHedgeSent);
      spfe::obs::Tracer::global().set_enabled(false);
      return out;
    };

    const TailRun unhedged = run_mode(false);
    const TailRun hedged = run_mode(true);
    tail_ok = unhedged.ok && hedged.ok;
    unhedged_p99 = percentile(unhedged.completion_us, 0.99);
    hedged_p99 = percentile(hedged.completion_us, 0.99);

    bench::Table table({"mode", "k", "spares", "p50 us", "p95 us", "p99 us", "hedges/query",
                        "exact"});
    table.add({"unhedged", std::to_string(k), "0",
               bench::fmt_u(percentile(unhedged.completion_us, 0.50)),
               bench::fmt_u(percentile(unhedged.completion_us, 0.95)),
               bench::fmt_u(unhedged_p99),
               bench::fmt("%.2f", static_cast<double>(unhedged.hedges_sent) /
                                      static_cast<double>(tail_reps)),
               unhedged.ok ? "yes" : "WRONG"});
    table.add({"hedged", std::to_string(k), std::to_string(spares),
               bench::fmt_u(percentile(hedged.completion_us, 0.50)),
               bench::fmt_u(percentile(hedged.completion_us, 0.95)),
               bench::fmt_u(hedged_p99),
               bench::fmt("%.2f", static_cast<double>(hedged.hedges_sent) /
                                      static_cast<double>(tail_reps)),
               hedged.ok ? "yes" : "WRONG"});
    table.print();

    json.add("itpir_tail_unhedged_p50", k,
             static_cast<double>(percentile(unhedged.completion_us, 0.50)) * 1e3,
             unhedged.bytes);
    json.add("itpir_tail_unhedged_p95", k,
             static_cast<double>(percentile(unhedged.completion_us, 0.95)) * 1e3,
             unhedged.bytes);
    json.add("itpir_tail_unhedged_p99", k, static_cast<double>(unhedged_p99) * 1e3,
             unhedged.bytes);
    json.add("itpir_tail_hedged_p50", k,
             static_cast<double>(percentile(hedged.completion_us, 0.50)) * 1e3, hedged.bytes);
    json.add("itpir_tail_hedged_p95", k,
             static_cast<double>(percentile(hedged.completion_us, 0.95)) * 1e3, hedged.bytes);
    json.add("itpir_tail_hedged_p99", k, static_cast<double>(hedged_p99) * 1e3, hedged.bytes);
  }

  // --- E10: adversarial overhead (within-budget consistent-lie coalition) ---
  // Same virtual-time rig as E9, but the threat is strategic rather than
  // environmental: one controlled server — within the provisioned e = 1
  // Byzantine budget — forges every answer onto P + delta, the consistent
  // lie no per-point check can see (net/adversary.h). Because the hedged
  // client's early-decode quorum is d + 1 + 2e, Berlekamp–Welch corrects
  // the lie inside the same attempt: soundness against the strategic liar
  // costs no retries, only the redundancy already provisioned. Both modes
  // replay the identical per-query latency weather (same SimConfig seeds),
  // so any p99 gap is attributable to the adversary alone.
  const std::size_t adv_reps = smoke ? 60 : 400;
  std::printf("\n== E10: adversarial overhead, hedged clean vs consistent-lie coalition "
              "(%zu queries, virtual us) ==\n\n",
              adv_reps);
  std::uint64_t adv_clean_p99 = 0;
  std::uint64_t adv_lie_p99 = 0;
  std::uint64_t adv_bound_us = 0;
  bool adv_ok = true;
  {
    const std::size_t adv_n = smoke ? 256 : 4096;
    std::vector<std::uint64_t> db(adv_n);
    for (std::size_t i = 0; i < adv_n; ++i) db[i] = i * 9 + 2;
    const std::size_t k0 = pir::PolyItPir::min_servers(adv_n, t);
    const std::size_t d = k0 - 1;
    const std::size_t e_budget = 1;
    const std::size_t spares = 2;
    const std::size_t k = net::provisioned_servers(d, e_budget, 0, spares);
    const pir::PolyItPir p(field, adv_n, k, t);
    const crypto::Prg meta("e10-adv");
    // Healthy fleet with mild occasional straggle — the adversary, not the
    // weather, should be the story here.
    const std::vector<net::ServerProfile> profiles(k, net::ServerProfile{200, 100, 10, 3});

    struct AdvRun {
      std::vector<std::uint64_t> completion_us;
      std::uint64_t attempts = 0;
      std::uint64_t corrected = 0;
      std::uint64_t forged = 0;
      std::uint64_t bytes = 0;
      bool exact = true;
    };
    auto run_mode = [&](bool lie) {
      AdvRun out;
      for (std::size_t q = 0; q < adv_reps; ++q) {
        net::SimConfig cfg;
        cfg.seed = meta.fork_seed("net-" + std::to_string(q));  // same weather both modes
        cfg.profiles = profiles;
        net::SimStarNetwork net(k, cfg);
        std::optional<net::AdversaryEngine> engine;
        if (lie) {
          engine.emplace(
              std::make_shared<net::ConsistentLieStrategy>(field.modulus(), 424242),
              std::vector<std::size_t>{0});
          net.set_adversary(&*engine);
        }
        net::RobustConfig rc;
        rc.timing.enabled = true;
        rc.timing.attempt_timeout_us = 50'000;
        rc.timing.hedge_timeout_us = 600;
        rc.timing.hedge_spares = spares;
        rc.timing.byzantine_budget = e_budget;
        rc.timing.backoff_seed = meta.fork_seed("backoff-" + std::to_string(q));
        adv_bound_us = rc.timing.attempt_timeout_us + rc.timing.backoff_max_us;
        crypto::Prg prg =
            meta.fork((lie ? "proto-lie-" : "proto-clean-") + std::to_string(q));
        const std::size_t index = (q * 6133 + 11) % adv_n;
        try {
          const net::RobustResult r = p.run_robust(net, db, index, spir_seed, prg, rc);
          if (r.value != db[index]) out.exact = false;
          out.completion_us.push_back(r.report.completion_us);
          out.attempts += r.report.attempts;
          out.corrected += r.report.errors_corrected;
        } catch (const net::RobustProtocolError&) {
          out.exact = false;
          out.completion_us.push_back(rc.timing.attempt_timeout_us * rc.max_attempts);
        }
        if (engine.has_value()) out.forged += engine->total_stats().answers_forged;
        out.bytes = net.stats().total_bytes();
      }
      return out;
    };

    const AdvRun clean = run_mode(false);
    const AdvRun lied = run_mode(true);
    adv_clean_p99 = percentile_us(clean.completion_us, 0.99);
    adv_lie_p99 = percentile_us(lied.completion_us, 0.99);
    adv_ok = clean.exact && lied.exact && lied.forged > 0 && lied.corrected > 0;

    bench::Table table({"mode", "k", "e", "p50 us", "p95 us", "p99 us", "attempts/query",
                        "forged", "corrected", "exact"});
    table.add({"clean", std::to_string(k), std::to_string(e_budget),
               bench::fmt_u(percentile_us(clean.completion_us, 0.50)),
               bench::fmt_u(percentile_us(clean.completion_us, 0.95)),
               bench::fmt_u(adv_clean_p99),
               bench::fmt("%.2f",
                          static_cast<double>(clean.attempts) / static_cast<double>(adv_reps)),
               bench::fmt_u(clean.forged), bench::fmt_u(clean.corrected),
               clean.exact ? "yes" : "WRONG"});
    table.add({"consistent-lie", std::to_string(k), std::to_string(e_budget),
               bench::fmt_u(percentile_us(lied.completion_us, 0.50)),
               bench::fmt_u(percentile_us(lied.completion_us, 0.95)),
               bench::fmt_u(adv_lie_p99),
               bench::fmt("%.2f",
                          static_cast<double>(lied.attempts) / static_cast<double>(adv_reps)),
               bench::fmt_u(lied.forged), bench::fmt_u(lied.corrected),
               lied.exact ? "yes" : "WRONG"});
    table.print();

    json.add("itpir_adv_clean_p50", k,
             static_cast<double>(percentile_us(clean.completion_us, 0.50)) * 1e3, clean.bytes);
    json.add("itpir_adv_clean_p99", k, static_cast<double>(adv_clean_p99) * 1e3, clean.bytes);
    json.add("itpir_adv_lie_p50", k,
             static_cast<double>(percentile_us(lied.completion_us, 0.50)) * 1e3, lied.bytes);
    json.add("itpir_adv_lie_p99", k, static_cast<double>(adv_lie_p99) * 1e3, lied.bytes);
  }

  json.write();

  // CI gate: hedging must at least halve the p99 (and every query must have
  // decoded the exact value). Virtual time makes this deterministic.
  const bool gate_ok = tail_ok && hedged_p99 * 2 <= unhedged_p99;
  std::printf("\nE9 gate: hedged p99 %llu us x2 %s unhedged p99 %llu us%s — %s\n",
              static_cast<unsigned long long>(hedged_p99), gate_ok ? "<=" : ">",
              static_cast<unsigned long long>(unhedged_p99),
              tail_ok ? "" : " (and a query decoded a WRONG value)",
              gate_ok ? "PASS" : "FAIL");
  // E10 gate: a within-budget consistent-lie coalition may cost at most one
  // extra attempt (timeout + max backoff) of hedged p99 — and must never
  // push the client off the exact value. In practice Berlekamp–Welch
  // corrects the lie in-attempt and the two runs' virtual times coincide.
  const bool adv_gate_ok = adv_ok && adv_lie_p99 <= adv_clean_p99 + adv_bound_us;
  std::printf("E10 gate: consistent-lie p99 %llu us %s clean p99 %llu us + %llu us bound%s — %s\n",
              static_cast<unsigned long long>(adv_lie_p99), adv_gate_ok ? "<=" : ">",
              static_cast<unsigned long long>(adv_clean_p99),
              static_cast<unsigned long long>(adv_bound_us),
              adv_ok ? "" : " (exactness/forgery-correction check FAILED)",
              adv_gate_ok ? "PASS" : "FAIL");
  return (gate_ok && adv_gate_ok) ? 0 : 1;
}
