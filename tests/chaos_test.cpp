// Chaos sweep over the virtual-time robust stack (ctest label: chaos).
//
// Thousands of seeded schedules — per-server latency profiles with jitter
// and stragglers, link outages, Byzantine/crash fault plans, hedged and
// unhedged timing policies — are replayed over the timed robust sum SPFE.
// Invariants, schedule by schedule:
//   * the run either decodes the exact honest value or throws the typed
//     RobustProtocolError — never a wrong value, never a hang;
//   * the network drains back to idle either way;
//   * the same schedule label replays to a byte-identical transcript (and
//     report) at every SPFE_THREADS setting;
//   * with timing disabled, a zero-latency SimStarNetwork reproduces the
//     recorded untimed robust runs (fault_goldens.h), and a slack timed run
//     is byte-identical to the untimed transcript;
//   * hedging beats head-of-line-blocking stragglers by >= 2x in virtual
//     completion time (the bench_robust exit-code gate, asserted here on a
//     deterministic schedule);
//   * a RobustStatsSession stays exact under the same weather while its
//     health tracker demotes the chronic straggler to hedge-spare duty.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "crypto/prg.h"
#include "fault_goldens.h"
#include "field/fp64.h"
#include "net/adversary.h"
#include "net/fault.h"
#include "net/robust.h"
#include "net/sim.h"
#include "obs/obs.h"
#include "spfe/multiserver.h"
#include "spfe/stats.h"

namespace {

using spfe::Bytes;
using spfe::common::ThreadPool;
using spfe::crypto::Prg;
using spfe::field::Fp64;
using namespace spfe::net;
namespace obs = spfe::obs;
using spfe::goldens::expect_golden;
using spfe::goldens::make_golden_net;
using spfe::goldens::RecordingNet;
using spfe::goldens::RunDigest;

std::vector<std::uint64_t> test_database(std::size_t n) {
  std::vector<std::uint64_t> db(n);
  for (std::size_t i = 0; i < n; ++i) db[i] = i * i + 3;
  return db;
}

struct Outcome {
  bool ok = false;
  std::uint64_t value = 0;
  std::string summary;
  std::vector<std::pair<std::size_t, Bytes>> log;
  CommStats stats;
};

// One complete timed robust run under the schedule derived from `label`:
// the label seeds the fault budget, the latency profiles, the outages, the
// fault plan, the timing policy, and the protocol randomness, so a label IS
// a schedule.
Outcome run_schedule(const std::string& label) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64);
  const std::vector<std::size_t> indices = {5, 41};

  Prg meta(label);
  const std::size_t e = meta.uniform(2);
  const std::size_t c = meta.uniform(2);
  const std::size_t spares = meta.uniform(3);
  const std::size_t k = provisioned_servers(6, e, c, spares);

  SimConfig cfg;
  cfg.seed = meta.fork_seed("latency");
  cfg.profiles.resize(k);
  for (auto& p : cfg.profiles) {
    p.base_us = 50 + meta.uniform(200);
    p.jitter_us = meta.uniform(150);
    p.straggle_permille = meta.uniform(200);
    p.straggle_factor = 5 + meta.uniform(30);
  }
  cfg.outages.resize(k);
  for (auto& windows : cfg.outages) {
    if (meta.uniform(4) == 0) {
      const std::uint64_t begin = meta.uniform(500);
      windows.push_back({begin, begin + 1 + meta.uniform(1000)});
    }
  }
  Prg plan_prg = meta.fork("plan");
  const FaultPlan plan = FaultPlan::random(plan_prg, k, e, c);

  RobustConfig rc;
  rc.max_attempts = 3;
  rc.timing.enabled = true;
  rc.timing.attempt_timeout_us = 30'000;
  rc.timing.byzantine_budget = e;  // trust no decode a lie could survive
  rc.timing.hedge_spares = spares;
  rc.timing.hedge_timeout_us = spares == 0 ? 0 : 300 + meta.uniform(700);
  rc.timing.backoff_seed = meta.fork_seed("backoff");

  // Adaptive adversary riding the same fault budget: content-aware lying
  // strategies may only drive servers the plan already charges as byzantine
  // (a forged answer costs the same two points as a wire-corrupted one);
  // silent/slow strategies may additionally drive the unavailable set (a
  // strategic drop or straggle is never worse than the crash already
  // budgeted for that server). Schedules with no faulty servers run clean.
  const auto adv_kind = static_cast<StrategyKind>(meta.uniform(kNumStrategyKinds));
  std::vector<std::size_t> adv_pool = plan.byzantine_servers();
  if (!strategy_lies(adv_kind)) {
    adv_pool.insert(adv_pool.end(), plan.unavailable_servers().begin(),
                    plan.unavailable_servers().end());
  }
  Prg strat_prg = meta.fork("strategy");
  std::optional<AdversaryEngine> engine;
  if (!adv_pool.empty()) {
    engine.emplace(make_strategy(adv_kind, field.modulus(), strat_prg), adv_pool);
  }

  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);
  RecordingNet<SimStarNetwork> net(k, cfg, plan);
  if (engine.has_value()) net.set_adversary(&*engine);
  Prg proto_prg = meta.fork("proto");
  const auto seed = proto_prg.fork_seed("spir");

  Outcome out;
  try {
    const RobustResult res = proto.run_robust(net, db, indices, seed, proto_prg, rc);
    out.ok = true;
    out.value = res.value;
    out.summary = res.report.summary();
    EXPECT_TRUE(res.report.success) << label;
  } catch (const RobustProtocolError& err) {
    out.summary = err.report().summary();
    EXPECT_FALSE(err.report().success) << label;
    EXPECT_FALSE(err.report().failure_reason.empty()) << label;
  }
  EXPECT_TRUE(net.idle()) << label;
  out.log = std::move(net.log);
  out.stats = net.stats();
  return out;
}

// ---------------------------------------------------------------------------

TEST(ChaosSweepTest, ThousandsOfSchedulesNeverWrongNeverHang) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64);
  const std::uint64_t expected = field.add(db[5], db[41]);
  constexpr std::size_t kSchedules = 2000;
  std::size_t successes = 0;
  for (std::size_t i = 0; i < kSchedules; ++i) {
    const std::string label = "chaos-" + std::to_string(i);
    const Outcome out = run_schedule(label);
    if (out.ok) {
      EXPECT_EQ(out.value, expected) << label << "\n" << out.summary;
      ++successes;
    }
  }
  // Deterministic count: most schedules stay inside the provisioned fault
  // budget and must decode despite the weather.
  EXPECT_GT(successes, kSchedules / 2)
      << "only " << successes << " of " << kSchedules << " schedules decoded";
}

// Same label => byte-identical transcript, stats, and report at any thread
// count: all schedule randomness is keyed, never sequenced through shared
// state, and spans/counters live off the transcript path.
TEST(ChaosSweepTest, TranscriptsAreThreadCountInvariant) {
  for (const char* label : {"chaos-7", "chaos-41", "chaos-113", "chaos-999"}) {
    ThreadPool::set_global_threads(1);
    const Outcome base = run_schedule(label);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      ThreadPool::set_global_threads(threads);
      const Outcome other = run_schedule(label);
      EXPECT_EQ(base.ok, other.ok) << label << " threads=" << threads;
      EXPECT_EQ(base.value, other.value) << label << " threads=" << threads;
      EXPECT_EQ(base.summary, other.summary) << label << " threads=" << threads;
      EXPECT_EQ(base.log, other.log) << label << " threads=" << threads;
      EXPECT_EQ(base.stats.client_to_server_bytes, other.stats.client_to_server_bytes);
      EXPECT_EQ(base.stats.server_to_client_bytes, other.stats.server_to_client_bytes);
      EXPECT_EQ(base.stats.half_rounds, other.stats.half_rounds);
    }
  }
  ThreadPool::set_global_threads(0);  // back to the SPFE_THREADS default
}

// ---------------------------------------------------------------------------
// Parity with the untimed robust path.

// Timing disabled: a zero-latency SimStarNetwork must reproduce, byte for
// byte, the runs recorded over the untimed fault-injecting network it
// replaced (tests/data/fault_goldens.txt), with virtual time standing still.
TEST(ChaosParityTest, UntimedSimMatchesFaultyNetworkByteForByte) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64);
  const std::vector<std::size_t> indices = {5, 41};
  const std::size_t k = provisioned_servers(6, 1, 0);
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);

  for (std::size_t rep = 0; rep < 8; ++rep) {
    const std::string label = "parity-" + std::to_string(rep);
    Prg plan_prg(label);
    const auto net = make_golden_net(k, FaultPlan::random(plan_prg, k, 1, 0));
    Prg prg("proto-" + label);
    const auto seed = prg.fork_seed("spir");
    RunDigest digest;
    digest.absorb_run(*net, [&] { return proto.run_robust(*net, db, indices, seed, prg); });
    expect_golden("chaos-parity/" + label, digest);
    EXPECT_EQ(net->clock().now_us(), 0u) << label;  // zero latency: time stands still
    EXPECT_TRUE(net->idle()) << label;
  }
}

// Timing enabled but slack (no faults, zero latency, hedging off, generous
// deadline): the timed driver must reproduce the untimed transcript exactly.
TEST(ChaosParityTest, SlackTimedPathMatchesUntimedTranscript) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64);
  const std::vector<std::size_t> indices = {5, 41};
  const std::size_t k = provisioned_servers(6, 1, 1);
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);

  RecordingNet<SimStarNetwork> untimed(k, SimConfig{});
  Prg prg_a("slack-timed");
  const auto seed_a = prg_a.fork_seed("spir");
  const RobustResult res_a = proto.run_robust(untimed, db, indices, seed_a, prg_a);

  RecordingNet<SimStarNetwork> timed(k, SimConfig{});
  RobustConfig rc;
  rc.timing.enabled = true;
  rc.timing.attempt_timeout_us = 1'000'000;
  Prg prg_b("slack-timed");
  const auto seed_b = prg_b.fork_seed("spir");
  const RobustResult res_b = proto.run_robust(timed, db, indices, seed_b, prg_b, rc);

  EXPECT_EQ(res_a.value, res_b.value);
  EXPECT_EQ(res_a.report.summary(), res_b.report.summary());
  EXPECT_EQ(untimed.log, timed.log);
  EXPECT_EQ(untimed.stats().half_rounds, timed.stats().half_rounds);
  EXPECT_EQ(untimed.stats().total_bytes(), timed.stats().total_bytes());
}

// ---------------------------------------------------------------------------
// Hedging vs head-of-line blocking (the bench_robust gate, deterministic).

TEST(ChaosHedgeTest, HedgingBeatsStragglersByTwoX) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64);
  const std::vector<std::size_t> indices = {5, 41};
  const std::size_t spares = 2;
  const std::size_t k = provisioned_servers(6, 0, 0, spares);
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);

  // Two chronic stragglers among the primaries; everyone else is fast.
  SimConfig cfg;
  cfg.seed = Prg("hedge-gate").fork_seed("latency");
  cfg.profiles.assign(k, ServerProfile{100, 0, 0, 20});
  for (const std::size_t s : {std::size_t{1}, std::size_t{4}}) {
    cfg.profiles[s].straggle_permille = 1000;
    cfg.profiles[s].straggle_factor = 500;  // 50ms per hop
  }

  const auto run_once = [&](std::uint64_t hedge_timeout_us) {
    SimStarNetwork net(k, cfg);
    RobustConfig rc;
    rc.timing.enabled = true;
    rc.timing.attempt_timeout_us = 300'000;
    rc.timing.hedge_timeout_us = hedge_timeout_us;
    rc.timing.hedge_spares = hedge_timeout_us == 0 ? 0 : spares;
    Prg prg("hedge-gate-run");
    const auto seed = prg.fork_seed("spir");
    const RobustResult res = proto.run_robust(net, db, indices, seed, prg, rc);
    EXPECT_EQ(res.value, field.add(db[5], db[41]));
    EXPECT_TRUE(net.idle());
    return res.report;
  };

  obs::Tracer::global().set_enabled(true);
  obs::Tracer::global().reset();
  const RobustnessReport unhedged = run_once(0);
  const obs::OpCounts after_unhedged = obs::Tracer::global().totals();
  const RobustnessReport hedged = run_once(500);
  const obs::OpCounts after_hedged = obs::Tracer::global().totals();
  obs::Tracer::global().set_enabled(false);

  // Unhedged: the client has no spares, so it waits out both stragglers.
  EXPECT_GE(unhedged.completion_us, 100'000u);
  EXPECT_EQ(unhedged.erasures, 0u);
  // Hedged: spares answer within ~2 hedge windows.
  EXPECT_EQ(hedged.erasures, 2u);
  EXPECT_EQ(hedged.verdicts[1].fate, ServerFate::kUnavailable);
  EXPECT_EQ(hedged.verdicts[4].fate, ServerFate::kUnavailable);
  // The gate bench_robust enforces by exit code, here exactly:
  EXPECT_LE(hedged.completion_us * 2, unhedged.completion_us)
      << "hedged " << hedged.completion_us << "us vs unhedged " << unhedged.completion_us
      << "us";

  const auto delta = [&](obs::Op op) {
    const std::size_t i = static_cast<std::size_t>(op);
    return after_hedged[i] - after_unhedged[i];
  };
  EXPECT_EQ(delta(obs::Op::kHedgeSent), 2u);
  EXPECT_EQ(delta(obs::Op::kHedgeWon), 2u);
  EXPECT_GE(delta(obs::Op::kDeadlineMiss), 2u);  // the stragglers' hedge misses
  EXPECT_EQ(after_unhedged[static_cast<std::size_t>(obs::Op::kHedgeSent)], 0u);
}

// ---------------------------------------------------------------------------
// Session-level workload: exactness under weather + health-driven demotion.

TEST(ChaosStatsSessionTest, MeanVarianceStaysExactAndStragglerIsDemoted) {
  const Fp64 field(Fp64::kMersenne61);
  std::vector<std::uint64_t> db(64);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = i + 1;  // p > m * max(x)^2
  const std::size_t spares = 1;
  const std::size_t k = provisioned_servers(6, 0, 0, spares);

  // Server 2 deterministically straggles 200x; the rest are fast and tight.
  SimConfig cfg;
  cfg.seed = Prg("stats-session").fork_seed("latency");
  cfg.profiles.assign(k, ServerProfile{100, 0, 0, 20});
  cfg.profiles[2].straggle_permille = 1000;
  cfg.profiles[2].straggle_factor = 200;
  SimStarNetwork net(k, cfg);

  spfe::protocols::RobustStatsConfig sc;
  sc.hedge_spares = spares;
  spfe::protocols::RobustStatsSession session(field, 64, 2, k, 1,
                                              Prg("stats-session").fork_seed("session"), sc);
  Prg seeder("stats-session-spir");

  for (std::size_t q = 0; q < 4; ++q) {
    const std::vector<std::size_t> indices = {(q * 3) % 64, (q * 5 + 7) % 64};
    RobustnessReport sum_report, squares_report;
    const auto res = session.mean_variance(net, db, indices,
                                           seeder.fork_seed("q" + std::to_string(q)),
                                           &sum_report, &squares_report);
    const std::uint64_t a = db[indices[0]], b = db[indices[1]];
    EXPECT_EQ(res.sum, a + b) << "query " << q;
    EXPECT_EQ(res.sum_of_squares, a * a + b * b) << "query " << q;
    const double mean = static_cast<double>(a + b) / 2.0;
    EXPECT_DOUBLE_EQ(res.mean, mean) << "query " << q;
    EXPECT_DOUBLE_EQ(res.variance, static_cast<double>(a * a + b * b) / 2.0 - mean * mean)
        << "query " << q;
    EXPECT_TRUE(sum_report.success);
    EXPECT_TRUE(squares_report.success);
    if (q == 0) {
      // First query: the straggler was still a primary; the spare rescued it.
      EXPECT_EQ(sum_report.verdicts[2].fate, ServerFate::kUnavailable);
    } else {
      // Demoted: the tracker moved server 2 to the tail, where it is the
      // hedge spare and is never queried while the healthy servers answer.
      EXPECT_EQ(sum_report.verdicts[2].fate, ServerFate::kSpare) << "query " << q;
      EXPECT_EQ(squares_report.verdicts[2].fate, ServerFate::kSpare) << "query " << q;
    }
  }

  EXPECT_EQ(session.queries_issued(), 8u);  // two robust sums per package
  EXPECT_GT(session.health().demerits(2), 0u);
  EXPECT_EQ(session.health().ranked_order().back(), 2u);
  EXPECT_TRUE(net.idle());
}

}  // namespace
