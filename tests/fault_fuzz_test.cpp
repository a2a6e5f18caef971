// Seeded fault-schedule fuzz sweep over the robust multi-server protocols
// (ctest label: fault-fuzz).
//
// For every (e, c) budget in {0,1,2}^2 the client is provisioned with
// k = d + 1 + 2e + c servers and run against many random `FaultPlan`s with
// <= e Byzantine and <= c unavailable servers: the result must equal the
// honest output exactly and the network must drain back to idle. Plans
// beyond the budget must yield either the exact honest output (when enough
// corruptions happen to be *detected*, which makes them cheap erasures) or a
// typed RobustProtocolError — never a wrong value, never a foreign
// exception, never a hang. A zero-fault plan must be byte-identical to the
// plain `run()` transcript. Every sweep run, plus the other untimed robust
// runs of the suite, also replays its recorded golden digest
// (fault_goldens.h).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "circuits/formula.h"
#include "common/serialize.h"
#include "crypto/prg.h"
#include "fault_goldens.h"
#include "field/fp64.h"
#include "net/adversary.h"
#include "net/fault.h"
#include "net/robust.h"
#include "net/sim.h"
#include "pir/itpir.h"
#include "spfe/multiserver.h"

namespace {

using spfe::Bytes;
using spfe::crypto::Prg;
using spfe::field::Fp64;
using namespace spfe::net;
using spfe::goldens::make_golden_net;
using spfe::goldens::RecordingNet;
using spfe::goldens::RunDigest;
using spfe::goldens::expect_golden;

// One protocol family at a fixed degree d; `run` builds a k-server instance
// and drives it robustly over `net`.
struct ProtocolCase {
  std::string name;
  std::size_t degree;
  std::function<RobustResult(std::size_t k, StarNetwork& net, Prg& prg)> run;
  std::uint64_t expected;
};

std::vector<std::uint64_t> test_database(std::size_t n, bool bits) {
  std::vector<std::uint64_t> db(n);
  for (std::size_t i = 0; i < n; ++i) db[i] = bits ? (i * 7 + 1) % 2 : i * i + 3;
  return db;
}

std::vector<ProtocolCase> make_protocol_cases() {
  const Fp64 field(Fp64::kMersenne61);
  std::vector<ProtocolCase> cases;

  {
    // Sum SPFE: n = 64 (l = 6), t = 1, d = l*t = 6.
    const auto db = test_database(64, /*bits=*/false);
    const std::vector<std::size_t> indices = {5, 41};
    const std::uint64_t expected = field.add(db[5], db[41]);
    cases.push_back({"sum-spfe", 6,
                     [field, db, indices](std::size_t k, StarNetwork& net, Prg& prg) {
                       const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);
                       const auto seed = prg.fork_seed("spir");
                       return proto.run_robust(net, db, indices, seed, prg);
                     },
                     expected});
  }
  {
    // Formula SPFE: phi = x0 & x1, n = 16 (l = 4), t = 1, d = 2*l = 8.
    const auto db = test_database(16, /*bits=*/true);
    const std::vector<std::size_t> indices = {3, 8};
    const std::uint64_t expected = db[3] & db[8];
    cases.push_back({"formula-spfe", 8,
                     [field, db, indices](std::size_t k, StarNetwork& net, Prg& prg) {
                       const spfe::protocols::MultiServerFormulaSpfe proto(
                           field, spfe::circuits::Formula::parse("x0 & x1"), 16, k, 1);
                       const auto seed = prg.fork_seed("spir");
                       return proto.run_robust(net, db, indices, seed, prg);
                     },
                     expected});
  }
  {
    // Polynomial itPIR/SPIR: n = 64 (l = 6), t = 1, d = 6.
    const auto db = test_database(64, /*bits=*/false);
    const std::size_t index = 23;
    cases.push_back({"poly-itpir", 6,
                     [field, db, index](std::size_t k, StarNetwork& net, Prg& prg) {
                       const spfe::pir::PolyItPir proto(field, 64, k, 1);
                       const auto seed = prg.fork_seed("spir");
                       return proto.run_robust(net, db, index, seed, prg);
                     },
                     db[index]});
  }
  return cases;
}

// Built once: FuzzRun points into it.
const std::vector<ProtocolCase>& protocol_cases() {
  static const std::vector<ProtocolCase> kCases = make_protocol_cases();
  return kCases;
}

// One seeded robust run of a sweep: a protocol, its provisioning, a fault
// plan, and the protocol randomness. `group` names the golden digest the
// run is folded into (tests/data/fault_goldens.txt).
struct FuzzRun {
  std::string group;
  std::string label;
  const ProtocolCase* pc;
  std::size_t k;
  FaultPlan plan;
  Prg proto_prg;
};

// Every plan within the provisioned e/c budget, 12 per budget.
std::vector<FuzzRun> within_budget_runs(const std::string& seed) {
  const Prg meta("within-" + seed);
  std::vector<FuzzRun> runs;
  for (const ProtocolCase& pc : protocol_cases()) {
    for (std::size_t e = 0; e <= 2; ++e) {
      for (std::size_t c = 0; c <= 2; ++c) {
        const std::size_t k = pc.degree + 1 + 2 * e + c;
        for (std::size_t rep = 0; rep < 12; ++rep) {
          const std::string label = pc.name + "-" + std::to_string(e) + "-" + std::to_string(c) +
                                    "-" + std::to_string(rep);
          Prg plan_prg = meta.fork("plan-" + label);
          runs.push_back({pc.name + "/e" + std::to_string(e) + "c" + std::to_string(c), label,
                          &pc, k, FaultPlan::random(plan_prg, k, e, c),
                          meta.fork("proto-" + label)});
        }
      }
    }
  }
  return runs;
}

// Plans beyond the budget. Crash overloads are deterministic failures.
// Byzantine overloads are chosen so that no erasure/silent-lie split leaves
// exactly d+1 survivors with a liar among them: d+1 points are always
// consistent, so such a lie is undetectable by ANY decoder (coding-theory
// bound, see DESIGN.md) — it is excluded here by keeping
// inj_b + inj_u <= k - d - 1 while 2*inj_b + inj_u still blows the unit
// budget.
std::vector<FuzzRun> beyond_budget_runs(const std::string& seed) {
  const Prg meta("beyond-" + seed);
  struct Overload {
    std::size_t prov_e, prov_c;  // provisioned budget
    std::size_t inj_b, inj_u;    // injected byzantine / unavailable servers
  };
  const std::vector<Overload> overloads = {
      {0, 0, 0, 1},  // crash with zero redundancy
      {0, 1, 0, 2},  // more crashes than provisioned
      {1, 0, 2, 0},  // more liars than provisioned
      {1, 1, 2, 1},  // both fault types, beyond the unit budget
  };
  std::vector<FuzzRun> runs;
  for (const ProtocolCase& pc : protocol_cases()) {
    for (const Overload& ov : overloads) {
      const std::size_t k = pc.degree + 1 + 2 * ov.prov_e + ov.prov_c;
      const std::string tag = "ov" + std::to_string(ov.inj_b) + std::to_string(ov.inj_u);
      for (std::size_t rep = 0; rep < 6; ++rep) {
        const std::string label = pc.name + "-" + tag + "-" + std::to_string(rep);
        Prg plan_prg = meta.fork("plan-" + label);
        runs.push_back({pc.name + "/" + tag, label, &pc, k,
                        FaultPlan::random(plan_prg, k, ov.inj_b, ov.inj_u),
                        meta.fork("proto-" + label)});
      }
    }
  }
  return runs;
}

// Handcrafted overwhelm: every server crashes right after its query.
std::vector<FuzzRun> total_crash_runs(const std::string& seed) {
  std::vector<FuzzRun> runs;
  for (const ProtocolCase& pc : protocol_cases()) {
    const std::size_t k = pc.degree + 1 + 2 + 1;  // e = 1, c = 1
    FaultPlan plan;
    for (std::size_t s = 0; s < k; ++s) plan.crash_after(s, 1);  // die after the query
    runs.push_back({pc.name, pc.name, &pc, k, std::move(plan), Prg("overwhelm-" + seed)});
  }
  return runs;
}

class FaultFuzzTest : public ::testing::TestWithParam<const char*> {};

// Every plan within the provisioned e/c budget must decode to the exact
// honest value and leave the network drained.
TEST_P(FaultFuzzTest, WithinBudgetAlwaysExact) {
  for (FuzzRun& run : within_budget_runs(GetParam())) {
    SimStarNetwork net(run.k, SimConfig{}, run.plan);
    RobustResult res;
    try {
      res = run.pc->run(run.k, net, run.proto_prg);
    } catch (const spfe::Error& err) {
      FAIL() << run.label << ": within-budget plan failed: " << err.what();
    }
    EXPECT_EQ(res.value, run.pc->expected) << run.label;
    EXPECT_TRUE(res.report.success) << run.label;
    EXPECT_EQ(res.report.servers, run.k) << run.label;
    EXPECT_TRUE(net.idle()) << run.label;
  }
}

// Plans beyond the budget: either the faults happened to be detectable
// enough to still decode (then the value must be the exact honest one), or
// the run ends in RobustProtocolError. Never a silently wrong value, never
// a non-spfe exception, never a hang.
TEST_P(FaultFuzzTest, BeyondBudgetNeverWrong) {
  for (FuzzRun& run : beyond_budget_runs(GetParam())) {
    SimStarNetwork net(run.k, SimConfig{}, run.plan);
    try {
      const RobustResult res = run.pc->run(run.k, net, run.proto_prg);
      EXPECT_EQ(res.value, run.pc->expected) << run.label << ": decoded a wrong value";
    } catch (const RobustProtocolError& err) {
      EXPECT_FALSE(err.report().success) << run.label;
      EXPECT_GE(err.report().attempts, 1u) << run.label;
      EXPECT_FALSE(err.report().failure_reason.empty()) << run.label;
    }
    // Anything else (foreign exception type) propagates and fails.
    EXPECT_TRUE(net.idle()) << run.label;
  }
}

// Total crash: the run must fail with a full diagnostic after exactly
// max_attempts tries.
TEST_P(FaultFuzzTest, TotalCrashGivesDiagnosticReport) {
  for (FuzzRun& run : total_crash_runs(GetParam())) {
    SimStarNetwork net(run.k, SimConfig{}, run.plan);
    try {
      run.pc->run(run.k, net, run.proto_prg);
      FAIL() << run.label << ": total crash must not decode";
    } catch (const RobustProtocolError& err) {
      const RobustnessReport& rep = err.report();
      EXPECT_FALSE(rep.success);
      EXPECT_EQ(rep.attempts, RobustConfig{}.max_attempts);
      EXPECT_EQ(rep.servers, run.k);
      EXPECT_EQ(rep.verdicts.size(), run.k);
      for (const ServerReport& v : rep.verdicts) {
        EXPECT_EQ(v.fate, ServerFate::kUnavailable) << run.label;
      }
      EXPECT_NE(std::string(err.what()).find("unavailable"), std::string::npos);
    }
    EXPECT_TRUE(net.idle()) << run.label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzzTest,
                         ::testing::Values("fuzz-seed-1", "fuzz-seed-2", "fuzz-seed-3"));

// ---------------------------------------------------------------------------
// Golden replay (fault_goldens.h): the sweeps above, the robust PolyItPir
// run of pir_test, the untimed adversary runs of adversary_test, and the
// bench_robust E8 fault plans, each reproducing the digest recorded over
// the untimed fault-injecting network.

class FaultGoldenReplayTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultGoldenReplayTest, FuzzSweepsReproduceRecordedRuns) {
  const std::string seed = GetParam();
  const std::pair<std::string, std::vector<FuzzRun>> sweeps[] = {
      {"within", within_budget_runs(seed)},
      {"beyond", beyond_budget_runs(seed)},
      {"total-crash", total_crash_runs(seed)},
  };
  for (const auto& [sweep, runs] : sweeps) {
    // Runs of one group are contiguous, so each digest absorbs them in order.
    std::map<std::string, RunDigest> digests;
    for (FuzzRun run : runs) {
      const auto net = make_golden_net(run.k, run.plan);
      digests[run.group].absorb_run(*net, [&] { return run.pc->run(run.k, *net, run.proto_prg); });
    }
    for (auto& [group, digest] : digests) {
      expect_golden("fuzz/" + sweep + "/" + seed + "/" + group, digest);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultGoldenReplayTest,
                         ::testing::Values("fuzz-seed-1", "fuzz-seed-2", "fuzz-seed-3"));

// pir_test's PolyItPirRobust.RunRobustSurvivesCrashAndLie.
TEST(FaultGoldenReplayTest, PirRobustRunReproducesRecordedRun) {
  const Fp64 field(Fp64::kMersenne61);
  const std::size_t k = spfe::pir::PolyItPir::min_servers(64, 1) + 3;
  const spfe::pir::PolyItPir pir(field, 64, k, 1);
  std::vector<std::uint64_t> db(64);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = (i * 31 + 7) % Fp64::kMersenne61;
  FaultPlan plan;
  plan.crash_after(2, 0);
  plan.add(Direction::kServerToClient, 6, 0, Fault{FaultKind::kCorruptByte, 1, 0x40, 0});
  const auto net = make_golden_net(k, plan);
  Prg prg("itpir-run-robust");
  const auto seed = prg.fork_seed("spir");
  RunDigest digest;
  digest.absorb_run(*net, [&] { return pir.run_robust(*net, db, 29, seed, prg); });
  expect_golden("pir/itpir-run-robust", digest);
}

// adversary_test's untimed runs: the over-budget liar coalition, the single
// corrected liar, the selective-failure privacy harness, and the leaky
// strawman.
TEST(FaultGoldenReplayTest, AdversaryRunsReproduceRecordedRuns) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64, /*bits=*/false);
  const std::vector<std::size_t> indices = {5, 41};
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, 9, 1);
  for (const auto& [name, liars, attempts] :
       {std::tuple<std::string, std::vector<std::size_t>, std::size_t>{"two-liars", {0, 1}, 3},
        {"one-liar", {0}, RobustConfig{}.max_attempts}}) {
    AdversaryEngine engine(std::make_shared<ConsistentLieStrategy>(field.modulus(), 987654321),
                           liars);
    const auto net = make_golden_net(9);
    net->set_adversary(&engine);
    RobustConfig rc;
    rc.max_attempts = attempts;
    Prg prg(name);
    const auto seed = prg.fork_seed("spir");
    RunDigest digest;
    digest.absorb_run(*net, [&] { return proto.run_robust(*net, db, indices, seed, prg, rc); });
    expect_golden("adversary/" + name, digest);
  }

  const spfe::pir::PolyItPir pir(field, 64, 7, 1);
  for (const std::size_t index : {0, 63, 5, 41}) {
    RunDigest digest;
    for (std::size_t t = 0; t < 300; ++t) {
      AdversaryEngine engine(
          std::make_shared<SelectiveFailureStrategy>(SelectiveFailureStrategy::byte_mask(0, 0x01),
                                                     AdversaryAction::drop()),
          {0});
      const auto net = make_golden_net(7);
      net->set_adversary(&engine);
      RobustConfig rc;
      rc.max_attempts = 10;
      Prg prg("sf-harness-" + std::to_string(t));
      digest.absorb_run(
          *net, [&] { return pir.run_robust(*net, db, index, std::nullopt, prg, rc); });
    }
    expect_golden("adversary/selective-failure-" + std::to_string(index), digest);
  }

  for (const std::uint8_t secret_bit : {0, 1}) {
    RunDigest digest;
    for (std::size_t t = 0; t < 16; ++t) {
      AdversaryEngine engine(
          std::make_shared<SelectiveFailureStrategy>(SelectiveFailureStrategy::byte_mask(0, 0x01),
                                                     AdversaryAction::drop()),
          {0});
      const auto net = make_golden_net(2);
      net->set_adversary(&engine);
      const auto make_queries = [&](std::size_t, std::vector<std::uint64_t>& abscissae) {
        abscissae = {1, 2};
        return std::vector<Bytes>{Bytes{secret_bit}, Bytes{secret_bit}};
      };
      const auto server_eval = [](std::size_t, std::size_t, Bytes) {
        spfe::Writer w;
        w.u64(42);
        return std::move(w).take();
      };
      const auto parse = [](const Bytes& a) {
        spfe::Reader r(a);
        const std::uint64_t v = r.u64();
        r.expect_done();
        return v;
      };
      digest.absorb_run(*net, [&] {
        auto [value, report] = run_robust_star(field, *net, /*degree=*/0, RobustConfig{},
                                               make_queries, server_eval, parse);
        return RobustResult{value, std::move(report)};
      });
    }
    expect_golden("adversary/leaky-" + std::to_string(secret_bit), digest);
  }
}

// bench_robust E8's within-budget fault plans, at the --smoke and the full
// database sizes (the bench draws a fresh SPIR seed per run; the replay
// pins one).
TEST(FaultGoldenReplayTest, BenchE8PlansReproduceRecordedRuns) {
  const Fp64 field(Fp64::kMersenne61);
  const auto spir_seed = Prg("e8-golden").fork_seed("spir");
  const std::size_t t = 1;
  struct Budget {
    std::size_t e, c;
  };
  const Budget budgets[] = {{0, 0}, {1, 0}, {2, 0}, {2, 2}};
  const auto tag = [](const Budget& b) {
    return "e" + std::to_string(b.e) + "c" + std::to_string(b.c);
  };

  for (const std::size_t n : {std::size_t{256}, std::size_t{4096}}) {
    std::vector<std::uint64_t> db(n);
    for (std::size_t i = 0; i < n; ++i) db[i] = i * 3 + 1;
    const std::size_t d = spfe::pir::PolyItPir::min_servers(n, t) - 1;
    for (const Budget& b : budgets) {
      const std::size_t k = d + 1 + 2 * b.e + b.c;
      const spfe::pir::PolyItPir p(field, n, k, t);
      Prg plan_prg("e8-itpir-plan");
      const auto net = make_golden_net(k, FaultPlan::random(plan_prg, k, b.e, b.c));
      Prg fault_prg("e8-itpir-fault");
      RunDigest digest;
      digest.absorb_run(*net, [&] { return p.run_robust(*net, db, n / 3, spir_seed, fault_prg); });
      expect_golden("e8/itpir-n" + std::to_string(n) + "-" + tag(b), digest);
    }
  }

  for (const std::size_t n : {std::size_t{256}, std::size_t{1024}}) {
    std::vector<std::uint64_t> db(n);
    Prg data_prg("e8-data");
    for (auto& v : db) v = data_prg.uniform(1u << 20);
    std::vector<std::size_t> indices;
    for (std::size_t j = 0; j < 4; ++j) indices.push_back((j * 7919 + 13) % n);
    const std::size_t d = spfe::protocols::MultiServerSumSpfe::min_servers(n, t) - 1;
    for (const Budget& b : budgets) {
      const std::size_t k = d + 1 + 2 * b.e + b.c;
      const spfe::protocols::MultiServerSumSpfe proto(field, n, 4, k, t);
      Prg plan_prg("e8-sum-plan");
      const auto net = make_golden_net(k, FaultPlan::random(plan_prg, k, b.e, b.c));
      Prg fault_prg("e8-sum-fault");
      RunDigest digest;
      digest.absorb_run(
          *net, [&] { return proto.run_robust(*net, db, indices, spir_seed, fault_prg); });
      expect_golden("e8/sumspfe-n" + std::to_string(n) + "-" + tag(b), digest);
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-fault transcript equivalence: run_robust over an empty FaultPlan must
// be byte-identical to the plain run() — same values, same metering, same
// per-channel message bytes in the same order.

TEST(ZeroFaultTranscriptTest, RobustRunMatchesPlainRunByteForByte) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64, /*bits=*/false);
  const std::vector<std::size_t> indices = {5, 41};
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, /*num_servers=*/7, 1);

  RecordingNet<StarNetwork> plain_net(proto.num_servers());
  Prg plain_prg("zero-fault-transcript");
  const auto plain_seed = plain_prg.fork_seed("spir");
  const std::uint64_t plain_value = proto.run(plain_net, db, indices, plain_seed, plain_prg);

  RecordingNet<SimStarNetwork> robust_net(proto.num_servers(), SimConfig{});
  Prg robust_prg("zero-fault-transcript");
  const auto robust_seed = robust_prg.fork_seed("spir");
  const RobustResult res = proto.run_robust(robust_net, db, indices, robust_seed, robust_prg);

  EXPECT_EQ(res.value, plain_value);
  EXPECT_TRUE(res.report.success);
  EXPECT_EQ(res.report.attempts, 1u);
  EXPECT_EQ(res.report.erasures, 0u);
  EXPECT_EQ(res.report.errors_corrected, 0u);

  // Metering identical.
  EXPECT_EQ(plain_net.stats().client_to_server_bytes, robust_net.stats().client_to_server_bytes);
  EXPECT_EQ(plain_net.stats().server_to_client_bytes, robust_net.stats().server_to_client_bytes);
  EXPECT_EQ(plain_net.stats().client_to_server_messages,
            robust_net.stats().client_to_server_messages);
  EXPECT_EQ(plain_net.stats().server_to_client_messages,
            robust_net.stats().server_to_client_messages);
  EXPECT_EQ(plain_net.stats().half_rounds, robust_net.stats().half_rounds);

  // Transcript identical, message by message.
  EXPECT_EQ(plain_net.log, robust_net.log);
}

TEST(ZeroFaultTranscriptTest, ItPirRobustRunMatchesPlainRun) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64, /*bits=*/false);
  const spfe::pir::PolyItPir proto(field, 64, 7, 1);

  RecordingNet<StarNetwork> plain_net(7);
  Prg plain_prg("itpir-zero-fault");
  const auto plain_seed = plain_prg.fork_seed("spir");
  const std::uint64_t plain_value = proto.run(plain_net, db, 23, plain_seed, plain_prg);
  EXPECT_EQ(plain_value, db[23]);

  RecordingNet<SimStarNetwork> robust_net(7, SimConfig{});
  Prg robust_prg("itpir-zero-fault");
  const auto robust_seed = robust_prg.fork_seed("spir");
  const RobustResult res = proto.run_robust(robust_net, db, 23, robust_seed, robust_prg);

  EXPECT_EQ(res.value, plain_value);
  EXPECT_EQ(plain_net.log, robust_net.log);
  EXPECT_EQ(plain_net.stats().half_rounds, robust_net.stats().half_rounds);
  EXPECT_EQ(plain_net.stats().total_bytes(), robust_net.stats().total_bytes());
}

}  // namespace
