// Golden replay of the Paillier-heavy single-server protocols.
//
// tests/data/paillier_goldens.txt holds SHA-256 digests of the bytes these
// runs put on the wire, recorded before Paillier encryption factors were
// computed in batches: PaillierPir queries and answers at depths 1-3 with
// 512- and 768-bit keys, one MeanVariancePackage / WeightedSumProtocol /
// FrequencyProtocol transcript each, and one run of every Table 1 row. Each
// run replays at SPFE_THREADS 1 and 8 against the same digest, so a golden
// also pins thread-count invariance.
//
// The file also records each run's obs op totals (name=count pairs). The
// replay expects them unchanged except for one documented saving: the last
// cPIR fold level now folds its encrypt(0) blinder and its
// rerandomization into a single factor (r1 r2)^N, so every
// paillier_rerandomize the recorded run did disappears, together with one
// modexp each.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/boolean_circuit.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "crypto/sha256.h"
#include "fault_goldens.h"
#include "kernel_arms.h"
#include "field/fp64.h"
#include "he/paillier.h"
#include "net/network.h"
#include "obs/obs.h"
#include "ot/group.h"
#include "pir/cpir.h"
#include "pir_reference.h"
#include "spfe/psm_spfe.h"
#include "spfe/stats.h"
#include "spfe/two_phase.h"

namespace spfe {
namespace {

using common::ThreadPool;
using goldens::expect_golden;

using RecordedNet = goldens::RecordingNet<net::StarNetwork>;

// Keys are generated once per process from fixed seeds.
const he::PaillierPrivateKey& key(const char* seed, std::size_t bits) {
  static std::map<std::string, he::PaillierPrivateKey> keys;
  const std::string name = std::string(seed) + "/" + std::to_string(bits);
  auto it = keys.find(name);
  if (it == keys.end()) {
    crypto::Prg prg(name);
    it = keys.emplace(name, he::paillier_keygen(prg, bits)).first;
  }
  return it->second;
}

std::string hex_digest(BytesView data) {
  crypto::Sha256 h;
  h.update(data);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : h.finish()) {
    out += kHex[b >> 4];
    out += kHex[b & 0x0F];
  }
  return out;
}

// Digest of a protocol run: its output, CommStats and send transcript.
std::string transcript_digest(const RecordedNet& net, const std::vector<std::uint64_t>& output) {
  Writer w;
  w.u64(output.size());
  for (const std::uint64_t v : output) w.u64(v);
  const net::CommStats& st = net.stats();
  w.u64(st.client_to_server_bytes);
  w.u64(st.server_to_client_bytes);
  w.u64(st.client_to_server_messages);
  w.u64(st.server_to_client_messages);
  w.u64(st.half_rounds);
  w.u64(net.log.size());
  for (const auto& [channel, message] : net.log) {
    w.u64(channel);
    w.bytes(message);
  }
  return hex_digest(w.take());
}

// Runs `run` with op metering on and returns the op totals it consumed.
obs::OpCounts metered(const std::function<void()>& run) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.reset();
  run();
  const obs::OpCounts totals = tracer.totals();
  tracer.set_enabled(false);
  tracer.reset();
  return totals;
}

std::string format_ops(const obs::OpCounts& ops) {
  std::string out;
  for (std::size_t i = 0; i < obs::kNumOps; ++i) {
    if (ops[i] == 0) continue;
    if (!out.empty()) out += ',';
    out += obs::op_name(static_cast<obs::Op>(i));
    out += '=' + std::to_string(ops[i]);
  }
  return out;
}

std::map<std::string, std::uint64_t> parse_ops(const std::string& text) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream in(text);
  std::string field;
  while (std::getline(in, field, ',')) {
    const std::size_t eq = field.find('=');
    out[field.substr(0, eq)] = std::stoull(field.substr(eq + 1));
  }
  return out;
}

// Compares a run's op totals with the recorded ones, allowing exactly the
// last-fold-level saving described in the file comment: of the recorded
// paillier_rerandomize count only `kept` (those done outside cPIR) remain,
// and modexp falls by the number merged.
void expect_golden_ops(const std::string& name, const obs::OpCounts& ops,
                       std::uint64_t kept = 0) {
  const auto& recorded = goldens::recorded_goldens();
  const auto it = recorded.find(name);
  if (it == recorded.end()) {
    ADD_FAILURE() << "no recorded golden: " << name << " " << format_ops(ops);
    return;
  }
  std::map<std::string, std::uint64_t> expect = parse_ops(it->second);
  const std::uint64_t merged = expect["paillier_rerandomize"] - kept;
  expect["modexp"] -= merged;
  expect["paillier_rerandomize"] = kept;
  if (kept == 0) expect.erase("paillier_rerandomize");
  std::map<std::string, std::uint64_t> actual = parse_ops(format_ops(ops));
  EXPECT_EQ(actual, expect) << name << ": op totals differ from the recorded run";
}

// The two thread counts every golden replays at, on both kernel arms
// (kernel_arms.h): the "Threads" instantiation on the lane arm, the
// "PortableArm" one on the portable arm.
class PaillierGoldenTest : public arms::ArmTest<std::size_t> {
 protected:
  void SetUp() override {
    ArmTest::SetUp();
    ThreadPool::set_global_threads(GetParam());
  }
  void TearDown() override { ThreadPool::set_global_threads(0); }
};

TEST_P(PaillierGoldenTest, PaillierPirQueriesAndAnswers) {
  for (const std::size_t bits : {512, 768}) {
    const he::PaillierPrivateKey& sk = key("golden-pir", bits);
    for (const std::size_t depth : {1, 2, 3}) {
      const std::string name = "pir/" + std::to_string(bits) + "/d" + std::to_string(depth);
      constexpr std::size_t kN = 40;
      std::vector<std::uint64_t> db(kN);
      for (std::size_t i = 0; i < kN; ++i) db[i] = i * 7919 + 11;
      const pir::PaillierPir pir(sk.public_key(), kN, depth);
      crypto::Prg client_prg(name + "/client"), server_prg(name + "/server");
      pir::PaillierPir::ClientState state;
      Bytes query, answer;
      const obs::OpCounts ops = metered([&] {
        query = pir.make_query(17, state, sk, client_prg);
        answer = pir.answer_u64(db, query, server_prg);
      });
      expect_golden(name + "/query", hex_digest(query));
      expect_golden(name + "/answer", hex_digest(answer));
      expect_golden_ops(name + "/ops", ops);
      EXPECT_EQ(pir.decode_u64(sk, answer), db[17]);

      // The reference fold consumes the PRG identically.
      crypto::Prg naive_prg(name + "/server");
      EXPECT_EQ(reference::naive_answer_u64(pir, db, query, naive_prg), answer) << name;
    }
    // Byte items wider than one plaintext chunk.
    const std::string name = "pir/" + std::to_string(bits) + "/bytes-d2";
    const std::size_t item_bytes = 2 * bits / 8;
    std::vector<Bytes> db(12, Bytes(item_bytes));
    for (std::size_t i = 0; i < db.size(); ++i) {
      for (std::size_t b = 0; b < item_bytes; ++b) db[i][b] = static_cast<std::uint8_t>(i * 31 + b);
    }
    const pir::PaillierPir pir(sk.public_key(), db.size(), 2);
    crypto::Prg client_prg(name + "/client"), server_prg(name + "/server");
    pir::PaillierPir::ClientState state;
    Bytes query, answer;
    const obs::OpCounts ops = metered([&] {
      query = pir.make_query(5, state, sk, client_prg);
      answer = pir.answer_bytes(db, item_bytes, query, server_prg);
    });
    expect_golden(name + "/query", hex_digest(query));
    expect_golden(name + "/answer", hex_digest(answer));
    expect_golden_ops(name + "/ops", ops);
    EXPECT_EQ(pir.decode_bytes(sk, item_bytes, answer), db[5]);
  }
}

TEST_P(PaillierGoldenTest, StatisticsTranscripts) {
  constexpr std::size_t kN = 256, kM = 4;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 97 + 13) % 1000;
  const std::vector<std::size_t> indices = {3, 77, 150, 255};
  const field::Fp64 field(field::smallest_prime_above(1u << 22));
  // Keygen stays outside the metered runs.
  const he::PaillierPrivateKey& client_768 = key("golden-client", 768);
  const he::PaillierPrivateKey& client_512 = key("golden-client", 512);
  const he::PaillierPrivateKey& server_512 = key("golden-server", 512);

  {  // §4 mean + variance at the survey's key size.
    const protocols::MeanVariancePackage proto(field, kN, kM, 2);
    crypto::Prg client_prg("golden-mv-client"), server_prg("golden-mv-server");
    RecordedNet net(1);
    protocols::MeanVarianceResult res;
    const obs::OpCounts ops = metered([&] {
      res = proto.run(net, 0, db, indices, client_768, client_prg, server_prg);
    });
    expect_golden("stats/mean-variance", transcript_digest(net, {res.sum, res.sum_of_squares}));
    expect_golden_ops("stats/mean-variance/ops", ops);
  }
  {
    const protocols::WeightedSumProtocol proto(field, kN, kM, 2);
    crypto::Prg client_prg("golden-ws-client"), server_prg("golden-ws-server");
    RecordedNet net(1);
    std::uint64_t res = 0;
    const obs::OpCounts ops = metered([&] {
      res = proto.run(net, 0, db, indices, {1, 2, 3, 4}, client_512, client_prg, server_prg);
    });
    expect_golden("stats/weighted-sum", transcript_digest(net, {res}));
    expect_golden_ops("stats/weighted-sum/ops", ops);
  }
  {
    const protocols::FrequencyProtocol proto(field, kN, kM,
                                             protocols::SelectionMethod::kPerItem, 2);
    crypto::Prg client_prg("golden-freq-client"), server_prg("golden-freq-server");
    RecordedNet net(1);
    std::size_t res = 0;
    const obs::OpCounts ops = metered([&] {
      res = proto.run(net, 0, db, indices, db[77], client_512, server_512, client_prg,
                      server_prg);
    });
    EXPECT_GE(res, 1u);
    expect_golden("stats/frequency", transcript_digest(net, {res}));
    // Phase 2 rerandomizes each of the m server ciphertexts.
    expect_golden_ops("stats/frequency/ops", ops, kM);
  }
}

// One run of each Table 1 row (bench_table1's rows, the GM ablation too)
// at a reduced database size.
TEST_P(PaillierGoldenTest, TableOneRows) {
  constexpr std::size_t kN = 256, kM = 3, kItemBits = 8;
  constexpr std::uint64_t kKeyword = 7;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 131 + 3) % 256;
  const std::vector<std::size_t> indices = {4, 100, 200};
  db[100] = kKeyword;
  const he::PaillierPrivateKey& client_sk = key("golden-client", 512);
  const he::PaillierPrivateKey& server_sk = key("golden-server", 512);
  const ot::SchnorrGroup group = ot::SchnorrGroup::rfc_like_512();
  crypto::Prg gm_prg("golden-gm-key");
  const he::GmPrivateKey gm_sk = he::gm_keygen(gm_prg, 512);

  const auto body = [&](circuits::BooleanCircuit& c,
                        const std::vector<circuits::WireBundle>& items) {
    std::vector<circuits::WireId> matches;
    for (const auto& item : items) matches.push_back(circuits::build_eq_const(c, item, kKeyword));
    c.add_outputs(circuits::build_popcount(c, matches));
  };
  circuits::BooleanCircuit psm_circuit(kM * kItemBits);
  {
    std::vector<circuits::WireBundle> items(kM);
    for (std::size_t j = 0; j < kM; ++j) {
      for (std::size_t b = 0; b < kItemBits; ++b) {
        items[j].push_back(psm_circuit.input(j * kItemBits + b));
      }
    }
    body(psm_circuit, items);
  }

  const auto run_row = [&](const std::string& name,
                           const std::function<std::vector<bool>(net::StarNetwork&, crypto::Prg&,
                                                                 crypto::Prg&)>& row) {
    crypto::Prg client_prg("golden-" + name + "-client");
    crypto::Prg server_prg("golden-" + name + "-server");
    RecordedNet net(1);
    std::vector<bool> bits;
    const obs::OpCounts ops = metered([&] { bits = row(net, client_prg, server_prg); });
    std::uint64_t count = 0;
    for (std::size_t b = 0; b < bits.size(); ++b) count |= std::uint64_t{bits[b]} << b;
    EXPECT_EQ(count, 1u) << name;
    expect_golden("table1/" + name, transcript_digest(net, {count}));
    expect_golden_ops("table1/" + name + "/ops", ops);
  };

  run_row("3.2-psm", [&](net::StarNetwork& net, crypto::Prg& c, crypto::Prg& s) {
    const protocols::PsmYaoSpfeSingleServer proto(client_sk.public_key(), psm_circuit, kN, kM,
                                                  kItemBits, 2);
    return proto.run(net, db, indices, client_sk, c, s);
  });
  const std::pair<const char*, protocols::SelectionMethod> methods[] = {
      {"3.3.1-per-item", protocols::SelectionMethod::kPerItem},
      {"3.3.2-client-key", protocols::SelectionMethod::kPolyMaskClientKey},
      {"3.3.2-server-key", protocols::SelectionMethod::kPolyMaskServerKey},
      {"3.3.3-encrypted-db", protocols::SelectionMethod::kEncryptedDb},
  };
  for (const auto& [name, method] : methods) {
    run_row(name, [&](net::StarNetwork& net, crypto::Prg& c, crypto::Prg& s) {
      return protocols::run_two_phase_boolean(net, 0, db, indices, kItemBits, method, body,
                                              client_sk, server_sk, group, 2, c, s);
    });
  }
  run_row("3.3.3-gm", [&](net::StarNetwork& net, crypto::Prg& c, crypto::Prg& s) {
    return protocols::run_two_phase_boolean_gm(net, 0, db, indices, kItemBits, body, gm_sk,
                                               client_sk, group, 2, c, s);
  });
}

std::string threads_name(const ::testing::TestParamInfo<std::size_t>& param) {
  return "Threads" + std::to_string(param.param);
}

INSTANTIATE_TEST_SUITE_P(Threads, PaillierGoldenTest, ::testing::Values(1, 8), threads_name);
INSTANTIATE_TEST_SUITE_P(PortableArm, PaillierGoldenTest, ::testing::Values(1, 8), threads_name);

}  // namespace
}  // namespace spfe
