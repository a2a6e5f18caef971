// The three benchmark workloads. Each one exists to stress a different part
// of the stack (the same reasons are recorded in BENCHMARK.json):
//
//   survey_1s  The paper's motivating query: the §4 mean+variance package
//              over one server, as examples/private_salary_survey runs it
//              (cold client, 768-bit Paillier, cuckoo batch PIR at depth 2,
//              two threads). Nearly all of its time is bignum -> he -> pir,
//              with one large multi-exp fold per PIR level; the only workload
//              that runs common/parallel with more than one thread.
//   table1     One pass over the five Table 1 rows (the GM ablation row is
//              left out): the same layers at 512-bit keys, dominated by many
//              small byte-item folds whose per-cell encrypt(0) blinders
//              outnumber the fold itself, decrypt- and rerandomize-heavy
//              input selection, and the only Yao/OT/circuit work.
//   survey_ks  The same §4 statistic over k = 18 servers through
//              RobustStatsSession: no Paillier at all, only field arithmetic,
//              Berlekamp-Welch, virtual-time networking, hedging and one
//              consistently lying server. Every bignum/he/pir change must
//              leave it unchanged.
//
// Every input comes from the workload seed: the census column and public
// attributes, the cohort schedule, the keys, the client and server PRGs, the
// virtual-time weather, and which servers lie or straggle. The single-server
// workloads also run over a one-server SimStarNetwork with seeded weather;
// without faults it delivers exactly what a plain StarNetwork does, and it
// gives every workload a virtual completion time.
#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "bignum/modarith.h"
#include "circuits/boolean_circuit.h"
#include "crypto/prg.h"
#include "dbgen/census.h"
#include "field/fp64.h"
#include "field/reed_solomon.h"
#include "he/paillier.h"
#include "net/adversary.h"
#include "net/robust.h"
#include "net/sim.h"
#include "ot/group.h"
#include "spfe/multiserver.h"
#include "spfe/psm_spfe.h"
#include "spfe/stats.h"
#include "spfe/two_phase.h"

namespace perfbench {
namespace {

using namespace spfe;
using bignum::BigInt;

constexpr std::uint32_t kMaxSalary = 200'000;

// The single-server workloads' client-to-database link: 1 ms one way plus
// up to 0.1 ms of seeded jitter. A wide-area link rather than the k-server
// fleet's same-datacenter one; with only two queries in a run's exact
// prefix, a jitter this small next to the base keeps the virtual completion
// times of different seeds within a few percent of each other.
constexpr spfe::net::ServerProfile kClientLink{1000, 100, 0, 20};

std::string label(const char* what, std::size_t i) { return what + std::to_string(i); }

net::CommStats operator-(const net::CommStats& a, const net::CommStats& b) {
  net::CommStats d;
  d.client_to_server_bytes = a.client_to_server_bytes - b.client_to_server_bytes;
  d.server_to_client_bytes = a.server_to_client_bytes - b.server_to_client_bytes;
  d.client_to_server_messages = a.client_to_server_messages - b.client_to_server_messages;
  d.server_to_client_messages = a.server_to_client_messages - b.server_to_client_messages;
  d.half_rounds = a.half_rounds - b.half_rounds;
  return d;
}

net::CommStats& operator+=(net::CommStats& a, const net::CommStats& b) {
  a.client_to_server_bytes += b.client_to_server_bytes;
  a.server_to_client_bytes += b.server_to_client_bytes;
  a.client_to_server_messages += b.client_to_server_messages;
  a.server_to_client_messages += b.server_to_client_messages;
  a.half_rounds += b.half_rounds;
  return a;
}

// Cohorts selected by the public zip code: one zip per query, in a seeded
// order, the first m records of that zip. Zips with fewer than m records
// are left out of the schedule.
std::vector<std::vector<std::size_t>> zip_cohorts(const dbgen::CensusDatabase& census,
                                                  std::uint32_t zips, std::size_t m,
                                                  crypto::Prg prg) {
  std::vector<std::uint32_t> order(zips);
  for (std::uint32_t z = 0; z < zips; ++z) order[z] = z;
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[prg.uniform(i)]);
  std::vector<std::vector<std::size_t>> cohorts;
  for (const std::uint32_t zip : order) {
    auto c = census.select_sample([zip](const dbgen::CensusRecord& r) { return r.zip_code == zip; },
                                  m);
    if (c.size() == m) cohorts.push_back(std::move(c));
  }
  if (cohorts.empty()) throw std::runtime_error("no zip code has a full cohort");
  return cohorts;
}

std::uint64_t sum_of(const std::vector<std::uint64_t>& db, const std::vector<std::size_t>& idx,
                     bool squares) {
  std::uint64_t s = 0;
  for (const std::size_t i : idx) s += squares ? db[i] * db[i] : db[i];
  return s;
}

// Probes shared by the Paillier workloads, at the key's exact operand sizes:
// one Montgomery product and one r^N mod N^2 on the ciphertext modulus, one
// encryption and one CRT decryption.
void probe_paillier(const he::PaillierPrivateKey& sk, crypto::Prg& prg, ProbeResults& out) {
  const he::PaillierPublicKey& pk = sk.public_key();
  const bignum::MontgomeryContext ctx(pk.n_squared());
  const auto a = ctx.to_mont(BigInt::random_below(prg, pk.n_squared()));
  const auto b = ctx.to_mont(BigInt::random_below(prg, pk.n_squared()));
  out["bignum.mont_mul_ns"] = probe_seconds([&] { (void)ctx.mont_mul(a, b); }) * 1e9;
  const BigInt r = pk.random_unit(prg);
  out["bignum.modexp_ms"] = probe_seconds([&] { (void)ctx.pow(r, pk.n()); }) * 1e3;
  const BigInt m = BigInt::random_below(prg, pk.n());
  out["he.encrypt_ms"] = probe_seconds([&] { (void)pk.encrypt(m, prg); }) * 1e3;
  const BigInt c = pk.encrypt(m, prg);
  out["he.decrypt_ms"] = probe_seconds([&] { (void)sk.decrypt(c); }) * 1e3;
}

// ---------------------------------------------------------------------------

class SurveyOneServer final : public Workload {
 public:
  static constexpr std::size_t kN = 4096;
  static constexpr std::size_t kM = 16;
  static constexpr std::size_t kKeyBits = 768;
  static constexpr std::size_t kDepth = 2;
  static constexpr std::uint32_t kZips = 50;

  explicit SurveyOneServer(const crypto::Prg& master)
      : master_(master),
        field_(field::smallest_prime_above(kM * std::uint64_t{kMaxSalary} * kMaxSalary)) {
    crypto::Prg census_prg = master_.fork("census");
    const auto census = dbgen::generate_census({kN, kZips, kMaxSalary}, census_prg);
    salaries_ = census.private_column();
    cohorts_ = zip_cohorts(census, kZips, kM, master_.fork("cohorts"));
  }

  std::size_t threads() const override { return 2; }
  std::size_t exact_queries() const override { return 2; }
  std::size_t traced_queries() const override { return 1; }
  bool fixed_size_queries() const override { return true; }
  std::uint64_t column_bytes() const override { return kN * sizeof(std::uint32_t); }

  void setup(std::size_t rep) override {
    crypto::Prg key_prg = master_.fork(label("setup-", rep)).fork("client-key");
    key_.emplace(he::paillier_keygen(key_prg, kKeyBits));
    protocol_.emplace(field_, kN, kM, kDepth);
  }

  QueryResult query(std::size_t q) override {
    const auto& cohort = cohorts_[q % cohorts_.size()];
    net::SimStarNetwork net(
        1, net::SimConfig::uniform(1, kClientLink, master_.fork_seed(label("weather-", q))));
    crypto::Prg client_prg = master_.fork(label("client-", q));
    crypto::Prg server_prg = master_.fork(label("server-", q));
    const protocols::MeanVarianceResult res =
        protocol_->run(net, 0, salaries_, cohort, *key_, client_prg, server_prg);
    QueryResult out;
    out.correct = res.sum == sum_of(salaries_, cohort, false) &&
                  res.sum_of_squares == sum_of(salaries_, cohort, true);
    out.comm = net.stats();
    out.sim_us = net.clock().now_us();
    return out;
  }

  ProbeResults probe() override {
    ProbeResults out;
    crypto::Prg prg = master_.fork("probe");
    probe_paillier(*key_, prg, out);
    return out;
  }

 private:
  crypto::Prg master_;
  field::Fp64 field_;
  std::vector<std::uint64_t> salaries_;
  std::vector<std::vector<std::size_t>> cohorts_;
  std::optional<he::PaillierPrivateKey> key_;
  std::optional<protocols::MeanVariancePackage> protocol_;
};

// ---------------------------------------------------------------------------

class TableOne final : public Workload {
 public:
  static constexpr std::size_t kN = 2048;
  static constexpr std::size_t kM = 4;
  static constexpr std::size_t kItemBits = 8;
  static constexpr std::uint64_t kKeyword = 7;
  static constexpr std::size_t kKeyBits = 512;
  static constexpr std::size_t kDepth = 2;
  static constexpr std::uint32_t kRegions = 64;

  explicit TableOne(const crypto::Prg& master) : master_(master), circuit_(eq_count_circuit()) {
    // An 8-bit private column where about one item in four is the keyword
    // (so the equality count varies between cohorts), and a public region
    // attribute that selects the cohorts.
    crypto::Prg data = master_.fork("column");
    db_.resize(kN);
    std::vector<std::uint32_t> region(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      db_[i] = data.uniform(4) == 0 ? kKeyword : data.uniform(256);
      region[i] = static_cast<std::uint32_t>(data.uniform(kRegions));
    }
    crypto::Prg order = master_.fork("cohorts");
    std::vector<std::uint32_t> regions(kRegions);
    for (std::uint32_t r = 0; r < kRegions; ++r) regions[r] = r;
    for (std::size_t i = regions.size(); i > 1; --i) {
      std::swap(regions[i - 1], regions[order.uniform(i)]);
    }
    for (const std::uint32_t r : regions) {
      std::vector<std::size_t> c;
      for (std::size_t i = 0; i < kN && c.size() < kM; ++i) {
        if (region[i] == r) c.push_back(i);
      }
      if (c.size() == kM) cohorts_.push_back(std::move(c));
    }
  }

  std::size_t threads() const override { return 1; }
  std::size_t exact_queries() const override { return 2; }
  std::size_t traced_queries() const override { return 1; }
  bool fixed_size_queries() const override { return true; }
  std::uint64_t column_bytes() const override { return kN; }

  void setup(std::size_t rep) override {
    const crypto::Prg keys = master_.fork(label("setup-", rep));
    crypto::Prg client_key_prg = keys.fork("client-key");
    crypto::Prg server_key_prg = keys.fork("server-key");
    client_sk_.emplace(he::paillier_keygen(client_key_prg, kKeyBits));
    server_sk_.emplace(he::paillier_keygen(server_key_prg, kKeyBits));
    group_.emplace(ot::SchnorrGroup::rfc_like_512());
    psm_.emplace(client_sk_->public_key(), circuit_, kN, kM, kItemBits, kDepth);
  }

  QueryResult query(std::size_t q) override {
    const auto& cohort = cohorts_[q % cohorts_.size()];
    std::uint64_t expect = 0;
    for (const std::size_t i : cohort) expect += db_[i] == kKeyword ? 1 : 0;
    crypto::Prg client_prg = master_.fork(label("client-", q));
    crypto::Prg server_prg = master_.fork(label("server-", q));

    QueryResult out;
    out.correct = true;
    std::size_t row = 0;
    const auto run_row = [&](const auto& protocol) {
      net::SimStarNetwork net(
          1, net::SimConfig::uniform(
                 1, kClientLink, master_.fork_seed(label("weather-", q) + label("-row-", row++))));
      const std::vector<bool> bits = protocol(net);
      std::uint64_t v = 0;
      for (std::size_t b = 0; b < bits.size(); ++b) v |= std::uint64_t{bits[b]} << b;
      out.correct = out.correct && v == expect;
      out.comm += net.stats();
      out.sim_us += net.clock().now_us();
    };

    // §3.2: Yao-PSM + m x SPIR, one round.
    run_row([&](net::StarNetwork& net) {
      return psm_->run(net, db_, cohort, *client_sk_, client_prg, server_prg);
    });
    // §3.3.1, §3.3.2 v1, §3.3.2 v2, §3.3.3: input selection + Yao.
    const auto body = [](circuits::BooleanCircuit& c,
                         const std::vector<circuits::WireBundle>& items) {
      std::vector<circuits::WireId> matches;
      for (const auto& item : items) matches.push_back(circuits::build_eq_const(c, item, kKeyword));
      c.add_outputs(circuits::build_popcount(c, matches));
    };
    for (const auto method :
         {protocols::SelectionMethod::kPerItem, protocols::SelectionMethod::kPolyMaskClientKey,
          protocols::SelectionMethod::kPolyMaskServerKey,
          protocols::SelectionMethod::kEncryptedDb}) {
      run_row([&](net::StarNetwork& net) {
        return protocols::run_two_phase_boolean(net, 0, db_, cohort, kItemBits, method, body,
                                                *client_sk_, *server_sk_, *group_, kDepth,
                                                client_prg, server_prg);
      });
    }
    return out;
  }

  ProbeResults probe() override {
    ProbeResults out;
    crypto::Prg prg = master_.fork("probe");
    probe_paillier(*client_sk_, prg, out);
    return out;
  }

 private:
  // f for the PSM row: m 8-bit equality comparators and a popcount, with
  // the inputs laid out per player.
  static circuits::BooleanCircuit eq_count_circuit() {
    circuits::BooleanCircuit c(kM * kItemBits);
    std::vector<circuits::WireId> matches;
    for (std::size_t j = 0; j < kM; ++j) {
      circuits::WireBundle item;
      for (std::size_t b = 0; b < kItemBits; ++b) item.push_back(c.input(j * kItemBits + b));
      matches.push_back(circuits::build_eq_const(c, item, kKeyword));
    }
    c.add_outputs(circuits::build_popcount(c, matches));
    return c;
  }

  crypto::Prg master_;
  const circuits::BooleanCircuit circuit_;  // psm_ keeps a reference to it
  std::vector<std::uint64_t> db_;
  std::vector<std::vector<std::size_t>> cohorts_;
  std::optional<he::PaillierPrivateKey> client_sk_;
  std::optional<he::PaillierPrivateKey> server_sk_;
  std::optional<ot::SchnorrGroup> group_;
  std::optional<protocols::PsmYaoSpfeSingleServer> psm_;
};

// ---------------------------------------------------------------------------

class SurveyKServers final : public Workload {
 public:
  static constexpr std::size_t kN = 16384;
  static constexpr std::size_t kM = 16;
  static constexpr std::size_t kThreshold = 1;
  static constexpr std::size_t kByzantine = 1;
  static constexpr std::size_t kSpares = 1;
  static constexpr std::uint32_t kZips = 200;

  explicit SurveyKServers(const crypto::Prg& master)
      : master_(master),
        field_(field::smallest_prime_above(kM * std::uint64_t{kMaxSalary} * kMaxSalary)),
        degree_(protocols::MultiServerSumSpfe::min_servers(kN, kThreshold) - 1),
        k_(net::provisioned_servers(degree_, kByzantine, 0, kSpares)) {
    crypto::Prg census_prg = master_.fork("census");
    const auto census = dbgen::generate_census({kN, kZips, kMaxSalary}, census_prg);
    salaries_ = census.private_column();
    cohorts_ = zip_cohorts(census, kZips, kM, master_.fork("cohorts"));
    crypto::Prg roles = master_.fork("roles");
    liar_ = roles.uniform(k_);
    straggler_ = (liar_ + 1 + roles.uniform(k_ - 1)) % k_;
  }

  std::size_t threads() const override { return 1; }
  std::size_t exact_queries() const override { return 100; }
  std::size_t traced_queries() const override { return 50; }
  bool fixed_size_queries() const override { return false; }
  std::uint64_t column_bytes() const override { return kN * sizeof(std::uint32_t); }

  void setup(std::size_t rep) override {
    const crypto::Prg s = master_.fork(label("setup-", rep));
    protocols::RobustStatsConfig config;
    config.byzantine_budget = kByzantine;
    config.hedge_spares = kSpares;
    session_.emplace(field_, kN, kM, k_, kThreshold, s.fork_seed("session"), config);
    // Healthy fleet with mild occasional straggle, one chronic straggler.
    net::SimConfig weather;
    weather.seed = s.fork_seed("weather");
    weather.profiles.assign(k_, net::ServerProfile{200, 100, 10, 3});
    weather.profiles[straggler_] = net::ServerProfile{200, 100, 1000, 40};
    net_.emplace(k_, weather);
    liar_engine_.emplace(
        std::make_shared<net::ConsistentLieStrategy>(field_.modulus(), 1 + liar_),
        std::vector<std::size_t>{liar_});
    net_->set_adversary(&*liar_engine_);
  }

  QueryResult query(std::size_t q) override {
    const auto& cohort = cohorts_[q % cohorts_.size()];
    const net::CommStats before = net_->stats();
    net::RobustnessReport sum_report, squares_report;
    const protocols::MeanVarianceResult res = session_->mean_variance(
        *net_, salaries_, cohort, master_.fork_seed(label("spir-", q)), &sum_report,
        &squares_report);
    QueryResult out;
    out.correct = res.sum == sum_of(salaries_, cohort, false) &&
                  res.sum_of_squares == sum_of(salaries_, cohort, true);
    out.comm = net_->stats() - before;
    out.sim_us = sum_report.completion_us + squares_report.completion_us;
    out.attempts = sum_report.attempts + squares_report.attempts;
    out.errors_corrected = sum_report.errors_corrected + squares_report.errors_corrected;
    return out;
  }

  // MultiServerSumSpfe's client and server calls at n, m and k of the
  // session, and one Berlekamp-Welch decode at the in-attempt quorum
  // (degree + 1 + 2e points, one of them wrong).
  ProbeResults probe() override {
    ProbeResults out;
    crypto::Prg prg = master_.fork("probe");
    const protocols::MultiServerSumSpfe proto(field_, kN, kM, k_, kThreshold);
    const auto& cohort = cohorts_.front();
    protocols::MultiServerSumSpfe::ClientState state;
    out["multiserver.make_queries_ms"] =
        probe_seconds([&] { (void)proto.make_queries(cohort, state, prg); }) * 1e3;
    const std::vector<Bytes> queries = proto.make_queries(cohort, state, prg);
    const crypto::Prg::Seed spir = prg.fork_seed("spir");
    out["multiserver.answer_ms"] =
        probe_seconds([&] { (void)proto.answer(0, salaries_, queries[0], &spir); }) * 1e3;
    std::vector<Bytes> answers;
    for (std::size_t s = 0; s < k_; ++s) answers.push_back(proto.answer(s, salaries_, queries[s], &spir));
    out["multiserver.decode_us"] =
        probe_seconds([&] { (void)proto.decode_with_errors(answers, state, kByzantine); }) * 1e6;

    const std::size_t points = degree_ + 1 + 2 * kByzantine;
    std::vector<std::uint64_t> coeffs(degree_ + 1), xs(points), ys(points);
    for (auto& c : coeffs) c = prg.uniform(field_.modulus());
    for (std::size_t i = 0; i < points; ++i) {
      xs[i] = i + 1;
      std::uint64_t y = 0;
      for (std::size_t d = coeffs.size(); d-- > 0;) y = field_.add(field_.mul(y, xs[i]), coeffs[d]);
      ys[i] = y;
    }
    ys[liar_ % points] = field_.add(ys[liar_ % points], 1);
    out["field.bw_decode_us"] = probe_seconds([&] {
      if (!field::berlekamp_welch_decode(field_, xs, ys, degree_, kByzantine)) {
        throw std::runtime_error("bw probe: decode failed");
      }
    }) * 1e6;
    return out;
  }

 private:
  crypto::Prg master_;
  field::Fp64 field_;
  std::size_t degree_;
  std::size_t k_;
  std::size_t liar_ = 0;
  std::size_t straggler_ = 0;
  std::vector<std::uint64_t> salaries_;
  std::vector<std::vector<std::size_t>> cohorts_;
  std::optional<protocols::RobustStatsSession> session_;
  std::optional<net::SimStarNetwork> net_;
  std::optional<net::AdversaryEngine> liar_engine_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  const crypto::Prg master("perfbench/" + name + "/" + std::to_string(seed));
  if (name == "survey_1s") return std::make_unique<SurveyOneServer>(master);
  if (name == "table1") return std::make_unique<TableOne>(master);
  if (name == "survey_ks") return std::make_unique<SurveyKServers>(master);
  return nullptr;
}

}  // namespace perfbench
