// Golden replay of robust runs under seeded fault plans.
//
// tests/data/fault_goldens.txt holds one SHA-256 digest per named run (or
// group of runs), recorded over the untimed fault-injecting network that
// SimStarNetwork replaced. Each digest covers everything a robust run
// exposes except free-form diagnostic text:
//   * the decoded value, or the fact that the run threw RobustProtocolError;
//   * all five CommStats fields;
//   * the send transcript (channel, bytes) in order;
//   * every attempt's failure_reason and each server's fate and blame.
// Replaying a run over a zero-latency SimStarNetwork must reproduce its
// digest byte for byte.
//
// The golden-file plumbing (recorded_goldens / expect_golden) is shared by
// every golden suite: each test target names its own file through the
// SPFE_GOLDENS_FILE compile definition.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "crypto/sha256.h"
#include "net/fault.h"
#include "net/robust.h"
#include "net/sim.h"

namespace spfe::goldens {

// Send-transcript recorder: client->s is channel s, s->client is channel
// k + s. Records what the sender transmitted, before any fault applies.
template <typename Base>
class RecordingNet : public Base {
 public:
  template <typename... Args>
  explicit RecordingNet(Args&&... args) : Base(std::forward<Args>(args)...) {}

  void client_send(std::size_t s, Bytes message) override {
    log.emplace_back(s, message);
    Base::client_send(s, std::move(message));
  }
  void server_send(std::size_t s, Bytes message) override {
    log.emplace_back(this->num_servers() + s, message);
    Base::server_send(s, std::move(message));
  }

  std::vector<std::pair<std::size_t, Bytes>> log;
};

// The network every golden run replays over: the one fault-injecting
// network at zero latency, where virtual time never moves.
using GoldenNet = RecordingNet<net::SimStarNetwork>;

inline std::unique_ptr<GoldenNet> make_golden_net(std::size_t k, net::FaultPlan plan = {}) {
  return std::make_unique<GoldenNet>(k, net::SimConfig{}, std::move(plan));
}

// Accumulates one or more finished runs into a single digest.
class RunDigest {
 public:
  // Runs `run` (returning a RobustResult) and absorbs its outcome, whether
  // it decoded or threw the typed robust error.
  template <typename Run>
  void absorb_run(const GoldenNet& net, Run&& run) {
    try {
      const net::RobustResult res = run();
      absorb(res.value, res.report, net);
    } catch (const net::RobustProtocolError& err) {
      absorb(std::nullopt, err.report(), net);
    }
  }

  std::string hex() {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t b : hash_.finish()) {
      out += kHex[b >> 4];
      out += kHex[b & 0x0F];
    }
    return out;
  }

 private:
  void absorb(const std::optional<std::uint64_t>& value, const net::RobustnessReport& report,
              const GoldenNet& net) {
    Writer w;
    w.u8(value.has_value() ? 1 : 0);
    w.u64(value.value_or(0));
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
    w.u8(report.success ? 1 : 0);
    w.u64(report.attempts);
    w.u64(report.erasures);
    w.u64(report.errors_corrected);
    w.u64(report.history.size());
    for (const net::AttemptRecord& rec : report.history) {
      w.u64(rec.attempt);
      w.str(rec.failure_reason);
      w.u64(rec.verdicts.size());
      for (const net::ServerReport& v : rec.verdicts) {
        w.u8(static_cast<std::uint8_t>(v.fate));
        w.u8(static_cast<std::uint8_t>(v.blame));
      }
    }
    hash_.update(w.take());
  }

  crypto::Sha256 hash_;
};

// name -> digest, parsed from the committed golden file.
inline const std::map<std::string, std::string>& recorded_goldens() {
  static const std::map<std::string, std::string> goldens = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(SPFE_GOLDENS_FILE);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name, digest;
      fields >> name >> digest;
      out.emplace(name, digest);
    }
    return out;
  }();
  return goldens;
}

inline void expect_golden(const std::string& name, const std::string& actual) {
  const auto& goldens = recorded_goldens();
  const auto it = goldens.find(name);
  if (it == goldens.end()) {
    ADD_FAILURE() << "no recorded golden: " << name << " " << actual;
    return;
  }
  EXPECT_EQ(actual, it->second) << name << " no longer reproduces its recorded run";
}

inline void expect_golden(const std::string& name, RunDigest& digest) {
  expect_golden(name, digest.hex());
}

}  // namespace spfe::goldens
