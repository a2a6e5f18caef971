// Deterministic fault schedules for the message-passing substrate.
//
// A `FaultPlan` is a seeded, per-server, per-message schedule of network
// faults. The one network that applies it is `SimStarNetwork` (net/sim.h):
// `SimStarNetwork(k, SimConfig{}, plan)` is the untimed, zero-latency
// fault-injecting network. It keeps `CommStats` metering exact (a sender
// pays for every message it transmits exactly once, however delivery is
// mangled; a crashed server transmits nothing). Protocols run over it
// unchanged — the only behavioural difference is that receives on an empty
// or crashed channel throw the typed `ServerUnavailable` (the simulator's
// timeout) instead of `ProtocolError`, so robust clients can mark the
// server as an erasure and keep going. An empty plan is byte-identical to
// the perfect network.
//
// Fault taxonomy (see DESIGN.md "Fault model and robust reconstruction"):
//   kDrop           message is metered at the sender, never delivered
//   kCorruptByte    one byte XORed with a nonzero mask (Byzantine server)
//   kTruncate       only a prefix is delivered (malformed at the parser)
//   kDuplicate      delivered twice; the duplicate is not metered
//   kDelayHalfRound arrives SimConfig::delay_fault_penalty_us late: past
//                   any sane deadline, so the attempt that sent it counts
//                   it as a straggler; a later receive still gets it
//   crash_after     server dies after N channel operations: later receives
//                   throw ServerUnavailable, later sends vanish unmetered
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "crypto/prg.h"
#include "net/network.h"

namespace spfe::net {

enum class FaultKind : std::uint8_t {
  kDrop,
  kCorruptByte,
  kTruncate,
  kDuplicate,
  kDelayHalfRound,
};

const char* fault_kind_name(FaultKind kind);

struct Fault {
  FaultKind kind = FaultKind::kDrop;
  std::size_t byte_index = 0;     // kCorruptByte: position (reduced mod message size)
  std::uint8_t xor_mask = 0x01;   // kCorruptByte: nonzero flip mask
  std::size_t keep_bytes = 0;     // kTruncate: delivered prefix length
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // Schedules `fault` for the `ordinal`-th message (0-based, counted per
  // channel and direction) sent towards/from server `server`. The first
  // fault registered for a (direction, server, ordinal) slot wins.
  void add(Direction direction, std::size_t server, std::size_t ordinal, Fault fault);

  // Server `server` dies after completing `ops` channel operations
  // (receives + sends). 0 means dead on arrival.
  void crash_after(std::size_t server, std::size_t ops);

  const Fault* find(Direction direction, std::size_t server, std::size_t ordinal) const;
  std::optional<std::size_t> crash_point(std::size_t server) const;

  bool empty() const { return faults_.empty() && crash_points_.empty(); }
  std::size_t num_faults() const { return faults_.size() + crash_points_.size(); }

  // Seeded random plan over `num_servers` servers: picks disjoint server
  // subsets of the given sizes and schedules persistent faults for `rounds`
  // protocol rounds. Byzantine servers silently corrupt (sometimes truncate)
  // answers or have their queries corrupted in flight; unavailable servers
  // drop, delay, or crash. Benign duplicates are sprinkled over all servers.
  // A plan drawn with byzantine <= e and unavailable <= c stays within the
  // e/c budget of a client provisioned with k >= d + 1 + 2e + c servers.
  static FaultPlan random(crypto::Prg& prg, std::size_t num_servers, std::size_t byzantine,
                          std::size_t unavailable, std::size_t rounds = 4);

  const std::vector<std::size_t>& byzantine_servers() const { return byzantine_; }
  const std::vector<std::size_t>& unavailable_servers() const { return unavailable_; }

 private:
  // key: (direction, server, ordinal)
  using Key = std::tuple<int, std::size_t, std::size_t>;
  std::map<Key, Fault> faults_;
  std::map<std::size_t, std::size_t> crash_points_;
  std::vector<std::size_t> byzantine_;
  std::vector<std::size_t> unavailable_;
};

}  // namespace spfe::net
