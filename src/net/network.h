// In-process message-passing substrate with communication metering.
//
// All SPFE protocols run over a `StarNetwork`: one client connected to k
// servers by FIFO channels. The network meters exactly what the paper
// measures — bytes in each direction, message counts, and rounds. Rounds are
// detected automatically from direction changes: a half-round is a maximal
// batch of messages flowing one way, and the paper's "round" (client ->
// every server -> client) is two half-rounds. This reproduces fractional
// round counts such as the 1.5/2.5 rounds of §3.3.2 variant 2, where the
// server speaks first.
//
// The send/receive methods are virtual so a decorator can inject faults and
// latency underneath an unmodified protocol implementation (see net/sim.h
// for `SimStarNetwork`, the one network that applies a net/fault.h
// `FaultPlan`); the base class always delivers perfectly.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"

namespace spfe::net {

struct CommStats {
  std::uint64_t client_to_server_bytes = 0;
  std::uint64_t server_to_client_bytes = 0;
  std::uint64_t client_to_server_messages = 0;
  std::uint64_t server_to_client_messages = 0;
  std::uint64_t half_rounds = 0;

  std::uint64_t total_bytes() const { return client_to_server_bytes + server_to_client_bytes; }
  double rounds() const { return static_cast<double>(half_rounds) / 2.0; }
};

// Direction of the last message flow (drives half-round accounting).
enum class Direction { kNone, kClientToServer, kServerToClient };
const char* direction_name(Direction d);

class StarNetwork {
 public:
  explicit StarNetwork(std::size_t num_servers);
  virtual ~StarNetwork() = default;

  std::size_t num_servers() const { return to_server_.size(); }

  // Client -> server `s`.
  virtual void client_send(std::size_t s, Bytes message);
  // Server `s` -> client.
  virtual void server_send(std::size_t s, Bytes message);
  // Receives throw ProtocolError when no message is pending (a protocol bug
  // or a deviating counterparty).
  virtual Bytes server_receive(std::size_t s);
  virtual Bytes client_receive(std::size_t s);

  bool server_has_message(std::size_t s) const;
  bool client_has_message(std::size_t s) const;
  // True when every queue is drained (useful as a protocol postcondition).
  bool idle() const;

  const CommStats& stats() const { return stats_; }
  void reset_stats();

 protected:
  // Meters one sent message (byte/message counters + half-round detection)
  // without touching the queues, so fault decorators can account for a
  // transmission exactly once however delivery is mangled.
  void meter_send(Direction d, std::size_t num_bytes);
  void check_server(std::size_t s) const;
  // One-line queue/direction snapshot for error messages.
  std::string channel_state(std::size_t s) const;

  std::vector<std::deque<Bytes>> to_server_;
  std::vector<std::deque<Bytes>> to_client_;
  Direction last_direction_ = Direction::kNone;
  CommStats stats_;

 private:
  void note_direction(Direction d);
};

}  // namespace spfe::net
