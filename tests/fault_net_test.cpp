// Unit tests for fault injection: FaultPlan (net/fault.h) as applied by the
// zero-latency SimStarNetwork (net/sim.h) — fault semantics, crash/timeout
// behaviour, and exact CommStats metering under every fault kind.
#include <gtest/gtest.h>

#include "crypto/prg.h"
#include "net/fault.h"
#include "net/robust.h"
#include "net/sim.h"

namespace {

using spfe::Bytes;
using spfe::DeadlineMiss;
using spfe::ProtocolError;
using spfe::ServerUnavailable;
using namespace spfe::net;

Bytes msg(std::initializer_list<std::uint8_t> bytes) { return Bytes(bytes); }

TEST(FaultPlanTest, EmptyPlanFindsNothing) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.find(Direction::kClientToServer, 0, 0), nullptr);
  EXPECT_FALSE(plan.crash_point(0).has_value());
}

TEST(FaultPlanTest, LookupIsPerDirectionServerOrdinal) {
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 2, 1, Fault{FaultKind::kDrop, 0, 0x01, 0});
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.num_faults(), 1u);
  ASSERT_NE(plan.find(Direction::kClientToServer, 2, 1), nullptr);
  EXPECT_EQ(plan.find(Direction::kClientToServer, 2, 1)->kind, FaultKind::kDrop);
  EXPECT_EQ(plan.find(Direction::kServerToClient, 2, 1), nullptr);
  EXPECT_EQ(plan.find(Direction::kClientToServer, 1, 1), nullptr);
  EXPECT_EQ(plan.find(Direction::kClientToServer, 2, 0), nullptr);
}

TEST(FaultPlanTest, RejectsNoneDirectionAndZeroMask) {
  FaultPlan plan;
  EXPECT_THROW(plan.add(Direction::kNone, 0, 0, Fault{}), spfe::InvalidArgument);
  Fault zero_mask{FaultKind::kCorruptByte, 0, 0x00, 0};
  EXPECT_THROW(plan.add(Direction::kClientToServer, 0, 0, zero_mask), spfe::InvalidArgument);
}

TEST(FaultPlanTest, RandomPlanDisjointSetsAndDeterministic) {
  spfe::crypto::Prg prg1("fault-plan-seed");
  spfe::crypto::Prg prg2("fault-plan-seed");
  const FaultPlan a = FaultPlan::random(prg1, 10, 2, 3);
  const FaultPlan b = FaultPlan::random(prg2, 10, 2, 3);
  EXPECT_EQ(a.byzantine_servers().size(), 2u);
  EXPECT_EQ(a.unavailable_servers().size(), 3u);
  EXPECT_EQ(a.byzantine_servers(), b.byzantine_servers());
  EXPECT_EQ(a.unavailable_servers(), b.unavailable_servers());
  EXPECT_EQ(a.num_faults(), b.num_faults());
  for (std::size_t bz : a.byzantine_servers()) {
    for (std::size_t un : a.unavailable_servers()) EXPECT_NE(bz, un);
  }
  spfe::crypto::Prg prg3("fault-plan-seed");
  EXPECT_THROW(FaultPlan::random(prg3, 3, 2, 2), spfe::InvalidArgument);
}

TEST(FaultInjectionTest, EmptyPlanBehavesLikePerfectNetwork) {
  StarNetwork perfect(3);
  SimStarNetwork faulty(3, SimConfig{}, FaultPlan{});
  for (std::size_t s = 0; s < 3; ++s) {
    perfect.client_send(s, msg({1, 2, 3}));
    faulty.client_send(s, msg({1, 2, 3}));
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(perfect.server_receive(s), faulty.server_receive(s));
    perfect.server_send(s, msg({9}));
    faulty.server_send(s, msg({9}));
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(perfect.client_receive(s), faulty.client_receive(s));
  }
  EXPECT_EQ(perfect.stats().total_bytes(), faulty.stats().total_bytes());
  EXPECT_EQ(perfect.stats().half_rounds, faulty.stats().half_rounds);
  EXPECT_TRUE(faulty.idle());
}

TEST(FaultInjectionTest, EmptyReceiveThrowsServerUnavailable) {
  SimStarNetwork net(2, SimConfig{});
  EXPECT_THROW(net.server_receive(0), ServerUnavailable);
  EXPECT_THROW(net.client_receive(1), ServerUnavailable);
}

TEST(FaultInjectionTest, DropIsMeteredButNotDelivered) {
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 0, 0, Fault{FaultKind::kDrop, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({1, 2, 3, 4}));
  EXPECT_EQ(net.stats().client_to_server_bytes, 4u);
  EXPECT_EQ(net.stats().client_to_server_messages, 1u);
  EXPECT_FALSE(net.server_has_message(0));
  EXPECT_THROW(net.server_receive(0), ServerUnavailable);
  // Only the scheduled ordinal is affected.
  net.client_send(0, msg({5}));
  EXPECT_EQ(net.server_receive(0), msg({5}));
}

TEST(FaultInjectionTest, CorruptByteFlipsExactlyOneByte) {
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kCorruptByte, 6, 0xFF, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.server_send(0, msg({10, 11, 12, 13}));
  // byte_index is reduced mod the message size: 6 % 4 = 2.
  EXPECT_EQ(net.client_receive(0), msg({10, 11, static_cast<std::uint8_t>(12 ^ 0xFF), 13}));
  EXPECT_EQ(net.stats().server_to_client_bytes, 4u);
}

TEST(FaultInjectionTest, TruncateDeliversPrefixButMetersFull) {
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kTruncate, 0, 0x01, 2});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.server_send(0, msg({1, 2, 3, 4, 5}));
  EXPECT_EQ(net.client_receive(0), msg({1, 2}));
  EXPECT_EQ(net.stats().server_to_client_bytes, 5u);
}

TEST(FaultInjectionTest, DuplicateDeliversTwiceMetersOnce) {
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 0, 0, Fault{FaultKind::kDuplicate, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({7, 8}));
  EXPECT_EQ(net.stats().client_to_server_messages, 1u);
  EXPECT_EQ(net.stats().client_to_server_bytes, 2u);
  EXPECT_EQ(net.server_receive(0), msg({7, 8}));
  EXPECT_EQ(net.server_receive(0), msg({7, 8}));
  EXPECT_FALSE(net.server_has_message(0));
}

TEST(FaultInjectionTest, DelayMissesADeadlineThenDelivers) {
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kDelayHalfRound, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.server_send(0, msg({42}));
  EXPECT_TRUE(net.client_has_message(0));
  net.set_deadline(0);
  EXPECT_THROW(net.client_receive(0), DeadlineMiss);
  EXPECT_EQ(net.clock().now_us(), 0u);  // the miss waits only until the deadline
  net.set_deadline(SimStarNetwork::kNoDeadline);
  EXPECT_EQ(net.client_receive(0), msg({42}));
  EXPECT_EQ(net.clock().now_us(), SimConfig{}.delay_fault_penalty_us);
}

TEST(FaultInjectionTest, CrashAfterZeroIsDeadOnArrival) {
  FaultPlan plan;
  plan.crash_after(1, 0);
  SimStarNetwork net(2, SimConfig{}, plan);
  EXPECT_TRUE(net.server_crashed(1));
  EXPECT_FALSE(net.server_crashed(0));
  // Client pays for the send; the dead server never sees it.
  net.client_send(1, msg({1, 2}));
  EXPECT_EQ(net.stats().client_to_server_bytes, 2u);
  EXPECT_THROW(net.server_receive(1), ServerUnavailable);
  // A dead server's sends vanish unmetered.
  net.server_send(1, msg({3, 4, 5}));
  EXPECT_EQ(net.stats().server_to_client_bytes, 0u);
  EXPECT_FALSE(net.client_has_message(1));
  EXPECT_TRUE(net.idle());
}

TEST(FaultInjectionTest, CrashAfterOpsCountsReceivesAndSends) {
  FaultPlan plan;
  plan.crash_after(0, 2);  // survives receive + send, then dies
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({1}));
  EXPECT_EQ(net.server_receive(0), msg({1}));  // op 1
  net.server_send(0, msg({2}));                // op 2 -> crashes after
  EXPECT_EQ(net.client_receive(0), msg({2}));
  EXPECT_TRUE(net.server_crashed(0));
  net.client_send(0, msg({3}));
  EXPECT_THROW(net.server_receive(0), ServerUnavailable);
}

TEST(FaultInjectionTest, CrashedReceiveClearsBacklog) {
  FaultPlan plan;
  plan.crash_after(0, 1);
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({1}));
  net.client_send(0, msg({2}));
  EXPECT_EQ(net.server_receive(0), msg({1}));  // op 1 -> now dead
  EXPECT_THROW(net.server_receive(0), ServerUnavailable);
  EXPECT_FALSE(net.server_has_message(0));  // backlog discarded
  EXPECT_TRUE(net.idle());
}

TEST(FaultInjectionTest, DroppedMessageStillAdvancesHalfRounds) {
  // A dropped message was transmitted: it must participate in half-round
  // direction accounting exactly like a delivered one, otherwise round
  // counts silently depend on the fault plan.
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 0, 0, Fault{FaultKind::kDrop, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({1, 2}));  // dropped, but metered
  EXPECT_EQ(net.stats().half_rounds, 1u);
  net.server_send(0, msg({3}));
  EXPECT_EQ(net.stats().half_rounds, 2u);
  StarNetwork perfect(1);
  perfect.client_send(0, msg({1, 2}));
  perfect.server_send(0, msg({3}));
  EXPECT_EQ(net.stats().half_rounds, perfect.stats().half_rounds);
}

TEST(FaultInjectionTest, DuplicateDoesNotDoubleCountHalfRounds) {
  // The duplicate is injected at the queue, not re-transmitted: bytes,
  // messages, AND half-rounds reflect a single send.
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kDuplicate, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({1}));
  net.server_send(0, msg({2, 3}));
  EXPECT_EQ(net.stats().half_rounds, 2u);
  EXPECT_EQ(net.stats().server_to_client_messages, 1u);
  EXPECT_EQ(net.stats().server_to_client_bytes, 2u);
  EXPECT_EQ(net.client_receive(0), msg({2, 3}));
  EXPECT_EQ(net.client_receive(0), msg({2, 3}));
  // Draining the duplicate changed nothing meter-side.
  EXPECT_EQ(net.stats().server_to_client_messages, 1u);
  EXPECT_EQ(net.stats().half_rounds, 2u);
}

TEST(FaultInjectionTest, DelayedReceiveThrowDoesNotPerturbStats) {
  // The timeout thrown by a delayed message and the eventual successful
  // receive are both receive-side events: stats stay byte-for-byte identical
  // through the throw and the retry.
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kDelayHalfRound, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.server_send(0, msg({9, 9}));
  const CommStats before = net.stats();
  net.set_deadline(0);
  EXPECT_THROW(net.client_receive(0), DeadlineMiss);
  EXPECT_EQ(net.stats().server_to_client_bytes, before.server_to_client_bytes);
  EXPECT_EQ(net.stats().server_to_client_messages, before.server_to_client_messages);
  EXPECT_EQ(net.stats().half_rounds, before.half_rounds);
  net.set_deadline(SimStarNetwork::kNoDeadline);
  EXPECT_EQ(net.client_receive(0), msg({9, 9}));
  EXPECT_EQ(net.stats().server_to_client_messages, before.server_to_client_messages);
}

TEST(FaultInjectionTest, ZeroByteMessageSurvivesFaultMetering) {
  // Zero-byte messages through the fault layer: metered as one message and
  // a half-round; a corrupt fault on an empty payload must not crash (there
  // is no byte to flip) and still delivers the empty message.
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 0, 0, Fault{FaultKind::kCorruptByte, 3, 0xFF, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({}));
  EXPECT_EQ(net.stats().client_to_server_messages, 1u);
  EXPECT_EQ(net.stats().client_to_server_bytes, 0u);
  EXPECT_EQ(net.stats().half_rounds, 1u);
  EXPECT_EQ(net.server_receive(0), msg({}));
}

TEST(FaultInjectionTest, ErrorMessagesNameServerAndState) {
  SimStarNetwork net(3, SimConfig{});
  try {
    net.client_receive(2);
    FAIL() << "expected ServerUnavailable";
  } catch (const ServerUnavailable& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("server 2"), std::string::npos) << what;
    EXPECT_NE(what.find("queue depth"), std::string::npos) << what;
    EXPECT_NE(what.find("direction"), std::string::npos) << what;
  }
}

TEST(FaultInjectionTest, DrainRestoresIdleUnderDelaysAndCrashes) {
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kDelayHalfRound, 0, 0x01, 0});
  plan.add(Direction::kClientToServer, 1, 0, Fault{FaultKind::kDuplicate, 0, 0x01, 0});
  plan.crash_after(2, 1);
  SimStarNetwork net(3, SimConfig{}, plan);
  net.server_send(0, msg({1}));
  net.client_send(1, msg({2}));
  net.client_send(2, msg({3}));
  net.client_send(2, msg({4}));
  EXPECT_EQ(net.server_receive(2), msg({3}));  // crashes after this op
  EXPECT_FALSE(net.idle());
  drain_star_network(net);
  EXPECT_TRUE(net.idle());
}

// Base-class StarNetwork error messages carry the same diagnostics
// (satellite: server index + queue depth + direction state).
TEST(StarNetworkDiagnosticsTest, ReceiveErrorNamesServerAndState) {
  StarNetwork net(4);
  net.client_send(1, msg({1}));
  try {
    net.server_receive(3);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("server 3"), std::string::npos) << what;
    EXPECT_NE(what.find("to-server queue depth 0"), std::string::npos) << what;
    EXPECT_NE(what.find("client->server"), std::string::npos) << what;
  }
}

}  // namespace
