#include <gtest/gtest.h>

#include <algorithm>

#include "bignum/primes.h"
#include "common/error.h"
#include "ot/base_ot.h"
#include "ot/group.h"
#include "ot/ot_extension.h"

namespace spfe::ot {
namespace {

using bignum::BigInt;

TEST(SchnorrGroup, EmbeddedParamsAreSafePrimes) {
  crypto::Prg prg("group-check");
  for (const SchnorrGroup& g : {SchnorrGroup::rfc_like_512(), SchnorrGroup::rfc_like_1024()}) {
    EXPECT_TRUE(bignum::is_probable_prime(g.p(), prg, 24));
    EXPECT_TRUE(bignum::is_probable_prime(g.q(), prg, 24));
    EXPECT_EQ(g.q() * BigInt(2) + BigInt(1), g.p());
    EXPECT_TRUE(g.is_element(g.g()));
  }
}

TEST(SchnorrGroup, GeneratorHasOrderQ) {
  const SchnorrGroup g = SchnorrGroup::rfc_like_512();
  EXPECT_EQ(g.exp_g(g.q()), BigInt(1));
  EXPECT_NE(g.exp_g(BigInt(1)), BigInt(1));
}

TEST(SchnorrGroup, ExpAndInverse) {
  const SchnorrGroup g = SchnorrGroup::rfc_like_512();
  crypto::Prg prg("group-exp");
  const BigInt a = g.random_exponent(prg);
  const BigInt b = g.random_exponent(prg);
  // g^a * g^b = g^(a+b)
  EXPECT_EQ(g.mul(g.exp_g(a), g.exp_g(b)), g.exp_g((a + b).mod_floor(g.q())));
  const BigInt x = g.exp_g(a);
  EXPECT_EQ(g.mul(x, g.inv(x)), BigInt(1));
}

TEST(SchnorrGroup, HashToGroupLandsInSubgroup) {
  const SchnorrGroup g = SchnorrGroup::rfc_like_512();
  const BigInt h1 = g.hash_to_group("label-1");
  const BigInt h2 = g.hash_to_group("label-2");
  EXPECT_TRUE(g.is_element(h1));
  EXPECT_TRUE(g.is_element(h2));
  EXPECT_NE(h1, h2);
  EXPECT_EQ(h1, g.hash_to_group("label-1"));  // deterministic
}

TEST(BaseOt, TransfersChosenMessage) {
  const BaseOt ot(SchnorrGroup::rfc_like_512());
  crypto::Prg prg("base-ot");
  const std::vector<bool> choices = {false, true, true, false, true};
  std::vector<std::pair<Bytes, Bytes>> messages;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    messages.push_back({prg.bytes(16), prg.bytes(16)});
  }
  std::vector<OtReceiverState> states;
  const Bytes query = ot.make_query(choices, states, prg);
  const Bytes answer = ot.answer(query, messages, prg);
  const std::vector<Bytes> got = ot.decode(answer, states);
  ASSERT_EQ(got.size(), choices.size());
  for (std::size_t i = 0; i < choices.size(); ++i) {
    const Bytes& expect = choices[i] ? messages[i].second : messages[i].first;
    const Bytes& other = choices[i] ? messages[i].first : messages[i].second;
    EXPECT_EQ(got[i], expect) << "instance " << i;
    EXPECT_NE(got[i], other) << "instance " << i;
  }
}

TEST(BaseOt, VariableLengthMessages) {
  const BaseOt ot(SchnorrGroup::rfc_like_512());
  crypto::Prg prg("base-ot-len");
  const std::vector<bool> choices = {true, false};
  std::vector<std::pair<Bytes, Bytes>> messages = {{prg.bytes(5), prg.bytes(5)},
                                                   {prg.bytes(100), prg.bytes(100)}};
  std::vector<OtReceiverState> states;
  const Bytes answer = ot.answer(ot.make_query(choices, states, prg), messages, prg);
  const auto got = ot.decode(answer, states);
  EXPECT_EQ(got[0], messages[0].second);
  EXPECT_EQ(got[1], messages[1].first);
}

TEST(BaseOt, MismatchedCountsThrow) {
  const BaseOt ot(SchnorrGroup::rfc_like_512());
  crypto::Prg prg("base-ot-bad");
  std::vector<OtReceiverState> states;
  const Bytes query = ot.make_query({true}, states, prg);
  std::vector<std::pair<Bytes, Bytes>> two = {{Bytes{1}, Bytes{2}}, {Bytes{3}, Bytes{4}}};
  EXPECT_THROW(ot.answer(query, two, prg), ProtocolError);
  std::vector<std::pair<Bytes, Bytes>> uneven = {{Bytes{1}, Bytes{2, 3}}};
  EXPECT_THROW(ot.answer(query, uneven, prg), InvalidArgument);
}

// A hostile sender: either group element of an answer set to all-0xff
// bytes (>= p) is rejected, whichever message the receiver chose.
TEST(BaseOt, DecodeRejectsOutOfRangeSenderElements) {
  const BaseOt ot(SchnorrGroup::rfc_like_512());
  crypto::Prg prg("base-ot-ff");
  const std::size_t width = SchnorrGroup::rfc_like_512().element_bytes();
  for (const bool choice : {false, true}) {
    std::vector<OtReceiverState> states;
    const Bytes answer =
        ot.answer(ot.make_query({choice}, states, prg), {{prg.bytes(16), prg.bytes(16)}}, prg);
    for (const std::size_t element : {0u, 1u}) {
      Bytes forged = answer;
      // One-byte varint count, then g^r0 and g^r1.
      std::fill_n(forged.begin() + 1 + static_cast<std::ptrdiff_t>(element * width), width,
                  std::uint8_t{0xff});
      EXPECT_THROW(ot.decode(forged, states), ProtocolError)
          << "choice " << choice << ", element " << element;
    }
  }
}

TEST(OtExtension, TransfersManyMessages) {
  const SchnorrGroup group = SchnorrGroup::rfc_like_512();
  crypto::Prg sender_prg("ext-sender");
  crypto::Prg receiver_prg("ext-receiver");
  crypto::Prg data_prg("ext-data");

  constexpr std::size_t kN = 300;
  std::vector<bool> choices(kN);
  std::vector<std::pair<Bytes, Bytes>> messages(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    choices[i] = data_prg.coin();
    messages[i] = {data_prg.bytes(16), data_prg.bytes(16)};
  }

  OtExtensionSender sender(group);
  OtExtensionReceiver receiver(group, choices);
  const Bytes m1 = sender.start(sender_prg);
  const Bytes m2 = receiver.respond(m1, receiver_prg);
  const Bytes m3 = sender.answer(m2, messages);
  const std::vector<Bytes> got = receiver.finish(m3);

  ASSERT_EQ(got.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(got[i], choices[i] ? messages[i].second : messages[i].first) << i;
  }
}

TEST(OtExtension, OddBatchSizesAndLongerMessages) {
  const SchnorrGroup group = SchnorrGroup::rfc_like_512();
  crypto::Prg sprg("s"), rprg("r"), dprg("d");
  for (const std::size_t n : {1u, 7u, 65u}) {
    std::vector<bool> choices(n);
    std::vector<std::pair<Bytes, Bytes>> messages(n);
    for (std::size_t i = 0; i < n; ++i) {
      choices[i] = dprg.coin();
      messages[i] = {dprg.bytes(33), dprg.bytes(33)};
    }
    OtExtensionSender sender(group);
    OtExtensionReceiver receiver(group, choices);
    const Bytes m3 = sender.answer(receiver.respond(sender.start(sprg), rprg), messages);
    const auto got = receiver.finish(m3);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], choices[i] ? messages[i].second : messages[i].first);
    }
  }
}

TEST(OtExtension, ValidatesState) {
  const SchnorrGroup group = SchnorrGroup::rfc_like_512();
  OtExtensionSender sender(group);
  std::vector<std::pair<Bytes, Bytes>> one = {{Bytes{1}, Bytes{2}}};
  EXPECT_THROW(sender.answer(Bytes{}, one), ProtocolError);
  EXPECT_THROW(OtExtensionReceiver(group, {}), InvalidArgument);
}

}  // namespace
}  // namespace spfe::ot
