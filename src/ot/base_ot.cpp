#include "ot/base_ot.h"

#include "bignum/serialize.h"
#include "common/error.h"
#include "common/serialize.h"
#include "crypto/kdf.h"
#include "obs/obs.h"

namespace spfe::ot {

using bignum::BigInt;

namespace {

Bytes mask_for(const SchnorrGroup& group, const BigInt& shared, std::uint64_t index,
               std::uint8_t branch, std::size_t len) {
  Writer key;
  key.bytes(shared.to_bytes_be_padded(group.element_bytes()));
  key.u64(index);
  key.u8(branch);
  return crypto::kdf_expand(key.data(), "spfe-base-ot", len);
}

}  // namespace

BaseOt::BaseOt(SchnorrGroup group)
    : group_(std::move(group)), crs_c_(group_.hash_to_group("spfe-base-ot-crs-v1")) {}

Bytes BaseOt::make_query(const std::vector<bool>& choices,
                         std::vector<OtReceiverState>& states, crypto::Prg& prg) const {
  states.clear();
  states.reserve(choices.size());
  obs::count(obs::Op::kOtBase, choices.size());
  Writer w;
  w.varint(choices.size());
  for (const bool b : choices) {
    OtReceiverState st;
    st.choice = b;
    st.k = group_.random_exponent(prg);
    const BigInt pk_b = group_.exp_g(st.k);
    const BigInt pk0 = b ? group_.mul(crs_c_, group_.inv(pk_b)) : pk_b;
    w.raw(pk0.to_bytes_be_padded(group_.element_bytes()));
    states.push_back(std::move(st));
  }
  return w.take();
}

Bytes BaseOt::answer(BytesView query, const std::vector<std::pair<Bytes, Bytes>>& messages,
                     crypto::Prg& prg) const {
  Reader r(query);
  const std::uint64_t count = r.varint();
  if (count != messages.size()) throw ProtocolError("BaseOt: query/message count mismatch");
  Writer w;
  w.varint(count);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const auto& [m0, m1] = messages[i];
    if (m0.size() != m1.size()) throw InvalidArgument("BaseOt: message pair length mismatch");
    const BigInt pk0 = BigInt::from_bytes_be(r.raw(group_.element_bytes()));
    if (pk0.is_zero() || pk0 >= group_.p()) throw ProtocolError("BaseOt: bad public key");
    const BigInt pk1 = group_.mul(crs_c_, group_.inv(pk0));

    const BigInt r0 = group_.random_exponent(prg);
    const BigInt r1 = group_.random_exponent(prg);
    w.raw(group_.exp_g(r0).to_bytes_be_padded(group_.element_bytes()));
    w.raw(group_.exp_g(r1).to_bytes_be_padded(group_.element_bytes()));
    const Bytes pad0 = mask_for(group_, group_.exp(pk0, r0), i, 0, m0.size());
    const Bytes pad1 = mask_for(group_, group_.exp(pk1, r1), i, 1, m1.size());
    w.bytes(xor_bytes(m0, pad0));
    w.bytes(xor_bytes(m1, pad1));
  }
  r.expect_done();
  return w.take();
}

std::vector<Bytes> BaseOt::decode(BytesView answer,
                                  const std::vector<OtReceiverState>& states) const {
  Reader r(answer);
  const std::uint64_t count = r.varint();
  if (count != states.size()) throw ProtocolError("BaseOt: answer/state count mismatch");
  std::vector<Bytes> out;
  out.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const BigInt gr0 = BigInt::from_bytes_be(r.raw(group_.element_bytes()));
    const BigInt gr1 = BigInt::from_bytes_be(r.raw(group_.element_bytes()));
    if (gr0.is_zero() || gr0 >= group_.p() || gr1.is_zero() || gr1 >= group_.p()) {
      throw ProtocolError("BaseOt: bad sender element");
    }
    const Bytes y0 = r.bytes();
    const Bytes y1 = r.bytes();
    const bool b = states[i].choice;
    const BigInt& grb = b ? gr1 : gr0;
    const Bytes& yb = b ? y1 : y0;
    const Bytes pad = mask_for(group_, group_.exp(grb, states[i].k), i,
                               static_cast<std::uint8_t>(b), yb.size());
    out.push_back(xor_bytes(yb, pad));
  }
  r.expect_done();
  return out;
}

}  // namespace spfe::ot
