// Length-prefixed binary serialization used for all protocol messages.
//
// The format is deliberately simple and self-delimiting:
//   - fixed-width integers are little-endian
//   - varints use LEB128 (7 bits per byte)
//   - byte strings and vectors carry a varint length prefix
// Readers validate every length against the remaining buffer, so malformed
// messages raise SerializationError rather than reading out of bounds.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace spfe {

class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void varint(std::uint64_t v);
  // Varint length prefix followed by the raw bytes.
  void bytes(BytesView data);
  // Raw bytes with no length prefix (caller knows the framing).
  void raw(BytesView data);
  void str(const std::string& s);

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  // View-based: the caller keeps `data` alive for the Reader's lifetime.
  explicit Reader(BytesView data) : data_(data) {}
  // Owning: safe to construct directly from a temporary (e.g. a freshly
  // received network message).
  explicit Reader(Bytes&& data) : owned_(std::move(data)), data_(owned_) {}
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  // Reads a varint element count whose elements each occupy at least
  // `min_item_bytes` of the remaining buffer. Throws SerializationError when
  // the count cannot possibly be satisfied, so callers can resize/reserve
  // containers from wire-supplied counts without an adversarial length
  // triggering std::length_error/std::bad_alloc (foreign exception types and
  // a potential OOM) before the per-element reads would catch it.
  std::uint64_t varint_count(std::size_t min_item_bytes);
  Bytes bytes();
  // bytes() without the copy: a view into the Reader's buffer.
  BytesView bytes_view();
  Bytes raw(std::size_t len);
  std::string str();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  // Throws SerializationError unless the whole buffer was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  Bytes owned_;  // backing storage for the owning constructor (else empty)
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace spfe
