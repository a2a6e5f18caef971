#include "common/serialize.h"

#include "common/error.h"

namespace spfe {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::bytes(BytesView data) {
  varint(data.size());
  raw(data);
}

void Writer::raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

void Writer::str(const std::string& s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw SerializationError("Reader: truncated input");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const std::uint8_t b = data_[pos_++];
    if (shift == 63 && (b & 0x7e) != 0) {
      throw SerializationError("Reader: varint overflow");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) throw SerializationError("Reader: varint too long");
  }
  return v;
}

std::uint64_t Reader::varint_count(std::size_t min_item_bytes) {
  const std::uint64_t count = varint();
  const std::size_t item = min_item_bytes == 0 ? 1 : min_item_bytes;
  if (count > remaining() / item) {
    throw SerializationError("Reader: element count exceeds buffer");
  }
  return count;
}

Bytes Reader::bytes() {
  const BytesView view = bytes_view();
  return Bytes(view.begin(), view.end());
}

BytesView Reader::bytes_view() {
  const std::uint64_t len = varint();
  if (len > remaining()) throw SerializationError("Reader: byte-string length exceeds buffer");
  const BytesView view = data_.subspan(pos_, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return view;
}

Bytes Reader::raw(std::size_t len) {
  need(len);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

std::string Reader::str() {
  const Bytes b = bytes();
  return std::string(b.begin(), b.end());
}

void Reader::expect_done() const {
  if (!done()) {
    throw SerializationError("Reader: trailing bytes after message");
  }
}

}  // namespace spfe
