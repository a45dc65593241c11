// Wire format for simulator messages.
//
// Protocol messages cross the simulated network as byte payloads rather
// than shared in-memory object graphs: this forces every replica to work
// only from information a real network would deliver, and lets the
// simulator account message sizes. Encoding is little-endian, varint-free
// fixed width (simplicity over compactness — payload *counting* is what
// the experiments need).
//
// Every fixed-width field, and every u32/u64/i64 vector body, moves with
// one memcpy: the host is required to be little-endian (static_assert in
// bytes.cpp), so the in-memory representation IS the wire layout. Strings
// and byte fields share one layout (u32 length, then the raw bytes), so a
// payload nested inside another payload never round-trips through
// std::string. Readers check a length prefix against the bytes that are
// actually left BEFORE allocating anything for it: a corrupt length
// aborts with "message underflow" instead of asking for gigabytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace mocc::util {

class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v) { append(&v, sizeof v); }
  void put_u64(std::uint64_t v) { append(&v, sizeof v); }
  void put_i64(std::int64_t v) { append(&v, sizeof v); }
  void put_string(std::string_view s);
  /// Length-prefixed byte field; same layout as put_string.
  void put_bytes(std::span<const std::uint8_t> bytes);
  void put_u64_vector(const std::vector<std::uint64_t>& v);
  void put_i64_vector(const std::vector<std::int64_t>& v);
  void put_u32_vector(const std::vector<std::uint32_t>& v);
  /// Unprefixed bytes (a frame's trailing body).
  void put_raw(std::span<const std::uint8_t> bytes);

  /// Pre-sizes the buffer for a frame whose length is known up front.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* data, std::size_t size) {
    if (size == 0) return;
    const std::size_t at = buf_.size();
    buf_.resize(at + size);
    std::memcpy(buf_.data() + at, data, size);
  }

  std::vector<std::uint8_t> buf_;
};

/// Reads values back in the order they were written. Out-of-bounds reads
/// abort (a malformed message is a bug in this codebase, not input). The
/// reader views the buffer; it must outlive the reader and stay unchanged.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t get_u8() { return *take(1); }
  std::uint32_t get_u32() { return get_fixed<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_fixed<std::uint64_t>(); }
  std::int64_t get_i64() { return get_fixed<std::int64_t>(); }
  std::string get_string();
  /// A put_bytes field, copied out.
  std::vector<std::uint8_t> get_bytes();
  std::vector<std::uint64_t> get_u64_vector();
  std::vector<std::int64_t> get_i64_vector();
  std::vector<std::uint32_t> get_u32_vector();

  bool exhausted() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  /// Bounds-checks `size` bytes and returns them, advancing past them.
  const std::uint8_t* take(std::size_t size) {
    MOCC_ASSERT_MSG(size <= remaining(), "message underflow");
    const std::uint8_t* at = buf_.data() + pos_;
    pos_ += size;
    return at;
  }
  template <typename T>
  T get_fixed() {
    T v;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }
  /// Reads a u32 element count and bounds-checks count * width bytes.
  std::uint32_t get_count(std::size_t width);
  template <typename T>
  std::vector<T> get_vector();

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace mocc::util
