#include "util/bytes.hpp"

#include <bit>

#include "util/assert.hpp"

namespace mocc::util {

// Fixed-width fields are copied as their in-memory bytes; that is the
// little-endian wire layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies fixed-width fields in host byte order");

void ByteWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  put_u32(static_cast<std::uint32_t>(bytes.size()));
  append(bytes.data(), bytes.size());
}

void ByteWriter::put_raw(std::span<const std::uint8_t> bytes) {
  append(bytes.data(), bytes.size());
}

void ByteWriter::put_u64_vector(const std::vector<std::uint64_t>& v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  append(v.data(), v.size() * sizeof(std::uint64_t));
}

void ByteWriter::put_i64_vector(const std::vector<std::int64_t>& v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  append(v.data(), v.size() * sizeof(std::int64_t));
}

void ByteWriter::put_u32_vector(const std::vector<std::uint32_t>& v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  append(v.data(), v.size() * sizeof(std::uint32_t));
}

std::uint32_t ByteReader::get_count(std::size_t width) {
  const auto count = get_fixed<std::uint32_t>();
  MOCC_ASSERT_MSG(count <= remaining() / width, "message underflow");
  return count;
}

template <typename T>
std::vector<T> ByteReader::get_vector() {
  const std::uint32_t count = get_count(sizeof(T));
  std::vector<T> v(count);
  if (count != 0) std::memcpy(v.data(), take(count * sizeof(T)), count * sizeof(T));
  return v;
}

std::string ByteReader::get_string() {
  const std::uint32_t len = get_count(1);
  const std::uint8_t* at = take(len);
  return std::string(at, at + len);
}

std::vector<std::uint8_t> ByteReader::get_bytes() {
  const std::uint32_t len = get_count(1);
  const std::uint8_t* at = take(len);
  return std::vector<std::uint8_t>(at, at + len);
}

std::vector<std::uint64_t> ByteReader::get_u64_vector() {
  return get_vector<std::uint64_t>();
}

std::vector<std::int64_t> ByteReader::get_i64_vector() {
  return get_vector<std::int64_t>();
}

std::vector<std::uint32_t> ByteReader::get_u32_vector() {
  return get_vector<std::uint32_t>();
}

}  // namespace mocc::util
