#include "net/codec.hpp"

#include <bit>
#include <cstring>

namespace crowdml::net {

namespace {

// On a little-endian host the wire form of a u64/i64/f64 array is its
// object representation, so whole vectors move with one copy.
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

template <typename T>
void append_le64(Bytes& buf, const std::vector<T>& v) {
  static_assert(sizeof(T) == 8);
  if constexpr (kLittleEndian) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf.insert(buf.end(), p, p + v.size() * 8);
  } else {
    for (const T& x : v) {
      const auto u = std::bit_cast<std::uint64_t>(x);
      for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
    }
  }
}

template <typename T>
void read_le64(const std::uint8_t* p, std::vector<T>& out) {
  static_assert(sizeof(T) == 8);
  if constexpr (kLittleEndian) {
    if (!out.empty()) std::memcpy(out.data(), p, out.size() * 8);
  } else {
    for (std::size_t k = 0; k < out.size(); ++k, p += 8) {
      std::uint64_t u = 0;
      for (int i = 0; i < 8; ++i) u |= static_cast<std::uint64_t>(p[i]) << (8 * i);
      out[k] = std::bit_cast<T>(u);
    }
  }
}

}  // namespace

void Writer::put_u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::put_u32(std::uint32_t v) {
  const std::uint8_t b[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  buf_.insert(buf_.end(), b, b + 4);
}

void Writer::put_u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buf_.insert(buf_.end(), b, b + 8);
}

void Writer::put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

void Writer::put_f64(double v) {
  static_assert(sizeof(double) == 8);
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void Writer::put_bytes(const Bytes& b) {
  if (b.size() > kMaxFieldLength) throw CodecError("bytes field too long");
  put_u32(static_cast<std::uint32_t>(b.size()));
  put_raw(b);
}

void Writer::put_string(const std::string& s) {
  if (s.size() > kMaxFieldLength) throw CodecError("string field too long");
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::put_vector(const linalg::Vector& v) {
  if (v.size() > kMaxFieldLength) throw CodecError("vector field too long");
  put_u32(static_cast<std::uint32_t>(v.size()));
  append_le64(buf_, v);
}

void Writer::put_i64_vector(const std::vector<std::int64_t>& v) {
  if (v.size() > kMaxFieldLength) throw CodecError("i64 vector field too long");
  put_u32(static_cast<std::uint32_t>(v.size()));
  append_le64(buf_, v);
}

void Writer::put_u64_vector(const std::vector<std::uint64_t>& v) {
  if (v.size() > kMaxFieldLength) throw CodecError("u64 vector field too long");
  put_u32(static_cast<std::uint32_t>(v.size()));
  append_le64(buf_, v);
}

void Writer::put_raw(ByteSpan b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw CodecError("truncated message");
}

std::uint8_t Reader::get_u8() {
  need(1);
  return buf_[pos_++];
}

std::uint32_t Reader::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Reader::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::int64_t Reader::get_i64() { return static_cast<std::int64_t>(get_u64()); }

double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

ByteSpan Reader::get_bytes_view() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("bytes length out of range");
  need(n);
  const ByteSpan out = buf_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Bytes Reader::get_bytes() {
  const ByteSpan b = get_bytes_view();
  return Bytes(b.begin(), b.end());
}

std::string Reader::get_string() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("string length out of range");
  need(n);
  std::string out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

linalg::Vector Reader::get_vector() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("vector length out of range");
  need(static_cast<std::size_t>(n) * 8);
  linalg::Vector out(n);
  read_le64(buf_.data() + pos_, out);
  pos_ += static_cast<std::size_t>(n) * 8;
  return out;
}

std::vector<std::int64_t> Reader::get_i64_vector() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("i64 vector length out of range");
  need(static_cast<std::size_t>(n) * 8);
  std::vector<std::int64_t> out(n);
  read_le64(buf_.data() + pos_, out);
  pos_ += static_cast<std::size_t>(n) * 8;
  return out;
}

std::vector<std::uint64_t> Reader::get_u64_vector() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("u64 vector length out of range");
  need(static_cast<std::size_t>(n) * 8);
  std::vector<std::uint64_t> out(n);
  read_le64(buf_.data() + pos_, out);
  pos_ += static_cast<std::size_t>(n) * 8;
  return out;
}

}  // namespace crowdml::net
