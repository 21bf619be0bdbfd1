// Binary wire codec.
//
// Explicit little-endian encoding of the primitives Crowd-ML messages
// need. Reader throws CodecError on truncation or malformed input — a
// hostile peer (Section III-C's threat model includes malignant devices)
// must never be able to crash the server with a short frame.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace crowdml::net {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  Writer() = default;
  /// Reserve room for `size_hint` bytes up front, so an encoder that
  /// knows its output size allocates once.
  explicit Writer(std::size_t size_hint) { buf_.reserve(size_hint); }

  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  void put_bytes(const Bytes& b);            // length-prefixed (u32)
  void put_string(const std::string& s);     // length-prefixed (u32)
  void put_vector(const linalg::Vector& v);  // length-prefixed (u32) f64s
  void put_i64_vector(const std::vector<std::int64_t>& v);
  void put_u64_vector(const std::vector<std::uint64_t>& v);
  void put_raw(ByteSpan b);                  // no length prefix

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(ByteSpan buf) : buf_(buf) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_f64();
  Bytes get_bytes();
  /// A length-prefixed (u32) bytes field as a view into the input.
  ByteSpan get_bytes_view();
  std::string get_string();
  linalg::Vector get_vector();
  std::vector<std::int64_t> get_i64_vector();
  std::vector<std::uint64_t> get_u64_vector();

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const;

  ByteSpan buf_;
  std::size_t pos_ = 0;
};

/// Cap on any length prefix (vectors, strings) — rejects absurd
/// allocations from corrupt or malicious frames.
inline constexpr std::uint32_t kMaxFieldLength = 1u << 26;  // 64 Mi entries

}  // namespace crowdml::net
