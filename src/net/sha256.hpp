// SHA-256 and HMAC-SHA256 (FIPS 180-4 / RFC 2104).
//
// The paper's prototype authenticates devices over HTTPS; our transport
// substitutes HMAC-SHA256 message tags keyed by per-device secrets
// (DESIGN.md "Substitutions"). This is a from-scratch implementation —
// validated against the NIST test vectors in tests/net/sha256_test.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace crowdml::net {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const std::vector<std::uint8_t>& data);
  void update(const std::string& data);
  /// Finalize and return the digest. The object must not be reused after.
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
};

Digest sha256(const std::uint8_t* data, std::size_t len);
Digest sha256(const std::vector<std::uint8_t>& data);
Digest sha256(const std::string& data);

/// HMAC-SHA256 over `data` with the given key.
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* data, std::size_t len);
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& data);
/// HMAC-SHA256 over the concatenation a || b, without materializing it.
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b);

/// Constant-time digest comparison (no early exit on mismatch).
bool digest_equal(const Digest& a, const Digest& b);

std::string to_hex(const Digest& d);

}  // namespace crowdml::net
