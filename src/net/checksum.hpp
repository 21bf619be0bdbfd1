// CRC-32 (IEEE 802.3 polynomial) for frame integrity.
//
// Slice-by-8: eight table lookups per eight input bytes, with unaligned
// little-endian loads through memcpy. The bytes are those of the classic
// byte-at-a-time table (tests/net_test.cpp cross-checks the two).
#pragma once

#include <cstddef>
#include <cstdint>

namespace crowdml::net {

std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

}  // namespace crowdml::net
