#include "net/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace crowdml::net {

namespace {

// Slice-by-8 tables: kTables[0] is the classic byte-at-a-time table for
// the reflected IEEE polynomial; kTables[s][b] is the CRC of byte b
// followed by s zero bytes, so eight table lookups advance the CRC by
// eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::size_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian u32 at `p`, any alignment.
std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap32(v);
  return v;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = load_le32(data) ^ c;
    const std::uint32_t hi = load_le32(data + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (std::size_t i = 0; i < len; ++i)
    c = kTables[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace crowdml::net
