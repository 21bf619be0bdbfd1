#include "net/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "net/sha256_detail.hpp"

namespace crowdml::net {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + S1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = S0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

namespace {

// The SHA-NI round instruction works on the state as two registers,
// ABEF and CDGH, and does two rounds per call; sha256msg1/msg2 compute
// the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void blocks_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  // Byte shuffle that turns each big-endian message word little-endian.
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);           // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);     // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);  // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i)
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kBswap);
    // Sixteen groups of four rounds; group g >= 4 first extends the
    // schedule: W[4g..4g+3] from the four previous groups' words.
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        __m128i next = _mm_sha256msg1_epu32(msg[g & 3], msg[(g + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(msg[(g + 3) & 3], msg[(g + 2) & 3], 4));
        msg[g & 3] = _mm_sha256msg2_epu32(next, msg[(g + 3) & 3]);
      }
      __m128i wk = _mm_add_epi32(
          msg[g & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // ABEF
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

}  // namespace

Sha256BlockFn sha256_blocks_shani() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
             ? &blocks_shani
             : nullptr;
}

#else

Sha256BlockFn sha256_blocks_shani() { return nullptr; }

#endif

}  // namespace detail

namespace {

/// The kernel Sha256 uses, chosen once per process: SHA-NI when the CPU
/// has it, else portable.
detail::Sha256BlockFn block_kernel() {
  static const detail::Sha256BlockFn fn = [] {
    const detail::Sha256BlockFn shani = detail::sha256_blocks_shani();
    return shani ? shani : &detail::sha256_blocks_portable;
  }();
  return fn;
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  const detail::Sha256BlockFn blocks = block_kernel();
  total_bits_ += static_cast<std::uint64_t>(len) * 8;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < buffer_.size()) return;
    blocks(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  // Whole blocks straight from the input; only the tail is buffered.
  const std::size_t whole = len / buffer_.size();
  if (whole > 0) {
    blocks(state_.data(), data, whole);
    data += whole * buffer_.size();
    len -= whole * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffered_ = len;
  }
}

void Sha256::update(const std::vector<std::uint8_t>& data) {
  update(data.data(), data.size());
}

void Sha256::update(const std::string& data) {
  update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

Digest Sha256::finish() {
  const detail::Sha256BlockFn blocks = block_kernel();
  const std::uint64_t bits = total_bits_;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    blocks(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  blocks(state_.data(), buffer_.data(), 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(const std::uint8_t* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  return h.finish();
}

Digest sha256(const std::vector<std::uint8_t>& data) {
  return sha256(data.data(), data.size());
}

Digest sha256(const std::string& data) {
  return sha256(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* data, std::size_t len) {
  return hmac_sha256(key, {data, len}, {});
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest kd = sha256(key);
    std::memcpy(k.data(), kd.data(), kd.size());
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad.data(), ipad.size());
  inner.update(a.data(), a.size());
  inner.update(b.data(), b.size());
  const Digest inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad.data(), opad.size());
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& data) {
  return hmac_sha256(key, data.data(), data.size());
}

bool digest_equal(const Digest& a, const Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff = static_cast<std::uint8_t>(diff | (a[i] ^ b[i]));
  return diff == 0;
}

std::string to_hex(const Digest& d) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xF]);
  }
  return out;
}

}  // namespace crowdml::net
