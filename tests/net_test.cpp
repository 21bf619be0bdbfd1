// Tests for the wire substrate: codec, CRC-32, SHA-256/HMAC (against
// published vectors), messages/framing, auth registry, channels, and TCP.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "net/auth.hpp"
#include "net/channel.hpp"
#include "net/checksum.hpp"
#include "net/codec.hpp"
#include "net/messages.hpp"
#include "net/sha256.hpp"
#include "net/sha256_detail.hpp"
#include "net/tcp.hpp"
#include "rng/distributions.hpp"

using namespace crowdml;
using namespace crowdml::net;

namespace {

Bytes random_bytes(rng::Engine& eng, std::size_t n) {
  Bytes b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(eng());
  return b;
}

/// The byte-at-a-time CRC-32 the slice-by-8 kernel must reproduce.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

/// FIPS 180-4 SHA-256 over `data`, with the compression done by `blocks`.
Digest sha256_with(detail::Sha256BlockFn blocks, const Bytes& data) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = data.size() / 64;
  if (whole > 0) blocks(state, data.data(), whole);
  Bytes tail(data.begin() + static_cast<std::ptrdiff_t>(whole * 64), data.end());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) tail.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  blocks(state, tail.data(), tail.size() / 64);
  Digest out;
  for (std::size_t i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

}  // namespace

TEST(Codec, PrimitiveRoundTrip) {
  Writer w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(3.14159);
  Reader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, CompositeRoundTrip) {
  Writer w;
  w.put_string("hello crowd");
  w.put_vector({1.5, -2.5, 0.0});
  w.put_i64_vector({-1, 0, 7});
  w.put_bytes({0x01, 0x02});
  Reader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello crowd");
  EXPECT_EQ(r.get_vector(), (linalg::Vector{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.get_i64_vector(), (std::vector<std::int64_t>{-1, 0, 7}));
  EXPECT_EQ(r.get_bytes(), (Bytes{0x01, 0x02}));
}

TEST(Codec, SpecialFloats) {
  Writer w;
  w.put_f64(INFINITY);
  w.put_f64(-0.0);
  Reader r(w.bytes());
  EXPECT_TRUE(std::isinf(r.get_f64()));
  EXPECT_EQ(r.get_f64(), 0.0);
}

TEST(Codec, TruncatedInputThrows) {
  Writer w;
  w.put_u64(1);
  Bytes truncated(w.bytes().begin(), w.bytes().begin() + 4);
  Reader r(truncated);
  EXPECT_THROW(r.get_u64(), CodecError);
}

TEST(Codec, VectorLengthLieThrows) {
  Writer w;
  w.put_u32(1000);  // claims 1000 doubles, provides none
  Reader r(w.bytes());
  EXPECT_THROW(r.get_vector(), CodecError);
}

TEST(Codec, AbsurdLengthRejected) {
  Writer w;
  w.put_u32(0xFFFFFFFF);
  Reader r(w.bytes());
  EXPECT_THROW(r.get_bytes(), CodecError);
}

TEST(Crc32, KnownVector) {
  // The classic check value for "123456789".
  const std::string s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
            0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, SliceBy8MatchesBytewiseAtEveryShortLength) {
  rng::Engine eng(31);
  const Bytes data = random_bytes(eng, 300);
  for (std::size_t len = 0; len <= data.size(); ++len)
    ASSERT_EQ(crc32(data.data(), len), crc32_bytewise(data.data(), len))
        << "len " << len;
}

TEST(Crc32, SliceBy8MatchesBytewiseAtSampledLongLengths) {
  rng::Engine eng(32);
  const Bytes data = random_bytes(eng, 64 * 1024);
  for (std::size_t len : {511u, 512u, 1023u, 4096u, 4156u, 4157u, 9001u,
                          32768u, 65535u, 65536u})
    ASSERT_EQ(crc32(data.data(), len), crc32_bytewise(data.data(), len))
        << "len " << len;
  for (int i = 0; i < 64; ++i) {
    const std::size_t len = rng::uniform_index(eng, data.size() + 1);
    ASSERT_EQ(crc32(data.data(), len), crc32_bytewise(data.data(), len))
        << "len " << len;
  }
}

TEST(Crc32, SliceBy8MatchesBytewiseAtEveryStartOffset) {
  // Unaligned starts: the kernel's 8-byte loads must not assume alignment.
  rng::Engine eng(33);
  const Bytes data = random_bytes(eng, 4200);
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 4156u, 4192u})
      ASSERT_EQ(crc32(data.data() + off, len),
                crc32_bytewise(data.data() + off, len))
          << "offset " << off << " len " << len;
}

TEST(Sha256, NistVectors) {
  EXPECT_EQ(to_hex(sha256(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      to_hex(sha256(std::string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PortableKernelMatchesDispatchedHashAtEveryLength) {
  rng::Engine eng(41);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes data = random_bytes(eng, len);
    ASSERT_EQ(sha256_with(&detail::sha256_blocks_portable, data), sha256(data))
        << "len " << len;
  }
}

TEST(Sha256, ShaNiKernelMatchesPortableAtEveryLength) {
  const detail::Sha256BlockFn shani = detail::sha256_blocks_shani();
  if (!shani) GTEST_SKIP() << "this CPU lacks the SHA extensions (cpuid sha)";
  rng::Engine eng(42);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes data = random_bytes(eng, len);
    ASSERT_EQ(sha256_with(shani, data),
              sha256_with(&detail::sha256_blocks_portable, data))
        << "len " << len;
  }
  // Multi-block runs straight from an unaligned input, as update() feeds
  // them, from a non-initial state.
  const Bytes data = random_bytes(eng, 64 * 66 + 1);
  std::uint32_t a[8], b[8];
  for (int i = 0; i < 8; ++i) a[i] = b[i] = static_cast<std::uint32_t>(eng());
  shani(a, data.data() + 1, 66);
  detail::sha256_blocks_portable(b, data.data() + 1, 66);
  EXPECT_EQ(std::memcmp(a, b, sizeof(a)), 0);
}

TEST(Sha256, UpdateSplitAtEveryPointMatchesOneShot) {
  rng::Engine eng(43);
  const Bytes data = random_bytes(eng, 300);
  const Digest whole = sha256(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    Sha256 h;
    h.update(data.data(), cut);
    h.update(data.data() + cut, data.size() - cut);
    ASSERT_EQ(h.finish(), whole) << "cut " << cut;
  }
  // Byte-at-a-time feeding crosses every buffer boundary.
  Sha256 h;
  for (std::uint8_t byte : data) h.update(&byte, 1);
  EXPECT_EQ(h.finish(), whole);
}

TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest d = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(d),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key_s = "Jefe";
  const std::vector<std::uint8_t> key(key_s.begin(), key_s.end());
  const std::string msg = "what do ya want for nothing?";
  const Digest d = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(d),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key of 0xaa.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest d = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(d),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, TwoSpansMatchTheirConcatenation) {
  // RFC 4231 case 2 split at every point, including empty halves.
  const std::string key_s = "Jefe";
  const std::vector<std::uint8_t> key(key_s.begin(), key_s.end());
  const std::string msg = "what do ya want for nothing?";
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(msg.data());
  for (std::size_t cut = 0; cut <= msg.size(); ++cut)
    EXPECT_EQ(to_hex(hmac_sha256(key, {bytes, cut},
                                 {bytes + cut, msg.size() - cut})),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        << "cut " << cut;
}

TEST(DigestEqual, DetectsDifference) {
  Digest a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Messages, CheckoutRequestRoundTrip) {
  CheckoutRequest req;
  req.device_id = 77;
  req.auth_tag[0] = 0xAA;
  const auto parsed = CheckoutRequest::deserialize(req.serialize());
  EXPECT_EQ(parsed.device_id, 77u);
  EXPECT_EQ(parsed.auth_tag, req.auth_tag);
}

TEST(Messages, ParamsRoundTrip) {
  ParamsMessage m;
  m.version = 123456;
  m.accepted = true;
  m.w = {1.0, -0.5, 1e-9};
  const auto parsed = ParamsMessage::deserialize(m.serialize());
  EXPECT_EQ(parsed.version, 123456u);
  EXPECT_TRUE(parsed.accepted);
  EXPECT_EQ(parsed.w, m.w);
}

TEST(Messages, CheckinRoundTrip) {
  CheckinMessage m;
  m.device_id = 9;
  m.param_version = 42;
  m.g_hat = {0.25, -0.75};
  m.ns = 20;
  m.ne_hat = -3;  // noisy counts may be negative
  m.ny_hat = {5, -1, 16};
  m.auth_tag[5] = 0x33;
  const auto parsed = CheckinMessage::deserialize(m.serialize());
  EXPECT_EQ(parsed.device_id, 9u);
  EXPECT_EQ(parsed.param_version, 42u);
  EXPECT_EQ(parsed.g_hat, m.g_hat);
  EXPECT_EQ(parsed.ns, 20);
  EXPECT_EQ(parsed.ne_hat, -3);
  EXPECT_EQ(parsed.ny_hat, m.ny_hat);
  EXPECT_EQ(parsed.auth_tag, m.auth_tag);
}

TEST(Messages, CheckinBodyExcludesTag) {
  CheckinMessage m;
  m.device_id = 1;
  m.g_hat = {1.0};
  m.ny_hat = {1};
  const Bytes body1 = m.body();
  m.auth_tag[0] = 0xFF;
  EXPECT_EQ(m.body(), body1);  // tag not part of authenticated body
}

TEST(Messages, CheckinReserializesToTheReceivedBytes) {
  // The WAL logs a checkin's received payload in place of
  // msg.serialize(); that is only sound if every payload deserialize
  // accepts is canonical. NaN payloads and odd floats survive bit for
  // bit, since the codec moves f64s as raw words.
  rng::Engine eng(51);
  const double specials[] = {
      -0.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7FF0000000000123}),  // payload NaN
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min() * 12345.0,
      std::numeric_limits<double>::infinity(), 1e308};
  for (int i = 0; i < 200; ++i) {
    CheckinMessage m;
    m.device_id = eng();
    m.param_version = eng();
    m.g_hat.resize(rng::uniform_index(eng, 600));
    for (double& g : m.g_hat)
      g = rng::uniform_index(eng, 4) == 0
              ? specials[rng::uniform_index(eng, std::size(specials))]
              : std::bit_cast<double>(static_cast<std::uint64_t>(eng()));
    m.ns = static_cast<std::int64_t>(eng());
    m.ne_hat = static_cast<std::int64_t>(eng());
    m.ny_hat.resize(rng::uniform_index(eng, 12));
    for (auto& y : m.ny_hat) y = static_cast<std::int64_t>(eng());
    m.device_class = static_cast<std::uint8_t>(i % 3 == 0 ? 0 : 1 + eng() % 255);
    for (auto& b : m.auth_tag) b = static_cast<std::uint8_t>(eng());

    const Bytes p = m.serialize();
    const CheckinMessage parsed = CheckinMessage::deserialize(p);
    ASSERT_EQ(parsed.serialize(), p) << "case " << i;
    const ByteSpan body = CheckinMessage::signed_body(p);
    ASSERT_EQ(Bytes(body.begin(), body.end()), parsed.body()) << "case " << i;
  }
}

TEST(Messages, CheckoutSignedBodyIsTheReceivedBody) {
  for (std::uint8_t cls : {std::uint8_t{0}, std::uint8_t{3}}) {
    CheckoutRequest req;
    req.device_id = 0x0102030405060708;
    req.device_class = cls;
    req.auth_tag[5] = 0x55;
    const Bytes p = req.serialize();
    const ByteSpan body = CheckoutRequest::signed_body(p);
    EXPECT_EQ(Bytes(body.begin(), body.end()),
              CheckoutRequest::deserialize(p).body());
  }
}

TEST(Messages, AckRoundTrip) {
  const AckMessage a{false, "bad gradient"};
  const auto parsed = AckMessage::deserialize(a.serialize());
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.reason, "bad gradient");
}

TEST(Frames, EncodeDecodeRoundTrip) {
  const Bytes payload{1, 2, 3, 4, 5};
  const Bytes frame = encode_frame(MessageType::kCheckin, payload);
  const Frame decoded = decode_frame(frame);
  EXPECT_EQ(decoded.type, MessageType::kCheckin);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(Frames, ViewDecodeMatchesCopyingDecode) {
  const Bytes payload{9, 8, 7, 6, 5};
  const Bytes frame = encode_frame(MessageType::kAck, payload);
  const FrameView v = decode_frame_view(frame);
  EXPECT_EQ(v.type, MessageType::kAck);
  EXPECT_EQ(v.payload.data(), frame.data() + kFrameHeaderSize);
  EXPECT_EQ(Bytes(v.payload.begin(), v.payload.end()), decode_frame(frame).payload);
}

TEST(Frames, ParamsToFrameMatchesEncodeOfSerialize) {
  ParamsMessage p;
  p.version = 12;
  p.w = {1.5, -0.0, 3.25};
  for (std::uint32_t hint : {0u, 250u}) {
    p.next_checkin_hint_ms = hint;
    EXPECT_EQ(p.to_frame(), encode_frame(MessageType::kParams, p.serialize()));
  }
  p.accepted = false;
  p.w.clear();
  EXPECT_EQ(p.to_frame(), encode_frame(MessageType::kParams, p.serialize()));
}

TEST(Frames, EmptyPayload) {
  const Frame decoded = decode_frame(encode_frame(MessageType::kAck, {}));
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(Frames, CorruptionDetectedByCrc) {
  Bytes frame = encode_frame(MessageType::kCheckin, {1, 2, 3});
  frame[kFrameHeaderSize + 1] ^= 0x01;  // flip a payload bit
  EXPECT_THROW(decode_frame(frame), CodecError);
}

TEST(Frames, BadMagicRejected) {
  Bytes frame = encode_frame(MessageType::kAck, {});
  frame[0] = 'X';
  EXPECT_THROW(decode_frame(frame), CodecError);
}

TEST(Frames, LengthMismatchRejected) {
  Bytes frame = encode_frame(MessageType::kAck, {1, 2});
  frame.push_back(0);
  EXPECT_THROW(decode_frame(frame), CodecError);
}

TEST(Frames, UnknownTypeRejected) {
  Bytes frame = encode_frame(MessageType::kAck, {});
  frame[4] = 99;
  EXPECT_THROW(decode_frame(frame), CodecError);
}

TEST(Auth, EnrollVerify) {
  AuthRegistry reg(rng::Engine(1));
  const DeviceCredentials cred = reg.enroll();
  EXPECT_EQ(reg.enrolled_count(), 1u);
  const Bytes body{1, 2, 3};
  const Digest tag = cred.sign(body);
  EXPECT_TRUE(reg.verify(cred.device_id, body, tag));
}

TEST(Auth, WrongBodyFails) {
  AuthRegistry reg(rng::Engine(2));
  const DeviceCredentials cred = reg.enroll();
  const Digest tag = cred.sign({1, 2, 3});
  EXPECT_FALSE(reg.verify(cred.device_id, {1, 2, 4}, tag));
}

TEST(Auth, ForeignKeyFails) {
  AuthRegistry reg(rng::Engine(3));
  const DeviceCredentials a = reg.enroll();
  const DeviceCredentials b = reg.enroll();
  const Bytes body{9};
  EXPECT_FALSE(reg.verify(a.device_id, body, b.sign(body)));
}

TEST(Auth, UnknownDeviceFails) {
  AuthRegistry reg(rng::Engine(4));
  EXPECT_FALSE(reg.verify(999, {1}, Digest{}));
}

TEST(Auth, RevokedDeviceFails) {
  AuthRegistry reg(rng::Engine(5));
  const DeviceCredentials cred = reg.enroll();
  reg.revoke(cred.device_id);
  const Bytes body{1};
  EXPECT_FALSE(reg.verify(cred.device_id, body, cred.sign(body)));
  EXPECT_EQ(reg.enrolled_count(), 0u);
}

TEST(Auth, ConcurrentVerifiesAllSucceed) {
  // Verify hashes outside the registry lock; four threads verifying
  // 4 KB bodies for different devices at once must all pass (and run
  // clean under ThreadSanitizer) while a fifth enrolls and revokes.
  AuthRegistry reg(rng::Engine(7));
  std::vector<DeviceCredentials> creds;
  for (int i = 0; i < 4; ++i) creds.push_back(reg.enroll());
  std::atomic<int> ok{0};
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop) reg.revoke(reg.enroll().device_id);
  });
  std::vector<std::thread> verifiers;
  for (int t = 0; t < 4; ++t) {
    verifiers.emplace_back([&, t] {
      rng::Engine eng(100 + static_cast<std::uint64_t>(t));
      const DeviceCredentials& cred = creds[static_cast<std::size_t>(t)];
      for (int i = 0; i < 200; ++i) {
        const Bytes body = random_bytes(eng, 4120);
        if (reg.verify(cred.device_id, ByteSpan(body), cred.sign(body))) ++ok;
      }
    });
  }
  for (auto& th : verifiers) th.join();
  stop = true;
  churn.join();
  EXPECT_EQ(ok.load(), 4 * 200);
}

TEST(Auth, DistinctSecretsPerDevice) {
  AuthRegistry reg(rng::Engine(6));
  EXPECT_NE(reg.enroll().key, reg.enroll().key);
}

TEST(Channel, FifoOrder) {
  ByteChannel ch;
  ch.send({1});
  ch.send({2});
  EXPECT_EQ(ch.receive()->at(0), 1);
  EXPECT_EQ(ch.receive()->at(0), 2);
}

TEST(Channel, TryReceiveNonBlocking) {
  ByteChannel ch;
  EXPECT_FALSE(ch.try_receive().has_value());
  ch.send({7});
  EXPECT_EQ(ch.try_receive()->at(0), 7);
}

TEST(Channel, CloseDrainsThenReturnsNullopt) {
  ByteChannel ch;
  ch.send({1});
  ch.close();
  EXPECT_FALSE(ch.send({2}));
  EXPECT_TRUE(ch.receive().has_value());  // drains queued message
  EXPECT_FALSE(ch.receive().has_value());
}

TEST(Channel, CloseWakesBlockedReceiver) {
  ByteChannel ch;
  std::thread t([&] { EXPECT_FALSE(ch.receive().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.close();
  t.join();
}

TEST(Channel, ConcurrentProducersConsumers) {
  ByteChannel ch;
  constexpr int kPerProducer = 500;
  std::atomic<int> received{0};
  std::vector<std::thread> producers, consumers;
  for (int p = 0; p < 4; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) ch.send({1});
    });
  for (int c = 0; c < 4; ++c)
    consumers.emplace_back([&] {
      while (ch.receive()) ++received;
    });
  for (auto& t : producers) t.join();
  ch.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(received.load(), 4 * kPerProducer);
}

TEST(DuplexChannelPair, BothDirections) {
  auto [a, b] = DuplexChannel::create();
  a.send({1});
  b.send({2});
  EXPECT_EQ(b.receive()->at(0), 1);
  EXPECT_EQ(a.receive()->at(0), 2);
}

TEST(Tcp, LoopbackFrameExchange) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.has_value());
  const std::uint16_t port = listener->port();
  EXPECT_GT(port, 0);

  std::thread server([&] {
    auto conn = listener->accept();
    ASSERT_TRUE(conn.has_value());
    auto frame = conn->recv_frame();
    ASSERT_TRUE(frame.has_value());
    const Frame f = decode_frame(*frame);
    EXPECT_EQ(f.type, MessageType::kCheckoutRequest);
    conn->send_frame(encode_frame(MessageType::kAck, f.payload));
  });

  auto client = TcpConnection::connect("127.0.0.1", port);
  ASSERT_TRUE(client.has_value());
  const Bytes payload{5, 6, 7};
  ASSERT_TRUE(client->send_frame(
      encode_frame(MessageType::kCheckoutRequest, payload)));
  auto reply = client->recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decode_frame(*reply).payload, payload);
  server.join();
}

TEST(Tcp, LargeFrame) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.has_value());
  Bytes big(200000);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31);

  std::thread server([&] {
    auto conn = listener->accept();
    auto frame = conn->recv_frame();
    ASSERT_TRUE(frame.has_value());
    conn->send_frame(*frame);  // echo
  });

  auto client = TcpConnection::connect("localhost", listener->port());
  ASSERT_TRUE(client.has_value());
  client->send_frame(encode_frame(MessageType::kParams, big));
  auto reply = client->recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decode_frame(*reply).payload, big);
  server.join();
}

TEST(Tcp, EofReturnsNullopt) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.has_value());
  std::thread server([&] {
    auto conn = listener->accept();
    // Close immediately.
  });
  auto client = TcpConnection::connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  EXPECT_FALSE(client->recv_frame().has_value());
  server.join();
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Bind then immediately release a port, so nothing is listening.
  auto listener = TcpListener::bind(0);
  const std::uint16_t port = listener->port();
  listener->close();
  EXPECT_FALSE(TcpConnection::connect("127.0.0.1", port).has_value());
}

// ------------------------------------------- retry_after hint hardening
// The hint drives client sleep times, so a malformed or hostile reason
// must never yield a wrapped, truncated, or negative delay.

TEST(RetryAfterHint, RejectsNegativeValues) {
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=-1"));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=-250"));
}

TEST(RetryAfterHint, RejectsNonNumericSuffix) {
  // Digits must run to the end of the string: "12ms" is not 12.
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=12ms"));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=250 "));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=2.5"));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=+5"));
}

TEST(RetryAfterHint, RejectsOverflowPastInt) {
  // 2^31 and beyond used to wrap through long-long arithmetic into a
  // small "valid" int delay; out-of-range now rejects instead.
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=2147483648"));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=9223372036854775808"));
  EXPECT_FALSE(
      parse_retry_after("busy; retry_after_ms=99999999999999999999999"));
  // The cap itself (an hour) is the largest accepted hint.
  const auto hour = parse_retry_after("busy; retry_after_ms=3600000");
  ASSERT_TRUE(hour.has_value());
  EXPECT_EQ(*hour, 3'600'000);
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=3600001"));
}

TEST(RetryAfterHint, RejectsKeyBuriedMidToken) {
  // The key must be a whole token: either the start of the reason or
  // preceded by the "; " separator retry_after_reason writes.
  EXPECT_FALSE(parse_retry_after("xretry_after_ms=5"));
  EXPECT_FALSE(parse_retry_after("no_retry_after_ms=5"));
  EXPECT_FALSE(parse_retry_after("busy;retry_after_ms=5"));
  EXPECT_FALSE(parse_retry_after("busy retry_after_ms=5"));
  EXPECT_TRUE(parse_retry_after("retry_after_ms=5"));
  EXPECT_TRUE(parse_retry_after("busy; retry_after_ms=5"));
}
