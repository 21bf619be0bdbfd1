// Fuzz-style robustness tests: random and mutated bytes must never crash
// the decoders or the protocol server — Section III-C's threat model
// includes arbitrary hostile input on every network-facing surface.
#include <gtest/gtest.h>

#include <sstream>

#include "core/checkpoint.hpp"
#include "core/protocol.hpp"
#include "data/io.hpp"
#include "models/logistic_regression.hpp"
#include "opt/schedule.hpp"
#include "rng/distributions.hpp"
#include "store/wal.hpp"

using namespace crowdml;

namespace {

net::Bytes random_bytes(rng::Engine& eng, std::size_t max_len) {
  net::Bytes b(rng::uniform_index(eng, max_len + 1));
  for (auto& v : b) v = static_cast<std::uint8_t>(eng());
  return b;
}

}  // namespace

TEST(Fuzz, FrameDecoderNeverCrashesOnRandomBytes) {
  rng::Engine eng(1);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const net::Bytes b = random_bytes(eng, 64);
    try {
      net::decode_frame(b);
      ++decoded;
    } catch (const net::CodecError&) {
      // expected for almost all inputs
    }
  }
  // Random bytes essentially never form a valid CRC-protected frame.
  EXPECT_EQ(decoded, 0);
}

TEST(Fuzz, MessageDeserializersNeverCrash) {
  rng::Engine eng(2);
  for (int i = 0; i < 20000; ++i) {
    const net::Bytes b = random_bytes(eng, 128);
    EXPECT_NO_FATAL_FAILURE({
      try {
        (void)net::CheckinMessage::deserialize(b);
      } catch (const net::CodecError&) {
      }
      try {
        (void)net::ParamsMessage::deserialize(b);
      } catch (const net::CodecError&) {
      }
      try {
        (void)net::CheckoutRequest::deserialize(b);
      } catch (const net::CodecError&) {
      }
      try {
        (void)net::AckMessage::deserialize(b);
      } catch (const net::CodecError&) {
      }
    });
  }
}

TEST(Fuzz, MutatedValidFramesHandledGracefully) {
  // Start from a valid checkin frame and flip random bytes: decode must
  // either throw CodecError (CRC catches it) or parse — never crash.
  rng::Engine eng(3);
  net::CheckinMessage m;
  m.device_id = 1;
  m.g_hat = {0.5, -0.5, 0.25};
  m.ns = 10;
  m.ny_hat = {5, 5};
  const net::Bytes valid =
      net::encode_frame(net::MessageType::kCheckin, m.serialize());
  for (int i = 0; i < 5000; ++i) {
    net::Bytes mutated = valid;
    const int flips = 1 + static_cast<int>(rng::uniform_index(eng, 4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos =
          static_cast<std::size_t>(rng::uniform_index(eng, mutated.size()));
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng::uniform_index(eng, 255));
    }
    try {
      const net::Frame frame = net::decode_frame(mutated);
      (void)net::CheckinMessage::deserialize(frame.payload);
    } catch (const net::CodecError&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, ProtocolServerAlwaysAnswersGarbage) {
  models::MulticlassLogisticRegression model(2, 3, 0.0);
  core::ServerConfig cfg;
  cfg.param_dim = model.param_dim();
  cfg.num_classes = 2;
  core::Server server(cfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::ConstantSchedule>(0.1), 100.0),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  core::ProtocolServer protocol(server, registry);

  rng::Engine eng(4);
  for (int i = 0; i < 5000; ++i) {
    const net::Bytes response = protocol.handle(random_bytes(eng, 96));
    // Every response is itself a well-formed frame.
    EXPECT_NO_THROW((void)net::decode_frame(response));
  }
  EXPECT_EQ(server.version(), 0u);  // nothing got through
}

namespace {

/// A dim-500 protocol server (the paper's 10 x 50 model) with one
/// enrolled device, and a valid signed checkin frame from that device.
struct Dim500Fixture {
  static constexpr std::size_t kClasses = 10;
  static constexpr std::size_t kDim = 500;
  core::Server server{
      [] {
        core::ServerConfig cfg;
        cfg.param_dim = kDim;
        cfg.num_classes = kClasses;
        return cfg;
      }(),
      std::make_unique<opt::SgdUpdater>(
          std::make_unique<opt::ConstantSchedule>(0.1), 100.0),
      rng::Engine(1)};
  net::AuthRegistry registry{rng::Engine(2)};
  core::ProtocolServer protocol{server, registry};
  net::Bytes frame;

  Dim500Fixture() {
    const net::DeviceCredentials cred = registry.enroll();
    rng::Engine eng(5);
    net::CheckinMessage m;
    m.device_id = cred.device_id;
    m.g_hat.resize(kDim);
    for (double& g : m.g_hat)
      g = static_cast<double>(eng() % 2001) / 1000.0 - 1.0;
    m.ns = 10;
    m.ny_hat.assign(kClasses, 1);
    m.auth_tag = cred.sign(m.body());
    frame = net::encode_frame(net::MessageType::kCheckin, m.serialize());
  }

  /// Handle `request`; true when it was refused (malformed or forged)
  /// and left the model untouched.
  bool refused(const net::Bytes& request) {
    const std::uint64_t before = server.version();
    const net::Frame resp = net::decode_frame(protocol.handle(request));
    return resp.type == net::MessageType::kAck &&
           !net::AckMessage::deserialize(resp.payload).ok &&
           server.version() == before;
  }
};

}  // namespace

TEST(Fuzz, Dim500CheckinTruncatedAtEveryOffsetIsNeverApplied) {
  Dim500Fixture fx;
  const net::Bytes payload = net::decode_frame(fx.frame).payload;
  for (std::size_t len = 0; len < fx.frame.size(); ++len) {
    const net::Bytes cut(fx.frame.begin(),
                         fx.frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)net::decode_frame_view(cut), net::CodecError) << len;
    ASSERT_TRUE(fx.refused(cut)) << "frame cut at " << len;
  }
  // Truncated payloads in well-formed frames reach the message decoder.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const net::Bytes cut(payload.begin(),
                         payload.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)net::CheckinMessage::deserialize(cut), net::CodecError)
        << len;
    ASSERT_TRUE(
        fx.refused(net::encode_frame(net::MessageType::kCheckin, cut)))
        << "payload cut at " << len;
  }
  EXPECT_EQ(fx.protocol.auth_failures(), 0);
  EXPECT_FALSE(fx.refused(fx.frame));  // the intact frame still applies
}

TEST(Fuzz, Dim500CheckinBitFlipAtEveryByteIsNeverApplied) {
  Dim500Fixture fx;
  const net::Bytes payload = net::decode_frame(fx.frame).payload;
  for (std::size_t at = 0; at < fx.frame.size(); ++at) {
    net::Bytes flipped = fx.frame;
    flipped[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
    ASSERT_TRUE(fx.refused(flipped)) << "frame bit flip at " << at;
  }
  // Flips under a recomputed CRC get past framing: each must fail to
  // parse or fail the tag.
  const long long before_malformed = fx.protocol.malformed_frames();
  for (std::size_t at = 0; at < payload.size(); ++at) {
    net::Bytes flipped = payload;
    flipped[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
    ASSERT_TRUE(
        fx.refused(net::encode_frame(net::MessageType::kCheckin, flipped)))
        << "payload bit flip at " << at;
  }
  EXPECT_EQ(fx.protocol.auth_failures() + fx.protocol.malformed_frames() -
                before_malformed,
            static_cast<long long>(payload.size()));
  EXPECT_GT(fx.protocol.auth_failures(), 0);
  EXPECT_FALSE(fx.refused(fx.frame));
}

TEST(Fuzz, SecAggDeserializersNeverCrash) {
  rng::Engine eng(9);
  for (int i = 0; i < 20000; ++i) {
    const net::Bytes b = random_bytes(eng, 160);
    EXPECT_NO_FATAL_FAILURE({
      try {
        (void)net::SecAggAssignMessage::deserialize(b);
      } catch (const net::CodecError&) {
      }
      try {
        (void)net::SecAggMaskedMessage::deserialize(b);
      } catch (const net::CodecError&) {
      }
      try {
        (void)net::SecAggRevealMessage::deserialize(b);
      } catch (const net::CodecError&) {
      }
    });
  }
}

TEST(Fuzz, MutatedSecAggPayloadsHandledGracefully) {
  // Start from valid payloads of all three secagg codecs and mutate
  // them three ways — truncate, corrupt a byte, duplicate trailing
  // bytes. The deserializer must either throw CodecError or parse;
  // never crash, hang, or over-read.
  rng::Engine eng(10);

  net::SecAggAssignMessage assign;
  assign.request = false;
  assign.status = net::kSecAggAssignAssigned;
  assign.round_id = 7;
  assign.roster = {1, 2, 3, 4};
  assign.deadline_ms = 900;
  assign.min_survivors = 2;

  net::SecAggMaskedMessage masked;
  masked.device_id = 2;
  masked.round_id = 7;
  masked.param_version = 5;
  masked.ns = 4;
  masked.masked_g = {11, 22, 33};
  masked.masked_ne = 44;
  masked.masked_ny = {55, 66};

  net::SecAggRevealMessage reveal;
  reveal.request = true;
  reveal.device_id = 2;
  reveal.round_id = 7;
  reveal.seeds.push_back({1, 4, net::Digest{}});

  const net::Bytes payloads[] = {assign.serialize(), masked.serialize(),
                                 reveal.serialize()};
  for (const net::Bytes& valid : payloads) {
    for (int i = 0; i < 3000; ++i) {
      net::Bytes mutated = valid;
      switch (rng::uniform_index(eng, 3)) {
        case 0:  // truncate at a random point
          mutated.resize(rng::uniform_index(eng, mutated.size() + 1));
          break;
        case 1: {  // corrupt one byte
          const std::size_t pos = rng::uniform_index(eng, mutated.size());
          mutated[pos] ^=
              static_cast<std::uint8_t>(1 + rng::uniform_index(eng, 255));
          break;
        }
        default: {  // duplicate a trailing slice
          const std::size_t n =
              rng::uniform_index(eng, std::min<std::size_t>(16, mutated.size())) + 1;
          const net::Bytes tail(mutated.end() - static_cast<std::ptrdiff_t>(n),
                                mutated.end());
          mutated.insert(mutated.end(), tail.begin(), tail.end());
          break;
        }
      }
      EXPECT_NO_FATAL_FAILURE({
        try {
          (void)net::SecAggAssignMessage::deserialize(mutated);
        } catch (const net::CodecError&) {
        }
        try {
          (void)net::SecAggMaskedMessage::deserialize(mutated);
        } catch (const net::CodecError&) {
        }
        try {
          (void)net::SecAggRevealMessage::deserialize(mutated);
        } catch (const net::CodecError&) {
        }
      });
    }
  }
}

TEST(Fuzz, ShardDeserializersNeverCrash) {
  rng::Engine eng(11);
  for (int i = 0; i < 20000; ++i) {
    const net::Bytes b = random_bytes(eng, 160);
    EXPECT_NO_FATAL_FAILURE({
      try {
        (void)net::ShardPullMessage::deserialize(b);
      } catch (const net::CodecError&) {
      }
      try {
        (void)net::ShardModelMessage::deserialize(b);
      } catch (const net::CodecError&) {
      }
      try {
        (void)net::ShardMergePushMessage::deserialize(b);
      } catch (const net::CodecError&) {
      }
    });
  }
}

TEST(Fuzz, MutatedShardPayloadsHandledGracefully) {
  // Same three-way mutation drill as the secagg codecs: the merge-plane
  // deserializers face the open device port, so truncated, corrupted,
  // and extended payloads must throw CodecError or parse — never crash.
  rng::Engine eng(12);

  net::ShardPullMessage pull;
  pull.merge_round = 9;

  net::ShardModelMessage model;
  model.shard_id = 1;
  model.merge_round = 9;
  model.version = 120;
  model.checkins = 40;
  model.q = {1, static_cast<std::uint64_t>(-5), 1u << 20};

  net::ShardMergePushMessage push;
  push.merge_round = 9;
  push.total_checkins = 64;
  push.q = {7, 8, 9};

  const net::Bytes payloads[] = {pull.serialize(), model.serialize(),
                                 push.serialize()};
  for (const net::Bytes& valid : payloads) {
    for (int i = 0; i < 3000; ++i) {
      net::Bytes mutated = valid;
      switch (rng::uniform_index(eng, 3)) {
        case 0:  // truncate at a random point
          mutated.resize(rng::uniform_index(eng, mutated.size() + 1));
          break;
        case 1: {  // corrupt one byte
          const std::size_t pos = rng::uniform_index(eng, mutated.size());
          mutated[pos] ^=
              static_cast<std::uint8_t>(1 + rng::uniform_index(eng, 255));
          break;
        }
        default: {  // duplicate a trailing slice
          const std::size_t n =
              rng::uniform_index(eng, std::min<std::size_t>(16, mutated.size())) + 1;
          const net::Bytes tail(mutated.end() - static_cast<std::ptrdiff_t>(n),
                                mutated.end());
          mutated.insert(mutated.end(), tail.begin(), tail.end());
          break;
        }
      }
      EXPECT_NO_FATAL_FAILURE({
        try {
          (void)net::ShardPullMessage::deserialize(mutated);
        } catch (const net::CodecError&) {
        }
        try {
          (void)net::ShardModelMessage::deserialize(mutated);
        } catch (const net::CodecError&) {
        }
        try {
          (void)net::ShardMergePushMessage::deserialize(mutated);
        } catch (const net::CodecError&) {
        }
      });
    }
  }
}

TEST(Fuzz, CsvReaderNeverCrashesOnRandomText) {
  rng::Engine eng(5);
  const std::string charset = "0123456789.,-+eE\nabcxyz ";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const std::size_t len = rng::uniform_index(eng, 200);
    for (std::size_t c = 0; c < len; ++c)
      text.push_back(charset[rng::uniform_index(eng, charset.size())]);
    std::istringstream in(text);
    try {
      (void)data::read_csv(in);
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, CheckpointDeserializerNeverCrashes) {
  rng::Engine eng(6);
  for (int i = 0; i < 10000; ++i) {
    const net::Bytes b = random_bytes(eng, 128);
    try {
      (void)core::ServerCheckpoint::deserialize(b);
    } catch (const net::CodecError&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, WalRecordDecoderNeverCrashesOnRandomBytes) {
  // A crash can leave anything at the WAL tail; the decoder must reject
  // it with WalError, never crash or loop, and never move the offset on
  // failure (recovery truncates at exactly that byte).
  rng::Engine eng(7);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const net::Bytes b = random_bytes(eng, 96);
    std::size_t offset = 0;
    try {
      (void)store::decode_wal_record(b, &offset);
      ++decoded;
    } catch (const store::WalError&) {
      EXPECT_EQ(offset, 0u);
    }
  }
  // Random bytes essentially never carry the magic plus a valid CRC.
  EXPECT_EQ(decoded, 0);
}

TEST(Fuzz, MutatedWalRecordsDetectedOrParsed) {
  // Flip random bytes of a valid record: decode must either throw
  // WalError or return a record — never crash. Single flips must always
  // be caught (CRC-32 detects all 1-bit errors).
  rng::Engine eng(8);
  net::CheckinMessage m;
  m.device_id = 3;
  m.g_hat = {0.25, -0.75, 0.5};
  m.ns = 4;
  m.ny_hat = {2, 2};
  const net::Bytes valid = store::encode_wal_record(17, m.serialize());
  for (int i = 0; i < 5000; ++i) {
    net::Bytes mutated = valid;
    const int flips = 1 + static_cast<int>(rng::uniform_index(eng, 4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos =
          static_cast<std::size_t>(rng::uniform_index(eng, mutated.size()));
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng::uniform_index(eng, 255));
    }
    std::size_t offset = 0;
    try {
      (void)store::decode_wal_record(mutated, &offset);
    } catch (const store::WalError&) {
    }
  }
  SUCCEED();
}
