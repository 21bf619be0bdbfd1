// Replication subsystem tests: epoch register durability and fencing,
// Repl* message codecs, the shipper's WAL tail cursor, quorum ack
// tracking, follower-mode engine redirects, and end-to-end leader ->
// follower streaming — including the determinism contract (leader and
// follower are byte-identical at equal log offsets) and snapshot
// catch-up past compacted history.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "engine/epoll_server.hpp"
#include "net/auth.hpp"
#include "net/tcp.hpp"
#include "opt/schedule.hpp"
#include "replica/epoch.hpp"
#include "replica/follower.hpp"
#include "replica/log_shipper.hpp"
#include "replica/repl_session.hpp"
#include "store/durable_store.hpp"

using namespace crowdml;
using replica::AckTracker;
using replica::EpochError;
using replica::EpochStore;
using replica::Follower;
using replica::FollowerOptions;
using replica::LogShipper;
using replica::ReplAckMode;
using replica::ShipperOptions;

namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_repl_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

core::ServerConfig config(std::size_t dim = 4, std::size_t classes = 3) {
  core::ServerConfig c;
  c.param_dim = dim;
  c.num_classes = classes;
  return c;
}

std::unique_ptr<opt::Updater> sgd(double c = 1.0) {
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(c), 100.0);
}

net::CheckinMessage random_checkin(rng::Engine& eng, std::uint64_t device) {
  net::CheckinMessage m;
  m.device_id = device;
  for (int i = 0; i < 4; ++i)
    m.g_hat.push_back(static_cast<double>(eng() % 2001) / 1000.0 - 1.0);
  m.ns = 1 + static_cast<std::int64_t>(eng() % 10);
  m.ne_hat = static_cast<std::int64_t>(eng() % 3);
  for (int i = 0; i < 3; ++i)
    m.ny_hat.push_back(static_cast<std::int64_t>(eng() % 5));
  return m;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Exact-state equality: parameters, iteration, per-device statistics.
void expect_same_state(core::Server& a, core::Server& b) {
  EXPECT_EQ(a.parameters(), b.parameters());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.total_samples(), b.total_samples());
  EXPECT_EQ(a.devices_seen(), b.devices_seen());
  EXPECT_EQ(a.estimated_error(), b.estimated_error());
  for (std::uint64_t id = 1; id <= 8; ++id) {
    const auto sa = a.device_stats(id);
    const auto sb = b.device_stats(id);
    EXPECT_EQ(sa.samples, sb.samples) << "device " << id;
    EXPECT_EQ(sa.errors_hat, sb.errors_hat) << "device " << id;
    EXPECT_EQ(sa.checkins, sb.checkins) << "device " << id;
    EXPECT_EQ(sa.label_counts_hat, sb.label_counts_hat) << "device " << id;
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
}

/// All WAL segment files in `dir`, sorted by name (== seq order).
std::vector<std::string> wal_segment_names(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

// ----------------------------------------------------------- epoch store

TEST(EpochStoreRepl, MissingFileLoadsZero) {
  TempDir td;
  EpochStore es(td.path);
  EXPECT_EQ(es.load(), 0u);
}

TEST(EpochStoreRepl, RoundTripAndReopen) {
  TempDir td;
  {
    EpochStore es(td.path);
    es.store(7);
    EXPECT_EQ(es.load(), 7u);
  }
  EpochStore again(td.path);
  EXPECT_EQ(again.load(), 7u);
}

TEST(EpochStoreRepl, RefusesLowering) {
  TempDir td;
  EpochStore es(td.path);
  es.store(5);
  es.store(5);  // idempotent rewrite is fine
  EXPECT_THROW(es.store(4), EpochError);
  EXPECT_EQ(es.load(), 5u);
}

TEST(EpochStoreRepl, CorruptFileRefusesToGuess) {
  TempDir td;
  EpochStore es(td.path);
  es.store(9);
  {
    std::fstream f(es.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(6);
    f.put('\x5a');
  }
  EXPECT_THROW(es.load(), EpochError);
  // A corrupt register also blocks store(): the monotonicity check
  // cannot be evaluated against garbage.
  EXPECT_THROW(es.store(10), EpochError);
}

// ------------------------------------------------------- message codecs

TEST(ReplMessages, HelloRoundTrip) {
  net::ReplHelloMessage m;
  m.follower_id = 42;
  m.epoch = 3;
  m.last_seq = 1234567;
  const auto back = net::ReplHelloMessage::deserialize(m.serialize());
  EXPECT_EQ(back.follower_id, 42u);
  EXPECT_EQ(back.epoch, 3u);
  EXPECT_EQ(back.last_seq, 1234567u);
}

TEST(ReplMessages, AppendRoundTripPreservesPayloadBytes) {
  net::ReplAppendMessage m;
  m.epoch = 2;
  m.want_ack = false;
  m.records.push_back({1, {0x01, 0x02, 0x03}});
  m.records.push_back({2, {}});
  m.records.push_back({3, {0xff}});
  const auto back = net::ReplAppendMessage::deserialize(m.serialize());
  EXPECT_EQ(back.epoch, 2u);
  EXPECT_FALSE(back.want_ack);
  ASSERT_EQ(back.records.size(), 3u);
  EXPECT_EQ(back.records[0].seq, 1u);
  EXPECT_EQ(back.records[0].payload, (net::Bytes{0x01, 0x02, 0x03}));
  EXPECT_TRUE(back.records[1].payload.empty());
  EXPECT_EQ(back.records[2].payload, (net::Bytes{0xff}));
}

TEST(ReplMessages, SnapshotAndAckRoundTrip) {
  net::ReplSnapshotMessage s;
  s.epoch = 4;
  s.want_ack = true;
  s.version = 99;
  s.total_bytes = 8;
  s.offset = 3;
  s.checkpoint = {1, 2, 3, 4, 5};
  const auto sb = net::ReplSnapshotMessage::deserialize(s.serialize());
  EXPECT_EQ(sb.version, 99u);
  EXPECT_EQ(sb.total_bytes, 8u);
  EXPECT_EQ(sb.offset, 3u);
  EXPECT_TRUE(sb.last_chunk());
  EXPECT_EQ(sb.checkpoint, s.checkpoint);
  // A chunk claiming more bytes than its stated total is wire abuse.
  s.total_bytes = 4;
  s.offset = 0;
  EXPECT_THROW(net::ReplSnapshotMessage::deserialize(s.serialize()),
               net::CodecError);

  net::ReplAckMessage a;
  a.epoch = 4;
  a.durable_seq = 77;
  const auto ab = net::ReplAckMessage::deserialize(a.serialize());
  EXPECT_EQ(ab.epoch, 4u);
  EXPECT_EQ(ab.durable_seq, 77u);
}

TEST(ReplMessages, TrailingBytesRejected) {
  net::ReplAckMessage a;
  a.epoch = 1;
  a.durable_seq = 2;
  net::Bytes bytes = a.serialize();
  bytes.push_back(0x00);
  EXPECT_THROW(net::ReplAckMessage::deserialize(bytes), net::CodecError);
}

TEST(ReplMessages, FrameTypeBoundsEnforced) {
  // Types 5-10 frame fine; anything past kMaxMessageType is refused.
  const net::Bytes ok =
      net::encode_frame(net::MessageType::kReplAck,
                        net::ReplAckMessage{}.serialize());
  EXPECT_EQ(net::decode_frame(ok).type, net::MessageType::kReplAck);
  const net::Bytes bad = net::encode_frame(
      static_cast<net::MessageType>(net::kMaxMessageType + 1), {});
  EXPECT_THROW(net::decode_frame(bad), net::CodecError);
}

TEST(ReplRedirect, RoundTrip) {
  const std::string reason = net::not_leader_reason("10.0.0.1:9000");
  const auto addr = net::parse_leader_redirect(reason);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(*addr, "10.0.0.1:9000");
  EXPECT_FALSE(net::parse_leader_redirect("server at capacity"));
  EXPECT_FALSE(net::parse_leader_redirect("not leader; leader="));
  EXPECT_FALSE(net::parse_leader_redirect(""));
}

TEST(ReplAckModes, ParseAndName) {
  EXPECT_EQ(replica::parse_repl_ack_mode("none"), ReplAckMode::kNone);
  EXPECT_EQ(replica::parse_repl_ack_mode("async"), ReplAckMode::kAsync);
  EXPECT_EQ(replica::parse_repl_ack_mode("quorum"), ReplAckMode::kQuorum);
  EXPECT_FALSE(replica::parse_repl_ack_mode("sync").has_value());
  EXPECT_STREQ(replica::repl_ack_mode_name(ReplAckMode::kQuorum), "quorum");
}

TEST(ReplQuorumSize, MajorityOfConfiguredFollowers) {
  EXPECT_EQ(replica::quorum_follower_acks_for(0), 0u);
  EXPECT_EQ(replica::quorum_follower_acks_for(1), 1u);
  EXPECT_EQ(replica::quorum_follower_acks_for(2), 1u);  // 2 of 3 nodes
  EXPECT_EQ(replica::quorum_follower_acks_for(3), 2u);
  EXPECT_EQ(replica::quorum_follower_acks_for(4), 2u);  // 3 of 5 nodes
}

// ------------------------------------------------------- batch shipping

/// Seqs of `records`, for compact comparisons.
std::vector<std::uint64_t> seqs_of(const std::vector<store::WalRecord>& records) {
  std::vector<std::uint64_t> out;
  for (const auto& r : records) out.push_back(r.seq);
  return out;
}

std::vector<std::uint64_t> seq_range(std::uint64_t from, std::uint64_t to) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = from; s <= to; ++s) out.push_back(s);
  return out;
}

/// Append `bytes` to the file at `path` (simulating a writer mid-append).
void append_raw(const std::string& path, const net::Bytes& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

std::string segment_path(const std::string& dir, std::uint64_t first_seq) {
  char name[40];
  std::snprintf(name, sizeof(name), "wal-%020llu.log",
                static_cast<unsigned long long>(first_seq));
  return dir + "/" + name;
}

TEST(ReplBatch, ReadsAfterCursorUpToWatermark) {
  TempDir td;
  obs::MetricsRegistry reg;
  store::WalOptions wo;
  wo.metrics = &reg;
  store::WriteAheadLog wal(td.path, wo);
  wal.open_and_replay(0, [](std::uint64_t, const net::Bytes&) {});
  for (std::uint64_t s = 1; s <= 10; ++s) wal.append(s, {0x10, 0x20});
  wal.sync();

  store::WalTailReader reader(td.path, 0);
  auto b = reader.next(10, 256, 1u << 20);
  EXPECT_FALSE(b.gap);
  EXPECT_EQ(seqs_of(b.records), seq_range(1, 10));
  EXPECT_EQ(b.records.front().payload, (net::Bytes{0x10, 0x20}));
  EXPECT_EQ(reader.cursor(), 10u);

  // A cold open mid-segment skips the records at or below the cursor.
  reader.seek(4);
  b = reader.next(10, 256, 1u << 20);
  EXPECT_EQ(seqs_of(b.records), seq_range(5, 10));

  // Records past the committed watermark may be mid-commit: held back.
  reader.seek(0);
  b = reader.next(7, 256, 1u << 20);
  EXPECT_EQ(seqs_of(b.records), seq_range(1, 7));

  reader.seek(0);
  b = reader.next(10, 3, 1u << 20);
  EXPECT_EQ(b.records.size(), 3u);

  // The byte cap always keeps at least one record (progress guarantee).
  reader.seek(0);
  b = reader.next(10, 256, 1);
  EXPECT_EQ(b.records.size(), 1u);

  reader.seek(10);
  b = reader.next(10, 256, 1u << 20);
  EXPECT_TRUE(b.records.empty());
  EXPECT_FALSE(b.gap);
}

TEST(ReplBatch, PrunedHistoryReportsGap) {
  TempDir td;
  obs::MetricsRegistry reg;
  store::WalOptions wo;
  wo.metrics = &reg;
  wo.segment_max_bytes = 1;  // rotate after every record
  store::WriteAheadLog wal(td.path, wo);
  wal.open_and_replay(0, [](std::uint64_t, const net::Bytes&) {});
  for (std::uint64_t s = 1; s <= 10; ++s) wal.append(s, {0x42});
  wal.sync();
  ASSERT_GT(wal.truncate_through(5), 0u);

  store::WalTailReader reader(td.path, 0);
  auto b = reader.next(10, 256, 1u << 20);
  EXPECT_TRUE(b.gap) << "cursor 0 predates the oldest surviving record";
  EXPECT_TRUE(b.records.empty());
  EXPECT_EQ(reader.cursor(), 0u);

  reader.seek(5);
  b = reader.next(10, 256, 1u << 20);
  EXPECT_FALSE(b.gap);
  ASSERT_FALSE(b.records.empty());
  EXPECT_EQ(b.records.front().seq, 6u);
}

TEST(ReplBatch, BatchSpansSegmentRotation) {
  TempDir td;
  obs::MetricsRegistry reg;
  store::WalOptions wo;
  wo.metrics = &reg;
  wo.segment_max_bytes = 3 * (20 + 8);  // rotate every third record
  store::WriteAheadLog wal(td.path, wo);
  wal.open_and_replay(0, [](std::uint64_t, const net::Bytes&) {});
  for (std::uint64_t s = 1; s <= 4; ++s) wal.append(s, net::Bytes(8, 0x11));

  store::WalTailReader reader(td.path, 0);
  auto b = reader.next(4, 256, 1u << 20);
  EXPECT_EQ(seqs_of(b.records), seq_range(1, 4))
      << "one batch crosses the first rotation";

  // The cursor now sits in the active segment; later rotations happen
  // under it and a single batch follows them across three segments.
  for (std::uint64_t s = 5; s <= 11; ++s) wal.append(s, net::Bytes(8, 0x22));
  ASSERT_GE(wal.segment_count(), 4u);
  b = reader.next(11, 256, 1u << 20);
  EXPECT_FALSE(b.gap);
  EXPECT_EQ(seqs_of(b.records), seq_range(5, 11));
  EXPECT_EQ(b.records.back().payload, net::Bytes(8, 0x22));
  EXPECT_TRUE(reader.next(11, 256, 1u << 20).records.empty());
}

TEST(ReplBatch, CompactionUnderCursorGivesGapThenSnapshotResume) {
  TempDir td;
  obs::MetricsRegistry reg;
  store::WalOptions wo;
  wo.metrics = &reg;
  wo.segment_max_bytes = 1;  // rotate after every record
  store::WriteAheadLog wal(td.path, wo);
  wal.open_and_replay(0, [](std::uint64_t, const net::Bytes&) {});
  for (std::uint64_t s = 1; s <= 10; ++s) wal.append(s, {0x42});

  store::WalTailReader reader(td.path, 0);
  ASSERT_EQ(seqs_of(reader.next(10, 3, 1u << 20).records), seq_range(1, 3));

  // A snapshot at 6 compacts the segment the cursor sits in and the ones
  // after it: the cursor cannot continue, and says so.
  ASSERT_GE(wal.truncate_through(6), 6u);
  auto b = reader.next(10, 256, 1u << 20);
  EXPECT_TRUE(b.gap);
  EXPECT_TRUE(b.records.empty());
  EXPECT_EQ(reader.cursor(), 3u);
  EXPECT_TRUE(reader.next(10, 256, 1u << 20).gap) << "gap until repositioned";

  // The snapshot path: the consumer installs state at 6 and the cursor
  // resumes cold above it.
  reader.seek(6);
  b = reader.next(10, 256, 1u << 20);
  EXPECT_FALSE(b.gap);
  EXPECT_EQ(seqs_of(b.records), seq_range(7, 10));
}

TEST(ReplBatch, PartialRecordPastWatermarkDoesNotMoveCursor) {
  TempDir td;
  const std::string seg = segment_path(td.path, 1);
  for (std::uint64_t s = 1; s <= 5; ++s)
    append_raw(seg, store::encode_wal_record(s, net::Bytes(16, 0x33)));
  const net::Bytes rec6 = store::encode_wal_record(6, net::Bytes(16, 0x66));
  // Record 6 is mid-append: its header and half its body are on disk.
  append_raw(seg, net::Bytes(rec6.begin(), rec6.begin() + 24));

  store::WalTailReader reader(td.path, 0);
  EXPECT_EQ(seqs_of(reader.next(3, 256, 1u << 20).records), seq_range(1, 3));
  // Watermark 5: the partial record 6 sits past it and ends the read.
  EXPECT_EQ(seqs_of(reader.next(5, 256, 1u << 20).records), seq_range(4, 5));
  EXPECT_EQ(reader.cursor(), 5u);
  // Even once 6 is committed, a torn frame is not shipped or skipped.
  auto b = reader.next(6, 256, 1u << 20);
  EXPECT_TRUE(b.records.empty());
  EXPECT_FALSE(b.gap);
  EXPECT_EQ(reader.cursor(), 5u);

  append_raw(seg, net::Bytes(rec6.begin() + 24, rec6.end()));
  b = reader.next(6, 256, 1u << 20);
  ASSERT_EQ(seqs_of(b.records), seq_range(6, 6));
  EXPECT_EQ(b.records[0].payload, net::Bytes(16, 0x66));
}

TEST(ReplBatch, WatermarkAndByteCapCutsSkipNothing) {
  TempDir td;
  obs::MetricsRegistry reg;
  store::WalOptions wo;
  wo.metrics = &reg;
  wo.segment_max_bytes = 512;
  store::WriteAheadLog wal(td.path, wo);
  wal.open_and_replay(0, [](std::uint64_t, const net::Bytes&) {});
  for (std::uint64_t s = 1; s <= 20; ++s)
    wal.append(s, net::Bytes(100, static_cast<std::uint8_t>(s)));

  // 250 payload bytes per batch fit two 100-byte records; the third is
  // cut and must come first in the next batch. Watermarks cut too.
  store::WalTailReader reader(td.path, 0);
  std::vector<std::uint64_t> got;
  for (const std::uint64_t watermark : {3, 3, 7, 12, 20, 20, 20, 20, 20}) {
    const auto b = reader.next(watermark, 256, 250);
    EXPECT_FALSE(b.gap);
    EXPECT_LE(b.records.size(), 2u);
    for (const auto& r : b.records) {
      EXPECT_LE(r.seq, static_cast<std::uint64_t>(watermark));
      EXPECT_EQ(r.payload, net::Bytes(100, static_cast<std::uint8_t>(r.seq)));
      got.push_back(r.seq);
    }
  }
  EXPECT_EQ(got, seq_range(1, 17));
  while (reader.cursor() < 20) {
    const auto b = reader.next(20, 256, 250);
    ASSERT_FALSE(b.records.empty());
    for (const auto& r : b.records) got.push_back(r.seq);
  }
  EXPECT_EQ(got, seq_range(1, 20));
}

// --------------------------------------------------------- ack tracking

TEST(ReplAckTracker, QuorumIsKthLargestAmongLiveSessions) {
  AckTracker t;
  EXPECT_EQ(t.quorum_acked(1), 0u) << "no sessions, no quorum";
  t.join(1);
  t.join(2);
  t.join(3);
  t.ack(1, 10);
  t.ack(2, 20);
  t.ack(3, 30);
  EXPECT_EQ(t.sessions(), 3u);
  EXPECT_EQ(t.max_acked(), 30u);
  EXPECT_EQ(t.min_acked(), 10u);
  EXPECT_EQ(t.quorum_acked(1), 30u);
  EXPECT_EQ(t.quorum_acked(2), 20u);
  EXPECT_EQ(t.quorum_acked(3), 10u);
  EXPECT_EQ(t.quorum_acked(4), 0u) << "fewer live sessions than k";
  t.ack(2, 5);  // stale regression ignored
  EXPECT_EQ(t.quorum_acked(2), 20u);
  t.leave(3);
  EXPECT_EQ(t.quorum_acked(2), 10u);
}

TEST(ReplAckTracker, ZeroRequiredAcksIsTriviallySatisfied) {
  // A promoted leader with no peers (electorate of one) needs zero
  // follower acks; its checkins must not wait out the quorum timeout.
  AckTracker t;
  EXPECT_EQ(t.quorum_acked(0), UINT64_MAX);
  EXPECT_TRUE(t.await(100, 0, 1, nullptr));
  t.join(1);
  t.ack(1, 5);
  EXPECT_EQ(t.quorum_acked(0), UINT64_MAX);
  EXPECT_TRUE(t.await(1000, 0, 1, nullptr));
}

TEST(ReplAckTracker, AwaitBlocksUntilQuorumOrTimeout) {
  AckTracker t;
  t.join(1);
  EXPECT_FALSE(t.await(100, 1, 50, nullptr));

  std::thread acker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t.ack(1, 100);
  });
  EXPECT_TRUE(t.await(100, 1, 2000, nullptr));
  acker.join();
}

TEST(ReplAckTracker, AwaitAbortsOnWake) {
  AckTracker t;
  t.join(1);
  std::atomic<bool> aborted{false};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    aborted.store(true);
    t.wake();
  });
  EXPECT_FALSE(t.await(100, 1, 5000, [&] { return aborted.load(); }));
  waker.join();
}

// -------------------------------------------- follower-mode engine

TEST(FollowerEngine, RedirectsCheckinsServesCheckouts) {
  core::Server server(config(), sgd(), rng::Engine(1));
  net::AuthRegistry auth{rng::Engine(2)};
  const auto creds = auth.enroll();
  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.checkin_redirect = "127.0.0.1:9000";
  ecfg.metrics = &reg;
  engine::EpollCrowdServer srv(server, auth, ecfg);

  auto conn = net::TcpConnection::connect("127.0.0.1", srv.port(), 2000);
  ASSERT_TRUE(conn.has_value());
  conn->set_deadline_ms(2000);

  // Checkout: served from the board as usual.
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  ASSERT_TRUE(conn->send_frame(net::encode_frame(
      net::MessageType::kCheckoutRequest, req.serialize())));
  auto reply = conn->recv_frame();
  ASSERT_TRUE(reply.has_value());
  const auto params =
      net::ParamsMessage::deserialize(net::decode_frame(*reply).payload);
  EXPECT_TRUE(params.accepted);
  EXPECT_EQ(params.version, 0u);

  // Checkin: refused with a parseable redirect; the model is untouched.
  rng::Engine eng(3);
  net::CheckinMessage m = random_checkin(eng, creds.device_id);
  m.auth_tag = creds.sign(m.body());
  ASSERT_TRUE(conn->send_frame(
      net::encode_frame(net::MessageType::kCheckin, m.serialize())));
  reply = conn->recv_frame();
  ASSERT_TRUE(reply.has_value());
  const auto ack =
      net::AckMessage::deserialize(net::decode_frame(*reply).payload);
  EXPECT_FALSE(ack.ok);
  const auto leader = net::parse_leader_redirect(ack.reason);
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(*leader, "127.0.0.1:9000");
  EXPECT_EQ(server.version(), 0u);

  srv.shutdown();
}

// --------------------------------------------- end-to-end replication

namespace {

/// A leader wired the way crowdml-server wires it: durable store attached
/// (per-record appends; tests call notify_committed explicitly) plus a
/// shipper at `epoch`.
struct LeaderRig {
  TempDir dir;
  obs::MetricsRegistry reg;
  core::Server server;
  std::unique_ptr<store::DurableStore> store;
  std::unique_ptr<LogShipper> shipper;

  explicit LeaderRig(ReplAckMode mode, std::uint64_t epoch = 1,
                     std::size_t segment_max_bytes = 4u << 20,
                     int quorum_timeout_ms = 400,
                     const std::function<void(ShipperOptions&)>& tweak = {})
      : server(config(), sgd(), rng::Engine(1)) {
    store::DurableStoreOptions so;
    so.wal.metrics = &reg;
    so.wal.segment_max_bytes = segment_max_bytes;
    store = std::make_unique<store::DurableStore>(dir.path, so);
    store->recover(server);
    store->attach(server);
    ShipperOptions shopts;
    shopts.ack_mode = mode;
    shopts.quorum_follower_acks = 1;
    shopts.quorum_timeout_ms = quorum_timeout_ms;
    shopts.metrics = &reg;
    if (tweak) tweak(shopts);
    shipper = std::make_unique<LogShipper>(server, *store, epoch, shopts);
  }

  /// Apply `n` accepted checkins across 4 devices and advance the
  /// shipping watermark past them.
  void drive(rng::Engine& eng, int n) {
    for (int i = 0; i < n; ++i) {
      net::CheckinMessage m = random_checkin(eng, 1 + (i % 4));
      m.param_version = server.version();
      const auto ack = server.handle_checkin(m);
      ASSERT_TRUE(ack.ok) << ack.reason;
    }
    store->sync();
    shipper->notify_committed();
  }
};

struct FollowerRig {
  TempDir dir;
  obs::MetricsRegistry reg;
  core::Server server;
  std::unique_ptr<Follower> follower;

  explicit FollowerRig(std::uint16_t leader_port, std::uint64_t id = 1,
                       std::size_t segment_max_bytes = 4u << 20)
      : server(config(), sgd(), rng::Engine(1)) {
    FollowerOptions fo;
    fo.leader_port = leader_port;
    fo.follower_id = id;
    fo.store.wal.metrics = &reg;
    fo.store.wal.segment_max_bytes = segment_max_bytes;
    fo.metrics = &reg;
    fo.reconnect_backoff_ms = 20;
    follower = std::make_unique<Follower>(server, dir.path, fo);
  }
};

}  // namespace

TEST(Replication, FollowerConvergesByteIdentical) {
  LeaderRig leader(ReplAckMode::kAsync, 1, /*segment_max_bytes=*/512);
  FollowerRig f(leader.shipper->port(), 1, /*segment_max_bytes=*/512);
  f.follower->start();

  rng::Engine eng(5);
  leader.drive(eng, 40);
  ASSERT_EQ(leader.server.version(), 40u);
  ASSERT_TRUE(wait_until([&] { return f.follower->applied_seq() == 40u; }))
      << "follower reached seq " << f.follower->applied_seq();

  // Same in-memory state, down to per-device statistics.
  expect_same_state(leader.server, f.server);

  // Same *published* model: the frames devices actually receive are
  // byte-identical.
  engine::ModelSnapshotBoard bl(&leader.reg), bf(&f.reg);
  bl.publish(leader.server);
  bf.publish(f.server);
  EXPECT_EQ(bl.current()->params_frame, bf.current()->params_frame);

  // Same bytes on disk: every WAL segment matches file-for-file (same
  // records, same segment boundaries, same encoding).
  f.follower->shutdown();
  const auto names = wal_segment_names(leader.dir.path);
  ASSERT_FALSE(names.empty());
  EXPECT_GT(names.size(), 1u) << "want multiple segments for a real check";
  EXPECT_EQ(names, wal_segment_names(f.dir.path));
  for (const auto& name : names)
    EXPECT_EQ(read_file(leader.dir.path + "/" + name),
              read_file(f.dir.path + "/" + name))
        << name;

  leader.shipper->shutdown();
}

TEST(Replication, SnapshotCatchUpPastCompactedHistory) {
  LeaderRig leader(ReplAckMode::kAsync, 1, /*segment_max_bytes=*/256);
  rng::Engine eng(6);
  leader.drive(eng, 30);
  // Compaction prunes shipped history: a fresh follower's cursor 0 now
  // falls in a gap and must be served a snapshot first.
  ASSERT_TRUE(leader.store->compact(leader.server));
  ASSERT_TRUE(store::WalTailReader(leader.dir.path, 0).next(30, 1, 1).gap)
      << "compaction should have pruned seq 1";

  FollowerRig f(leader.shipper->port());
  f.follower->start();
  ASSERT_TRUE(wait_until([&] { return f.follower->applied_seq() == 30u; }));
  EXPECT_GE(f.follower->snapshots_installed(), 1);
  expect_same_state(leader.server, f.server);

  // Streaming resumes above the snapshot.
  leader.drive(eng, 10);
  ASSERT_TRUE(wait_until([&] { return f.follower->applied_seq() == 40u; }));
  expect_same_state(leader.server, f.server);

  f.follower->shutdown();
  leader.shipper->shutdown();
}

TEST(Replication, ShipReadsOnlyTheAppendedTail) {
  // Read amplification: once a follower is caught up, shipping N new
  // records must read about N records of WAL, not the active segment
  // they were appended to.
  LeaderRig leader(ReplAckMode::kAsync);
  auto& appended = leader.reg.counter("crowdml_wal_bytes_total", "x",
                                      obs::Provenance::kTransportEvent);
  auto& read = leader.reg.counter("crowdml_repl_wal_bytes_read_total", "x",
                                  obs::Provenance::kTransportEvent);
  rng::Engine eng(21);
  while (appended.value() < (1 << 20)) leader.drive(eng, 500);
  ASSERT_EQ(wal_segment_names(leader.dir.path).size(), 1u)
      << "want one active segment holding >= 1 MiB";

  FollowerRig f(leader.shipper->port());
  f.follower->start();
  const auto caught_up = [&] {
    return f.follower->applied_seq() == leader.server.version();
  };
  ASSERT_TRUE(wait_until(caught_up, 30000));
  EXPECT_GE(read.value(), appended.value())
      << "the session's cold start walks the segment once";

  for (int round = 0; round < 5; ++round) {
    const long long appended0 = appended.value();
    const long long read0 = read.value();
    leader.drive(eng, 4);
    ASSERT_TRUE(wait_until(caught_up));
    const long long batch_bytes = appended.value() - appended0;
    const long long read_bytes = read.value() - read0;
    EXPECT_GE(read_bytes, batch_bytes) << "round " << round;
    EXPECT_LE(read_bytes, 2 * batch_bytes)
        << "round " << round << ": shipping 4 records read " << read_bytes
        << " bytes of a " << appended.value() << "-byte segment";
  }

  f.follower->shutdown();
  leader.shipper->shutdown();
}

TEST(Replication, QuorumGatesAcksOnFollowerDurability) {
  LeaderRig leader(ReplAckMode::kQuorum, 1, 4u << 20,
                   /*quorum_timeout_ms=*/250);
  rng::Engine eng(7);

  // No follower connected: the checkin applies but its ack must not be
  // released — await_quorum times out.
  leader.drive(eng, 1);
  EXPECT_FALSE(leader.shipper->await_quorum(leader.store->wal().last_seq()));

  FollowerRig f(leader.shipper->port());
  f.follower->start();
  ASSERT_TRUE(wait_until([&] { return f.follower->connected(); }));

  leader.drive(eng, 5);
  EXPECT_TRUE(leader.shipper->await_quorum(leader.store->wal().last_seq()))
      << "a connected, durably-appending follower satisfies the quorum";
  EXPECT_EQ(f.follower->applied_seq(), 6u);

  f.follower->shutdown();
  leader.shipper->shutdown();
}

// ----------------------------------------------------------- fencing

TEST(ReplFencing, LeaderFencedByNewerHello) {
  LeaderRig leader(ReplAckMode::kQuorum, /*epoch=*/1);
  ASSERT_FALSE(leader.shipper->fenced());

  auto conn =
      net::TcpConnection::connect("127.0.0.1", leader.shipper->port(), 2000);
  ASSERT_TRUE(conn.has_value());
  conn->set_deadline_ms(2000);
  net::ReplHelloMessage hello;
  hello.follower_id = 9;
  hello.epoch = 2;  // a promoted follower exists somewhere
  ASSERT_TRUE(conn->send_frame(
      net::encode_frame(net::MessageType::kReplHello, hello.serialize())));
  EXPECT_FALSE(conn->recv_frame().has_value()) << "fenced leader hangs up";
  ASSERT_TRUE(wait_until([&] { return leader.shipper->fenced(); }));
  // A fenced leader can no longer ack quorum writes: no split-brain.
  EXPECT_FALSE(leader.shipper->await_quorum(1));

  leader.shipper->shutdown();
}

TEST(ReplFencing, FollowerRefusesStaleFramesAndAdoptsNewer) {
  // Fake leader: a bare listener we script by hand.
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.has_value());

  FollowerRig f(listener->port());
  EpochStore(f.dir.path).store(3);
  // A leader of epoch 3 actually spoke to this follower (not just a
  // promise): witnessed too, so the hello may advertise it.
  EpochStore(f.dir.path, "witnessed-epoch").store(3);
  // Re-create so the follower loads the promised epoch (the rig already
  // built one against epoch 0).
  f.follower = nullptr;
  FollowerOptions fo;
  fo.leader_port = listener->port();
  fo.follower_id = 2;
  fo.store.wal.metrics = &f.reg;
  fo.metrics = &f.reg;
  fo.reconnect_backoff_ms = 20;
  f.follower = std::make_unique<Follower>(f.server, f.dir.path, fo);
  EXPECT_EQ(f.follower->epoch(), 3u);
  f.follower->start();

  // Session 1: a deposed leader (epoch 1) ships a frame — refused.
  {
    auto conn = listener->accept();
    ASSERT_TRUE(conn.has_value());
    conn->set_deadline_ms(2000);
    auto hello_frame = conn->recv_frame();
    ASSERT_TRUE(hello_frame.has_value());
    const auto hello = net::ReplHelloMessage::deserialize(
        net::decode_frame(*hello_frame).payload);
    EXPECT_EQ(hello.epoch, 3u);
    net::ReplAppendMessage stale;
    stale.epoch = 1;
    ASSERT_TRUE(conn->send_frame(net::encode_frame(
        net::MessageType::kReplAppend, stale.serialize())));
    // The refusal is not silent: an unsolicited ack carries the promised
    // epoch so the deposed sender fences itself (leader step-down)...
    auto refusal_frame = conn->recv_frame();
    ASSERT_TRUE(refusal_frame.has_value());
    const auto refusal = net::ReplAckMessage::deserialize(
        net::decode_frame(*refusal_frame).payload);
    EXPECT_EQ(refusal.epoch, 3u);
    // ...and then the follower hangs up.
    EXPECT_FALSE(conn->recv_frame().has_value()) << "follower hangs up";
  }
  ASSERT_TRUE(
      wait_until([&] { return f.follower->stale_frames_refused() >= 1; }));
  EXPECT_EQ(f.follower->applied_seq(), 0u);

  // Session 2 (the follower reconnects): a newer leader (epoch 5) ships a
  // real record — adopted durably, applied, acked at the new epoch.
  {
    auto conn = listener->accept();
    ASSERT_TRUE(conn.has_value());
    conn->set_deadline_ms(2000);
    ASSERT_TRUE(conn->recv_frame().has_value());  // hello
    rng::Engine eng(8);
    net::CheckinMessage m = random_checkin(eng, 1);
    net::ReplAppendMessage fresh;
    fresh.epoch = 5;
    fresh.want_ack = true;
    fresh.records.push_back({1, m.serialize()});
    ASSERT_TRUE(conn->send_frame(net::encode_frame(
        net::MessageType::kReplAppend, fresh.serialize())));
    auto ack_frame = conn->recv_frame();
    ASSERT_TRUE(ack_frame.has_value());
    const auto ack = net::ReplAckMessage::deserialize(
        net::decode_frame(*ack_frame).payload);
    EXPECT_EQ(ack.epoch, 5u);
    EXPECT_EQ(ack.durable_seq, 1u);
  }
  EXPECT_EQ(f.follower->epoch(), 5u);
  EXPECT_EQ(f.follower->applied_seq(), 1u);
  f.follower->shutdown();
  // The adopted epoch survived durably: a restart still refuses epoch < 5.
  EXPECT_EQ(EpochStore(f.dir.path).load(), 5u);
  // And it was witnessed (a leader spoke it), so a restarted hello may
  // advertise it.
  EXPECT_EQ(EpochStore(f.dir.path, "witnessed-epoch").load(), 5u);
  listener->close();
}

TEST(ReplFencing, RestartAdvertisesWitnessedNotPromisedEpoch) {
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.has_value());

  // The aftermath of failed candidacies: promises climbed to 5 with no
  // epoch-5 leader ever heard; the last leader that actually spoke to
  // this node led epoch 1.
  FollowerRig f(listener->port());
  EpochStore(f.dir.path).store(5);
  EpochStore(f.dir.path, "witnessed-epoch").store(1);
  f.follower = nullptr;
  FollowerOptions fo;
  fo.leader_port = listener->port();
  fo.follower_id = 3;
  fo.store.wal.metrics = &f.reg;
  fo.metrics = &f.reg;
  fo.reconnect_backoff_ms = 20;
  f.follower = std::make_unique<Follower>(f.server, f.dir.path, fo);
  EXPECT_EQ(f.follower->epoch(), 5u);
  EXPECT_EQ(f.follower->witnessed_epoch(), 1u);
  f.follower->start();

  // The restarted hello advertises the witness, not the promise: were it
  // the promise, this one starved node would fence the live epoch-1
  // leader it is reconnecting to.
  auto conn = listener->accept();
  ASSERT_TRUE(conn.has_value());
  conn->set_deadline_ms(2000);
  auto hello_frame = conn->recv_frame();
  ASSERT_TRUE(hello_frame.has_value());
  const auto hello = net::ReplHelloMessage::deserialize(
      net::decode_frame(*hello_frame).payload);
  EXPECT_EQ(hello.epoch, 1u);

  f.follower->shutdown();
  listener->close();
}

TEST(ReplFencing, RefusalAckStepsDownHeartbeatingLeader) {
  // A deposed leader that never ships records (devices keep checking in,
  // but its followers all refuse) must still learn of its deposition:
  // the refusal ack is the step-down signal.
  LeaderRig leader(
      ReplAckMode::kQuorum, /*epoch=*/1, 4u << 20, 400,
      [](ShipperOptions& o) { o.heartbeat_interval_ms = 20; });
  auto conn =
      net::TcpConnection::connect("127.0.0.1", leader.shipper->port(), 2000);
  ASSERT_TRUE(conn.has_value());
  conn->set_deadline_ms(5000);
  net::ReplHelloMessage hello;
  hello.follower_id = 7;
  hello.epoch = 1;  // matches: the session is accepted
  ASSERT_TRUE(conn->send_frame(
      net::encode_frame(net::MessageType::kReplHello, hello.serialize())));
  auto first = conn->recv_frame();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(net::decode_frame(*first).type, net::MessageType::kReplHeartbeat);

  // The unsolicited ack a real follower sends after refusing a stale
  // frame: "my promise is 3; you are deposed".
  net::ReplAckMessage refusal;
  refusal.epoch = 3;
  ASSERT_TRUE(conn->send_frame(
      net::encode_frame(net::MessageType::kReplAck, refusal.serialize())));
  ASSERT_TRUE(wait_until([&] { return leader.shipper->fenced(); }))
      << "an unsolicited higher-epoch ack must fence the leader";

  // Fenced: the session ends (in-flight heartbeats drain to EOF), no new
  // leases go out, and quorum acks are refused — the write outage is
  // over as soon as the real followers elect a successor.
  conn->set_deadline_ms(2000);
  while (conn->recv_frame().has_value()) {
  }
  EXPECT_NE(conn->last_error(), net::NetError::kTimeout)
      << "a fenced leader must hang up, not keep heartbeating";
  EXPECT_FALSE(leader.shipper->await_quorum(1));
  leader.shipper->shutdown();
}

TEST(Replication, SnapshotTransferHeartbeatsThroughThrottle) {
  // A throttled snapshot must not read as leader death: heartbeats
  // interleave with the chunks, so the receiver's detector keeps getting
  // re-armed however slow the transfer runs.
  LeaderRig leader(ReplAckMode::kNone, 1, /*segment_max_bytes=*/256, 400,
                   [](ShipperOptions& o) {
                     o.heartbeat_interval_ms = 20;
                     o.snapshot_chunk_bytes = 64;
                     o.snapshot_max_bytes_per_sec = 1000;
                   });
  rng::Engine eng(6);
  leader.drive(eng, 30);
  ASSERT_TRUE(leader.store->compact(leader.server));

  // Scripted follower with cursor 0 (inside the compacted gap): count
  // what arrives between the first and last snapshot chunk.
  auto conn =
      net::TcpConnection::connect("127.0.0.1", leader.shipper->port(), 2000);
  ASSERT_TRUE(conn.has_value());
  conn->set_deadline_ms(10'000);
  net::ReplHelloMessage hello;
  hello.follower_id = 4;
  hello.epoch = 1;
  ASSERT_TRUE(conn->send_frame(
      net::encode_frame(net::MessageType::kReplHello, hello.serialize())));

  int heartbeats_mid_transfer = 0;
  int chunks = 0;
  std::uint64_t got_bytes = 0;
  for (;;) {
    auto frame = conn->recv_frame();
    ASSERT_TRUE(frame.has_value()) << "transfer died mid-snapshot";
    const net::Frame f = net::decode_frame(*frame);
    if (f.type == net::MessageType::kReplHeartbeat) {
      if (chunks > 0) ++heartbeats_mid_transfer;
      continue;
    }
    ASSERT_EQ(f.type, net::MessageType::kReplSnapshot);
    const auto snap = net::ReplSnapshotMessage::deserialize(f.payload);
    ++chunks;
    got_bytes += snap.checkpoint.size();
    if (snap.last_chunk()) {
      EXPECT_EQ(got_bytes, snap.total_bytes);
      break;
    }
  }
  EXPECT_GT(chunks, 1) << "want a genuinely chunked transfer";
  EXPECT_GE(heartbeats_mid_transfer, 1)
      << "the throttle ran the transfer long but no heartbeat interleaved";
  leader.shipper->shutdown();
}
