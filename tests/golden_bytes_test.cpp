// Byte-identity pins for the checkin path: a seeded run of dim-500
// checkins (the paper's 10 x 50 model) through ProtocolServer, a
// group-committing DurableStore and the checkout snapshot board must
// write exactly these WAL, Params-frame, Ack-frame and Repl-seal bytes.
// The digests
// were recorded from the implementation that re-serialized every
// checkin before verifying and logging it, so a codec or integrity
// kernel change that alters one byte on the wire or on disk fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/protocol.hpp"
#include "engine/snapshot_board.hpp"
#include "opt/schedule.hpp"
#include "replica/repl_session.hpp"
#include "store/durable_store.hpp"

using namespace crowdml;

namespace {

constexpr std::size_t kClasses = 10;
constexpr std::size_t kDim = 50 * kClasses;

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_golden_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Every WAL segment in `dir`, concatenated in file-name (= seq) order.
net::Bytes wal_bytes(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().filename().string().rfind("wal-", 0) == 0)
      segments.push_back(e.path().string());
  std::sort(segments.begin(), segments.end());
  net::Bytes out;
  for (const std::string& path : segments) {
    std::ifstream f(path, std::ios::binary);
    out.insert(out.end(), std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
  }
  return out;
}

/// A signed dim-500 checkin with seeded values in [-1, 1]; every fifth
/// one declares a non-default device class.
net::Bytes checkin_frame(rng::Engine& eng, const net::DeviceCredentials& cred,
                         std::uint64_t param_version, int index) {
  net::CheckinMessage m;
  m.device_id = cred.device_id;
  m.param_version = param_version;
  m.g_hat.resize(kDim);
  for (double& g : m.g_hat)
    g = static_cast<double>(eng() % 2000001) / 1e6 - 1.0;
  m.ns = 10;
  m.ne_hat = static_cast<std::int64_t>(eng() % 7) - 3;
  m.ny_hat.resize(kClasses);
  for (auto& y : m.ny_hat) y = static_cast<std::int64_t>(eng() % 5) - 1;
  if (index % 5 == 4) m.device_class = 2;
  m.auth_tag = cred.sign(m.body());
  return net::encode_frame(net::MessageType::kCheckin, m.serialize());
}

}  // namespace

TEST(DurableStoreGolden, CheckinPathWritesThePinnedBytes) {
  TempDir dir;
  core::ServerConfig cfg;
  cfg.param_dim = kDim;
  cfg.num_classes = kClasses;
  core::Server server(
      cfg,
      std::make_unique<opt::SgdUpdater>(
          std::make_unique<opt::SqrtDecaySchedule>(1.0), 100.0),
      rng::Engine(1));
  store::DurableStoreOptions opts;
  opts.wal.fsync = store::FsyncPolicy::kNever;
  opts.wal.segment_max_bytes = 64 * 1024;  // rotates mid-run
  obs::MetricsRegistry registry;
  opts.wal.metrics = &registry;
  store::DurableStore ds(dir.path, opts);
  ds.recover(server);
  ds.attach(server);
  ds.set_group_commit(true);

  net::AuthRegistry auth{rng::Engine(11)};
  std::vector<net::DeviceCredentials> creds;
  for (int i = 0; i < 4; ++i) creds.push_back(auth.enroll());
  core::ProtocolServer proto(server, auth);
  engine::ModelSnapshotBoard board(&registry);
  board.publish(server);

  rng::Engine eng(2024);
  net::Bytes acks;
  net::Bytes params;
  net::ReplAppendMessage append;
  constexpr int kBatches = 6;
  constexpr int kPerBatch = 7;
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kPerBatch; ++i) {
      const int index = b * kPerBatch + i;
      const net::Bytes frame = checkin_frame(
          eng, creds[static_cast<std::size_t>(index) % creds.size()],
          board.version(), index);
      append.records.push_back({static_cast<std::uint64_t>(index + 1),
                                net::decode_frame(frame).payload});
      const net::Bytes ack = proto.handle(frame);
      acks.insert(acks.end(), ack.begin(), ack.end());
    }
    ASSERT_TRUE(ds.commit_group());
    board.publish(server);
    const net::Bytes& p = board.current()->params_frame;
    params.insert(params.end(), p.begin(), p.end());
  }
  // A checkout through the protocol boundary answers with the same
  // Params frame the board serves.
  net::CheckoutRequest req;
  req.device_id = creds[1].device_id;
  req.auth_tag = creds[1].sign(req.body());
  EXPECT_EQ(proto.handle(net::encode_frame(net::MessageType::kCheckoutRequest,
                                           req.serialize())),
            board.current()->params_frame);
  // One refused checkin: its nack frame is pinned too, and it must not
  // reach the log.
  net::Bytes forged =
      net::decode_frame(checkin_frame(eng, creds[0], board.version(), 0))
          .payload;
  forged[27] ^= 0x01;  // inside g_hat[0]: a well-formed frame, a stale tag
  const net::Bytes nack =
      proto.handle(net::encode_frame(net::MessageType::kCheckin, forged));
  acks.insert(acks.end(), nack.begin(), nack.end());
  ASSERT_TRUE(ds.commit_group());

  EXPECT_EQ(server.version(),
            static_cast<std::uint64_t>(kBatches * kPerBatch));
  EXPECT_EQ(proto.auth_failures(), 1);
  // The replication plane seals the payloads the log holds.
  append.epoch = 3;
  const net::Bytes sealed = replica::seal_repl_payload(
      replica::ReplKey(32, 0x42), net::MessageType::kReplAppend,
      append.serialize());
  const net::Bytes wal = wal_bytes(dir.path);
  EXPECT_EQ(wal.size(), 42u * (16 + 4156 + 4) + 8u);
  EXPECT_EQ(net::to_hex(net::sha256(wal)),
            "7edb4e01602ed0bc8c1f9f57cea5bba19156eda1ac11f041b3086d1fa09a2f98");
  EXPECT_EQ(net::to_hex(net::sha256(params)),
            "e6352d56bcd4a0295db0c51126514112b1b5ccd5f194a45cd90ddf867b9fda9d");
  EXPECT_EQ(net::to_hex(net::sha256(acks)),
            "9417df7bb3e263021e62d61fe59f8e48e9327b46371a8d9383c562df220525a5");
  EXPECT_EQ(net::to_hex(net::sha256(sealed)),
            "00f553bbe431c6f3fc0c0b09074e36d7a9b80d18381e22d1210e952f6eea46fa");
}
