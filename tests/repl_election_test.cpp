// Automatic-failover tests: lease bookkeeping, the jittered failure
// detector, vote grant/refusal rules, sealed-frame authentication, the
// in-process end-to-end election (leader dies -> a follower durably
// self-promotes with a majority, its elector retargets), the client's
// redirect-following, and the bounded-staleness checkout gate.
//
// Suite names Lease / FailureDetector / Election are load-bearing: CI's
// ThreadSanitizer job runs them by regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/tcp_runtime.hpp"
#include "engine/epoll_server.hpp"
#include "net/auth.hpp"
#include "net/sha256.hpp"
#include "net/tcp.hpp"
#include "opt/schedule.hpp"
#include "replica/failure_detector.hpp"
#include "replica/follower.hpp"
#include "replica/lease.hpp"
#include "replica/log_shipper.hpp"
#include "replica/repl_session.hpp"
#include "store/durable_store.hpp"

using namespace crowdml;
using replica::ElectionOptions;
using replica::FailureDetector;
using replica::FailureDetectorConfig;
using replica::Follower;
using replica::FollowerOptions;
using replica::Lease;
using replica::LogShipper;
using replica::ReplAckMode;
using replica::ReplKey;
using replica::ShipperOptions;
using replica::VoteListener;

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point at_ms(long long ms) {
  return Clock::time_point{} + std::chrono::milliseconds(ms);
}

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_elect_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

core::ServerConfig config() {
  core::ServerConfig c;
  c.param_dim = 4;
  c.num_classes = 3;
  return c;
}

std::unique_ptr<opt::Updater> sgd() {
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(1.0), 100.0);
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

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 15000) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

ReplKey key_of(std::initializer_list<std::uint8_t> bytes) {
  return ReplKey(bytes);
}

}  // namespace

// ----------------------------------------------------------------- lease

TEST(Lease, NothingHeldBeforeFirstGrant) {
  Lease l;
  EXPECT_FALSE(l.held(at_ms(0)));
  // Never-granted is not the same as expired: a follower that has not
  // yet met its leader has nothing to detect the failure of.
  EXPECT_FALSE(l.expired(at_ms(1'000'000)));
  EXPECT_EQ(l.remaining_ms(at_ms(0)), 0);
  EXPECT_EQ(l.epoch(), 0u);
}

TEST(Lease, RenewHoldsThenExpires) {
  Lease l;
  l.renew(1, 10, 300, at_ms(1000));
  EXPECT_TRUE(l.held(at_ms(1000)));
  EXPECT_TRUE(l.held(at_ms(1299)));
  EXPECT_EQ(l.remaining_ms(at_ms(1100)), 200);
  EXPECT_FALSE(l.expired(at_ms(1299)));
  EXPECT_FALSE(l.held(at_ms(1301)));
  EXPECT_TRUE(l.expired(at_ms(1301)));
  EXPECT_EQ(l.remaining_ms(at_ms(1301)), 0);
  EXPECT_EQ(l.epoch(), 1u);
  EXPECT_EQ(l.committed_seq(), 10u);
}

TEST(Lease, StaleEpochGrantIgnored) {
  Lease l;
  l.renew(3, 50, 300, at_ms(1000));
  // A deposed leader's straggler heartbeat must not extend its lease or
  // roll the watermark back.
  l.renew(2, 99, 10'000, at_ms(1100));
  EXPECT_EQ(l.epoch(), 3u);
  EXPECT_EQ(l.committed_seq(), 50u);
  EXPECT_FALSE(l.held(at_ms(1400)));
}

TEST(Lease, DeadlineNeverMovesBackwards) {
  Lease l;
  l.renew(1, 10, 1000, at_ms(1000));  // deadline 2000
  l.renew(1, 20, 10, at_ms(1100));    // would be 1110 — keep 2000
  EXPECT_TRUE(l.held(at_ms(1999)));
  EXPECT_EQ(l.committed_seq(), 20u);  // watermark still advances
}

// ------------------------------------------------------------- detector

TEST(FailureDetector, DisabledNeverDue) {
  FailureDetector d(FailureDetectorConfig{}, rng::Engine(1));
  EXPECT_FALSE(d.enabled());
  d.arm(at_ms(0));
  EXPECT_FALSE(d.due(at_ms(1'000'000)));
  EXPECT_EQ(d.current_timeout_ms(), 0);
}

TEST(FailureDetector, ArmedDeadlinePasses) {
  FailureDetectorConfig cfg;
  cfg.election_timeout_min_ms = 100;
  cfg.election_timeout_max_ms = 200;
  FailureDetector d(cfg, rng::Engine(7));
  EXPECT_TRUE(d.enabled());
  EXPECT_FALSE(d.due(at_ms(1'000'000)));  // not armed yet
  d.arm(at_ms(1000));
  EXPECT_FALSE(d.due(at_ms(1000)));
  EXPECT_TRUE(d.due(at_ms(1201)));  // past even the max draw
}

TEST(FailureDetector, ObservePushesDeadlineOut) {
  FailureDetectorConfig cfg;
  cfg.election_timeout_min_ms = 100;
  cfg.election_timeout_max_ms = 100;  // no jitter: deadline is exact
  FailureDetector d(cfg, rng::Engine(7));
  d.arm(at_ms(0));
  EXPECT_TRUE(d.due(at_ms(101)));
  d.observe(at_ms(90));
  EXPECT_FALSE(d.due(at_ms(101)));  // heartbeat at 90 pushed it to 190
  EXPECT_TRUE(d.due(at_ms(191)));
}

TEST(FailureDetector, JitterStaysWithinConfiguredRange) {
  FailureDetectorConfig cfg;
  cfg.election_timeout_min_ms = 150;
  cfg.election_timeout_max_ms = 300;
  FailureDetector d(cfg, rng::Engine(42));
  for (int i = 0; i < 200; ++i) {
    d.arm(at_ms(i));
    EXPECT_GE(d.current_timeout_ms(), 150);
    EXPECT_LE(d.current_timeout_ms(), 300);
  }
}

TEST(FailureDetector, MaxDefaultsToTwiceMin) {
  FailureDetectorConfig cfg;
  cfg.election_timeout_min_ms = 100;  // max left at 0 => 200
  FailureDetector d(cfg, rng::Engine(42));
  for (int i = 0; i < 200; ++i) {
    d.arm(at_ms(i));
    EXPECT_GE(d.current_timeout_ms(), 100);
    EXPECT_LE(d.current_timeout_ms(), 200);
  }
}

// ------------------------------------------------------------- election

TEST(Election, MajorityMath) {
  EXPECT_EQ(replica::election_majority(1), 1u);
  EXPECT_EQ(replica::election_majority(2), 2u);
  EXPECT_EQ(replica::election_majority(3), 2u);
  EXPECT_EQ(replica::election_majority(4), 3u);
  EXPECT_EQ(replica::election_majority(5), 3u);
}

TEST(Election, PeerListParsing) {
  std::string err;
  auto peers = replica::parse_peer_list("10.0.0.1:5000,host-b:5001", &err);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_TRUE(err.empty());
  EXPECT_EQ(peers[0].host, "10.0.0.1");
  EXPECT_EQ(peers[0].port, 5000);
  EXPECT_EQ(peers[0].raw, "10.0.0.1:5000");
  EXPECT_EQ(peers[1].host, "host-b");
  EXPECT_EQ(peers[1].port, 5001);

  // Single-follower deployments have no peers: empty is valid.
  EXPECT_TRUE(replica::parse_peer_list("", &err).empty());
  EXPECT_TRUE(err.empty());

  // Stray commas are tolerated (trailing commas from shell expansion).
  peers = replica::parse_peer_list("h:1,,h:2,", &err);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_TRUE(err.empty());

  EXPECT_TRUE(replica::parse_peer_list("nocolon", &err).empty());
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_TRUE(replica::parse_peer_list("h:99999", &err).empty());
  EXPECT_FALSE(err.empty());
}

TEST(Election, SealOpenRoundTripAndTamperRejection) {
  const ReplKey key = key_of({1, 2, 3, 4, 5});
  const net::Bytes payload{10, 20, 30};

  auto sealed =
      replica::seal_repl_payload(key, net::MessageType::kReplVote, payload);
  ASSERT_EQ(sealed.size(), payload.size() + replica::kReplTagSize);
  auto opened =
      replica::open_repl_payload(key, net::MessageType::kReplVote, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);

  // Wrong key: drop.
  EXPECT_FALSE(replica::open_repl_payload(key_of({9, 9}),
                                          net::MessageType::kReplVote, sealed)
                   .has_value());
  // Tag binds the frame type: a captured heartbeat cannot be replayed
  // as a vote.
  EXPECT_FALSE(replica::open_repl_payload(
                   key, net::MessageType::kReplHeartbeat, sealed)
                   .has_value());
  // Flipped payload byte: drop.
  auto tampered = sealed;
  tampered[0] ^= 0xFF;
  EXPECT_FALSE(replica::open_repl_payload(key, net::MessageType::kReplVote,
                                          tampered)
                   .has_value());
  // Truncated below the tag size: drop, not a crash.
  EXPECT_FALSE(replica::open_repl_payload(key, net::MessageType::kReplVote,
                                          net::Bytes{1, 2, 3})
                   .has_value());

  // Empty key passes through untouched (both sides must agree).
  auto plain = replica::seal_repl_payload(ReplKey{},
                                          net::MessageType::kReplVote, payload);
  EXPECT_EQ(plain, payload);
  EXPECT_EQ(*replica::open_repl_payload(ReplKey{}, net::MessageType::kReplVote,
                                        payload),
            payload);
}

TEST(Election, SealTagIsHmacOverTypeByteThenPayload) {
  // The wire format both peers agree on: payload || HMAC(key, type ||
  // payload). Any change to how the tag is computed must keep these bytes.
  const ReplKey key = key_of({7, 7, 7});
  net::Bytes payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31);
  net::Bytes mac_input(1 + payload.size());
  mac_input[0] = static_cast<std::uint8_t>(net::MessageType::kReplAppend);
  std::copy(payload.begin(), payload.end(), mac_input.begin() + 1);
  const net::Digest tag = net::hmac_sha256(key, mac_input);
  net::Bytes expected(payload.size() + tag.size());
  std::copy(tag.begin(), tag.end(),
            std::copy(payload.begin(), payload.end(), expected.begin()));

  EXPECT_EQ(replica::seal_repl_payload(key, net::MessageType::kReplAppend,
                                       payload),
            expected);
  const auto opened = replica::open_repl_payload(
      key, net::MessageType::kReplAppend, expected);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);
}

TEST(Election, HeartbeatCodecRoundTrip) {
  net::ReplHeartbeatMessage hb;
  hb.epoch = 7;
  hb.committed_seq = 123456;
  hb.lease_ms = 1500;
  hb.leader_addr = "10.1.2.3:8443";
  const auto back = net::ReplHeartbeatMessage::deserialize(hb.serialize());
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.committed_seq, 123456u);
  EXPECT_EQ(back.lease_ms, 1500u);
  EXPECT_EQ(back.leader_addr, "10.1.2.3:8443");

  auto bytes = hb.serialize();
  bytes.push_back(0);  // trailing garbage must be rejected
  EXPECT_THROW(net::ReplHeartbeatMessage::deserialize(bytes),
               net::CodecError);
}

TEST(Election, VoteCodecRoundTrip) {
  net::ReplVoteMessage v;
  v.request = true;
  v.granted = false;
  v.epoch = 9;
  v.candidate_id = 3;
  v.last_seq = 777;
  v.nonce = 0xFEEDFACECAFEF00DULL;
  v.device_addr = "127.0.0.1:6000";
  v.repl_addr = "127.0.0.1:6001";
  const auto back = net::ReplVoteMessage::deserialize(v.serialize());
  EXPECT_TRUE(back.request);
  EXPECT_FALSE(back.granted);
  EXPECT_EQ(back.epoch, 9u);
  EXPECT_EQ(back.candidate_id, 3u);
  EXPECT_EQ(back.last_seq, 777u);
  EXPECT_EQ(back.nonce, 0xFEEDFACECAFEF00DULL);
  EXPECT_EQ(back.device_addr, "127.0.0.1:6000");
  EXPECT_EQ(back.repl_addr, "127.0.0.1:6001");

  auto bytes = v.serialize();
  bytes.push_back(0);
  EXPECT_THROW(net::ReplVoteMessage::deserialize(bytes), net::CodecError);
}

TEST(Election, HelloCarriesSnapshotResumeFields) {
  net::ReplHelloMessage hello;
  hello.follower_id = 4;
  hello.epoch = 2;
  hello.last_seq = 10;
  hello.snapshot_version = 33;
  hello.snapshot_offset = 65536;
  const auto back = net::ReplHelloMessage::deserialize(hello.serialize());
  EXPECT_EQ(back.snapshot_version, 33u);
  EXPECT_EQ(back.snapshot_offset, 65536u);
}

TEST(Election, CandidateWinsWithOneGrant) {
  const ReplKey key = key_of({0xAA, 0xBB});
  obs::MetricsRegistry reg;
  VoteListener::Options lo;
  lo.key = key;
  lo.metrics = &reg;
  std::atomic<int> grants_issued{0};
  VoteListener elector(lo, [&](const net::ReplVoteMessage& req) {
    net::ReplVoteMessage resp;
    resp.request = false;
    resp.granted = req.epoch > 1 && req.last_seq >= 5;
    resp.epoch = resp.granted ? req.epoch : 1;
    resp.last_seq = 5;
    // A ballot is bound to the request it answers: echo or be discarded.
    resp.candidate_id = req.candidate_id;
    resp.nonce = req.nonce;
    if (resp.granted) ++grants_issued;
    return resp;
  });
  ASSERT_TRUE(elector.start());

  ElectionOptions eo;
  eo.epoch = 2;
  eo.candidate_id = 1;
  eo.last_seq = 5;  // exactly as long as the elector's log: grantable
  eo.peers = replica::parse_peer_list(
      "127.0.0.1:" + std::to_string(elector.port()));
  eo.key = key;
  const auto res = replica::run_election(eo);
  EXPECT_TRUE(res.won);
  EXPECT_EQ(res.grants, 2u);  // the elector plus the candidate's own vote
  EXPECT_EQ(res.electorate, 2u);
  EXPECT_EQ(grants_issued.load(), 1);
  EXPECT_EQ(elector.votes_served(), 1);
  elector.shutdown();
}

TEST(Election, ShorterLogLosesAndLearnsHigherEpoch) {
  obs::MetricsRegistry reg;
  VoteListener::Options lo;
  lo.metrics = &reg;
  VoteListener elector(lo, [&](const net::ReplVoteMessage& req) {
    // Refuse: this elector has already promised epoch 42.
    net::ReplVoteMessage resp;
    resp.request = false;
    resp.granted = false;
    resp.epoch = 42;
    resp.last_seq = 100;
    resp.candidate_id = req.candidate_id;
    resp.nonce = req.nonce;
    return resp;
  });
  ASSERT_TRUE(elector.start());

  ElectionOptions eo;
  eo.epoch = 3;
  eo.candidate_id = 1;
  eo.last_seq = 1;
  eo.peers = replica::parse_peer_list(
      "127.0.0.1:" + std::to_string(elector.port()));
  const auto res = replica::run_election(eo);
  EXPECT_FALSE(res.won);
  EXPECT_EQ(res.grants, 1u);  // only its own vote
  // The refusal's higher epoch rides back so the loser's next proposal
  // is not dead on arrival.
  EXPECT_EQ(res.higher_epoch_seen, 42u);
  elector.shutdown();
}

TEST(Election, UnboundBallotsAreDiscarded) {
  // A ballot that does not echo the candidate id and nonce of the
  // request it answers is noise — a replayed grant from an earlier
  // campaign, a confused voter, or a forgery inside the key domain.
  // None of them may count toward a majority, and an unbound refusal
  // may not steer the loser's next proposal either.
  std::atomic<int> mode{0};
  obs::MetricsRegistry reg;
  VoteListener::Options lo;
  lo.metrics = &reg;
  VoteListener elector(lo, [&](const net::ReplVoteMessage& req) {
    net::ReplVoteMessage resp;
    resp.request = false;
    resp.candidate_id = req.candidate_id;
    resp.nonce = req.nonce;
    switch (mode.load()) {
      case 0:  // grant replayed from some other campaign: stale nonce
        resp.granted = true;
        resp.epoch = req.epoch;
        resp.nonce = req.nonce ^ 1;
        break;
      case 1:  // grant addressed to a different candidate
        resp.granted = true;
        resp.epoch = req.epoch;
        resp.candidate_id = req.candidate_id + 1;
        break;
      case 2:  // bound, but granting a different epoch than proposed
        resp.granted = true;
        resp.epoch = req.epoch + 1;
        break;
      default:  // unbound refusal advertising a scary-high epoch
        resp.granted = false;
        resp.epoch = 99;
        resp.nonce = req.nonce ^ 1;
        break;
    }
    return resp;
  });
  ASSERT_TRUE(elector.start());

  for (int m = 0; m < 4; ++m) {
    mode.store(m);
    ElectionOptions eo;
    eo.epoch = 7;
    eo.candidate_id = 1;
    eo.last_seq = 5;
    eo.nonce = 1000 + static_cast<std::uint64_t>(m);
    eo.peers = replica::parse_peer_list(
        "127.0.0.1:" + std::to_string(elector.port()));
    const auto res = replica::run_election(eo);
    EXPECT_FALSE(res.won) << "mode " << m;
    EXPECT_EQ(res.grants, 1u) << "mode " << m;  // own vote only
    EXPECT_EQ(res.higher_epoch_seen, 0u) << "mode " << m;
  }
  elector.shutdown();
}

TEST(Election, LiveLeaseGatesVoteGrants) {
  // Check-quorum at the voter: while this follower's lease from the
  // current leader is live, the leader is demonstrably fine, so any
  // candidacy is disruption (an isolated node's fuse firing). Refuse
  // WITHOUT adopting the proposed epoch — adopting would fence the
  // healthy leader on the next hello.
  obs::MetricsRegistry reg;
  TempDir ldir;
  core::Server leader(config(), sgd(), rng::Engine(1));
  store::DurableStoreOptions so;
  so.wal.metrics = &reg;
  auto lstore = std::make_unique<store::DurableStore>(ldir.path, so);
  lstore->recover(leader);
  lstore->attach(leader);
  ShipperOptions shopts;
  shopts.ack_mode = ReplAckMode::kAsync;
  shopts.heartbeat_interval_ms = 40;  // lease defaults to 120ms
  shopts.metrics = &reg;
  auto shipper = std::make_unique<LogShipper>(leader, *lstore, 1, shopts);

  TempDir fdir;
  core::Server srv(config(), sgd(), rng::Engine(1));
  obs::MetricsRegistry freg;
  FollowerOptions fo;
  fo.leader_port = shipper->port();
  fo.follower_id = 1;
  fo.store.wal.metrics = &freg;
  fo.metrics = &freg;
  fo.reconnect_backoff_ms = 20;
  fo.detector.election_timeout_min_ms = 60'000;  // voter, never a candidate
  fo.rng_seed = 1;
  auto f = std::make_unique<Follower>(srv, fdir.path, fo);
  f->start();
  ASSERT_TRUE(wait_until([&] { return f->vote_port() != 0; }));
  ASSERT_TRUE(wait_until([&] { return f->connected() && f->lease().held(); }));

  ElectionOptions eo;
  eo.epoch = 5;
  eo.candidate_id = 9;
  eo.last_seq = 1'000'000;  // longer log than anyone: grantable on merit
  eo.nonce = 42;
  eo.peers = replica::parse_peer_list(
      "127.0.0.1:" + std::to_string(f->vote_port()));
  const auto refused = replica::run_election(eo);
  EXPECT_FALSE(refused.won);
  EXPECT_EQ(refused.grants, 1u);  // own vote only
  EXPECT_EQ(f->epoch(), 1u)
      << "a lease-gated refusal must not adopt the proposed epoch";

  // The leader dies; the lease lapses; the same candidacy now succeeds.
  shipper->shutdown();
  ASSERT_TRUE(wait_until([&] { return !f->lease().held(); }));
  const auto granted = replica::run_election(eo);
  EXPECT_TRUE(granted.won);
  EXPECT_EQ(granted.grants, 2u);
  ASSERT_TRUE(wait_until([&] { return f->epoch() == 5u; }));
  f->shutdown();
}

TEST(Election, UnreachablePeerSimplyDoesNotVote) {
  ElectionOptions eo;
  eo.epoch = 2;
  eo.candidate_id = 1;
  eo.last_seq = 0;
  eo.connect_timeout_ms = 100;
  // Two peers that do not exist: electorate 3, majority 2, grants 1.
  eo.peers = replica::parse_peer_list("127.0.0.1:1,127.0.0.1:2");
  const auto res = replica::run_election(eo);
  EXPECT_FALSE(res.won);
  EXPECT_EQ(res.grants, 1u);
  EXPECT_EQ(res.electorate, 3u);
  EXPECT_EQ(res.higher_epoch_seen, 0u);
}

TEST(Election, EmptyPeerListIsASelfElectingSingleton) {
  // One follower total: it IS the majority. This is what makes a
  // two-node (leader + one follower) deployment fail over at all.
  ElectionOptions eo;
  eo.epoch = 2;
  eo.candidate_id = 1;
  const auto res = replica::run_election(eo);
  EXPECT_TRUE(res.won);
  EXPECT_EQ(res.grants, 1u);
  EXPECT_EQ(res.electorate, 1u);
}

TEST(Election, WrongKeyVoteRequestDroppedNotGranted) {
  obs::MetricsRegistry reg;
  VoteListener::Options lo;
  lo.key = key_of({1, 2, 3});
  lo.metrics = &reg;
  lo.io_deadline_ms = 300;
  std::atomic<int> handled{0};
  VoteListener elector(lo, [&](const net::ReplVoteMessage& req) {
    ++handled;
    net::ReplVoteMessage resp = req;
    resp.request = false;
    resp.granted = true;
    return resp;
  });
  ASSERT_TRUE(elector.start());

  ElectionOptions eo;
  eo.epoch = 2;
  eo.candidate_id = 1;
  eo.io_deadline_ms = 500;
  eo.peers = replica::parse_peer_list(
      "127.0.0.1:" + std::to_string(elector.port()));
  eo.key = key_of({4, 5, 6});  // mismatched
  const auto res = replica::run_election(eo);
  EXPECT_FALSE(res.won);
  EXPECT_EQ(handled.load(), 0) << "a forged vote must never reach the handler";
  auto& dropped = reg.counter("crowdml_repl_auth_failed_total", "x",
                              obs::Provenance::kTransportEvent);
  EXPECT_TRUE(wait_until([&] { return dropped.value() >= 1; }));
  elector.shutdown();
}

// The whole machine end to end, in one process: a heartbeating leader
// replicating to two followers dies abruptly; the short-fused follower
// detects the silence, campaigns, wins the long-fused follower's vote,
// and durably self-promotes — zero operator involvement. The elector
// adopts the new epoch and repoints its checkin redirect at the winner.
TEST(Election, FollowerSelfPromotesAfterLeaderDeath) {
  obs::MetricsRegistry reg;
  const ReplKey key = key_of({0xDE, 0xAD, 0xBE, 0xEF});

  // --- Leader: epoll engine, quorum shipping, 50ms heartbeats.
  TempDir ldir;
  core::Server leader(config(), sgd(), rng::Engine(1));
  store::DurableStoreOptions so;
  so.wal.metrics = &reg;
  auto lstore = std::make_unique<store::DurableStore>(ldir.path, so);
  lstore->recover(leader);
  lstore->attach(leader);
  lstore->set_group_commit(true);

  ShipperOptions shopts;
  shopts.ack_mode = ReplAckMode::kQuorum;
  shopts.quorum_follower_acks = 1;
  shopts.quorum_timeout_ms = 3000;
  shopts.heartbeat_interval_ms = 50;  // lease defaults to 150ms
  shopts.key = key;
  shopts.metrics = &reg;
  auto shipper = std::make_unique<LogShipper>(leader, *lstore, 1, shopts);

  net::AuthRegistry auth{rng::Engine(2)};
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.group_commit = [&] {
    if (!lstore->commit_group()) return false;
    shipper->notify_committed();
    return shipper->await_quorum(lstore->wal().last_seq());
  };
  auto engine = std::make_unique<engine::EpollCrowdServer>(leader, auth, ecfg);

  // --- Elector follower f2 first (long fuse: it never campaigns, so
  // candidate f1 below always runs the election — deterministic roles).
  std::mutex addr_mu;
  std::string f2_sees_leader;
  TempDir f2dir;
  core::Server srv2(config(), sgd(), rng::Engine(1));
  // Own registry: counters are get-or-create by NAME, so two followers
  // sharing one registry would also share elections_started_ etc.
  obs::MetricsRegistry reg2;
  FollowerOptions fo2;
  fo2.leader_port = shipper->port();
  fo2.follower_id = 2;
  fo2.store.wal.metrics = &reg2;
  fo2.metrics = &reg2;
  fo2.reconnect_backoff_ms = 20;
  fo2.detector.election_timeout_min_ms = 60'000;
  fo2.key = key;
  fo2.rng_seed = 2;
  fo2.on_leader_changed = [&](const std::string& addr) {
    std::lock_guard<std::mutex> lk(addr_mu);
    f2_sees_leader = addr;
  };
  auto f2 = std::make_unique<Follower>(srv2, f2dir.path, fo2);
  f2->start();
  ASSERT_TRUE(wait_until([&] { return f2->vote_port() != 0; }));

  // --- Candidate follower f1 (short fuse, knows f2's vote endpoint).
  TempDir f1dir;
  core::Server srv1(config(), sgd(), rng::Engine(1));
  FollowerOptions fo1;
  fo1.leader_port = shipper->port();
  fo1.follower_id = 1;
  fo1.store.wal.metrics = &reg;
  fo1.metrics = &reg;
  fo1.reconnect_backoff_ms = 20;
  fo1.detector.election_timeout_min_ms = 200;
  fo1.detector.election_timeout_max_ms = 400;
  fo1.peers = replica::parse_peer_list(
      "127.0.0.1:" + std::to_string(f2->vote_port()));
  fo1.device_addr = "127.0.0.1:7777";  // what f2's redirect should become
  fo1.key = key;
  fo1.rng_seed = 1;
  auto f1 = std::make_unique<Follower>(srv1, f1dir.path, fo1);
  f1->start();
  ASSERT_TRUE(wait_until([&] { return f1->connected() && f2->connected(); }));

  // --- Traffic: quorum-acked checkins while heartbeats keep leases
  // renewed; f1's 200-400ms detector must NOT fire under 50ms beats.
  rng::Engine traffic(9);
  const auto creds = auth.enroll();
  auto conn = net::TcpConnection::connect("127.0.0.1", engine->port(), 2000);
  ASSERT_TRUE(conn);
  conn->set_deadline_ms(10'000);
  long long acked = 0;
  for (int i = 0; i < 60; ++i) {
    net::CheckinMessage m = random_checkin(traffic, creds.device_id);
    m.auth_tag = creds.sign(m.body());
    ASSERT_TRUE(conn->send_frame(
        net::encode_frame(net::MessageType::kCheckin, m.serialize())));
    const auto reply = conn->recv_frame();
    ASSERT_TRUE(reply);
    if (net::AckMessage::deserialize(net::decode_frame(*reply).payload).ok)
      ++acked;
  }
  ASSERT_GE(acked, 50);
  EXPECT_EQ(f1->elections_started(), 0)
      << "the detector fired while the leader was demonstrably alive";
  EXPECT_TRUE(f1->lease().held());
  EXPECT_GT(shipper->heartbeats_sent(), 0);

  // Both replicas fully caught up (so either can win on log length).
  ASSERT_TRUE(wait_until([&] {
    return f1->applied_seq() == leader.version() &&
           f2->applied_seq() == leader.version();
  }));
  // The committed watermark rides heartbeats, so it can trail applied_seq
  // by one beat — eventually consistent, not instantaneous.
  EXPECT_TRUE(wait_until([&] {
    return f1->leader_committed() == leader.version();
  }));

  // --- Kill the leader abruptly. Silence is the only signal.
  engine->shutdown();
  shipper->shutdown();

  ASSERT_TRUE(wait_until([&] { return f1->promoted(); }))
      << "the candidate never promoted itself";
  EXPECT_GE(f1->lease_expirations(), 1);
  EXPECT_GE(f1->elections_started(), 1);
  EXPECT_EQ(f1->elections_won(), 1);
  EXPECT_GE(f1->epoch(), 2u) << "promotion must have bumped the epoch";
  // Zero acked-checkin loss: the winner holds every acked record.
  EXPECT_GE(static_cast<long long>(f1->applied_seq()), acked);

  // The grant was itself a durable epoch bump on the elector...
  ASSERT_TRUE(wait_until([&] { return f2->epoch() == f1->epoch(); }));
  // ...and repointed its checkin redirect at the winner.
  {
    std::lock_guard<std::mutex> lk(addr_mu);
    EXPECT_EQ(f2_sees_leader, "127.0.0.1:7777");
  }
  EXPECT_EQ(f2->elections_started(), 0);

  // Promotion durability: reopening the winner's epoch register shows
  // the won epoch (a restart cannot regress below its own term).
  f1->shutdown();
  EXPECT_EQ(replica::EpochStore(f1dir.path).load(), f1->epoch());
  f2->shutdown();
}

// ------------------------------------------------------------- redirects

namespace {

net::Bytes signed_checkin_frame(rng::Engine& eng,
                                const net::DeviceCredentials& creds) {
  net::CheckinMessage m = random_checkin(eng, creds.device_id);
  m.auth_tag = creds.sign(m.body());
  return net::encode_frame(net::MessageType::kCheckin, m.serialize());
}

}  // namespace

TEST(Election, ClientFollowsNotLeaderRedirect) {
  obs::MetricsRegistry reg;
  net::AuthRegistry auth{rng::Engine(2)};

  // Real leader engine, and a replica engine that bounces checkins.
  core::Server leader(config(), sgd(), rng::Engine(1));
  engine::EngineConfig lcfg;
  lcfg.metrics = &reg;
  auto leader_engine =
      std::make_unique<engine::EpollCrowdServer>(leader, auth, lcfg);

  core::Server replica_srv(config(), sgd(), rng::Engine(1));
  engine::EngineConfig rcfg;
  rcfg.metrics = &reg;
  auto replica_engine =
      std::make_unique<engine::EpollCrowdServer>(replica_srv, auth, rcfg);
  replica_engine->set_checkin_redirect(
      "127.0.0.1:" + std::to_string(leader_engine->port()));

  // Device homed on the replica: its checkin is nacked pre-application,
  // replayed at the advertised leader, and acked there.
  core::ReconnectPolicy policy;
  core::ReconnectingDeviceSession session("127.0.0.1", replica_engine->port(),
                                          policy, rng::Engine(3));
  rng::Engine eng(4);
  const auto creds = auth.enroll();
  const auto reply = session.exchange(signed_checkin_frame(eng, creds));
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(net::AckMessage::deserialize(net::decode_frame(*reply).payload)
                  .ok);
  EXPECT_EQ(session.redirects_followed(), 1);
  EXPECT_EQ(session.current_port(), leader_engine->port());
  EXPECT_EQ(leader.version(), 1u);
  EXPECT_EQ(replica_srv.version(), 0u) << "the replica must not have applied";
  // The replayed checkin hit the wire twice — once per target — which is
  // safe exactly because the first attempt was refused before application.
  EXPECT_EQ(session.checkin_frames_sent(), 2);

  leader_engine->shutdown();
  replica_engine->shutdown();
}

TEST(Election, RedirectLoopHitsHopCapAndSurfacesNack) {
  obs::MetricsRegistry reg;
  net::AuthRegistry auth{rng::Engine(2)};
  core::Server srv(config(), sgd(), rng::Engine(1));
  engine::EngineConfig cfg;
  cfg.metrics = &reg;
  auto engine = std::make_unique<engine::EpollCrowdServer>(srv, auth, cfg);
  // A confused replica redirecting to itself: the worst-case loop.
  engine->set_checkin_redirect("127.0.0.1:" + std::to_string(engine->port()));

  core::ReconnectPolicy policy;
  policy.max_redirect_hops = 3;
  core::ReconnectingDeviceSession session("127.0.0.1", engine->port(), policy,
                                          rng::Engine(3));
  rng::Engine eng(4);
  const auto creds = auth.enroll();
  const auto reply = session.exchange(signed_checkin_frame(eng, creds));
  ASSERT_TRUE(reply.has_value()) << "the loop must end in a surfaced nack";
  const auto ack =
      net::AckMessage::deserialize(net::decode_frame(*reply).payload);
  EXPECT_FALSE(ack.ok);
  EXPECT_TRUE(net::parse_leader_redirect(ack.reason).has_value());
  EXPECT_EQ(session.redirects_followed(), 3);
  EXPECT_EQ(srv.version(), 0u);
  engine->shutdown();
}

// ----------------------------------------------------- bounded staleness

TEST(Election, LaggingReplicaRefusesCheckoutsWithRetryHint) {
  obs::MetricsRegistry reg;
  net::AuthRegistry auth{rng::Engine(2)};
  core::Server srv(config(), sgd(), rng::Engine(1));

  std::atomic<std::uint64_t> lag{25};
  engine::EngineConfig cfg;
  cfg.metrics = &reg;
  cfg.read_lag = [&] { return lag.load(); };
  cfg.max_read_lag = 10;
  cfg.stale_retry_after_ms = 120;
  auto engine = std::make_unique<engine::EpollCrowdServer>(srv, auth, cfg);

  const auto creds = auth.enroll();
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  const auto frame =
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize());

  auto conn = net::TcpConnection::connect("127.0.0.1", engine->port(), 2000);
  ASSERT_TRUE(conn);
  conn->set_deadline_ms(5000);
  ASSERT_TRUE(conn->send_frame(frame));
  auto reply = conn->recv_frame();
  ASSERT_TRUE(reply);
  const net::Frame nack_frame = net::decode_frame(*reply);
  ASSERT_EQ(nack_frame.type, net::MessageType::kAck) << "expected a refusal";
  const auto nack = net::AckMessage::deserialize(nack_frame.payload);
  EXPECT_FALSE(nack.ok);
  // The hint is machine-readable: devices back off by what the replica
  // asked instead of guessing.
  EXPECT_EQ(net::parse_retry_after(nack.reason), 120);
  EXPECT_EQ(engine->stale_checkouts_refused(), 1);

  // Lag back under the bound: checkouts flow again on a new connection.
  lag.store(5);
  auto conn2 = net::TcpConnection::connect("127.0.0.1", engine->port(), 2000);
  ASSERT_TRUE(conn2);
  conn2->set_deadline_ms(5000);
  ASSERT_TRUE(conn2->send_frame(frame));
  reply = conn2->recv_frame();
  ASSERT_TRUE(reply);
  const net::Frame ok_frame = net::decode_frame(*reply);
  ASSERT_EQ(ok_frame.type, net::MessageType::kParams);
  EXPECT_TRUE(net::ParamsMessage::deserialize(ok_frame.payload).accepted);
  engine->shutdown();
}
