// End-to-end integration over real localhost TCP: the serving engine and
// a fleet of device threads learning a classifier with privacy, exactly
// the deployment path of examples/tcp_crowd.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/tcp_runtime.hpp"
#include "engine/epoll_server.hpp"
#include "data/mixture.hpp"
#include "models/logistic_regression.hpp"
#include "opt/schedule.hpp"

using namespace crowdml;

namespace {

core::ServerConfig server_config(std::size_t param_dim, std::size_t classes) {
  core::ServerConfig c;
  c.param_dim = param_dim;
  c.num_classes = classes;
  return c;
}

}  // namespace

TEST(TcpIntegration, CrowdLearnsOverLocalhost) {
  rng::Engine data_eng(77);
  data::MixtureSpec spec;
  spec.num_classes = 3;
  spec.raw_dim = 30;
  spec.latent_dim = 12;
  spec.pca_dim = 8;
  spec.separation = 3.5;
  spec.train_size = 900;
  spec.test_size = 300;
  const data::Dataset ds = data::generate_mixture(spec, data_eng);

  models::MulticlassLogisticRegression model(3, 8, 0.0);
  core::Server server(server_config(model.param_dim(), 3),
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::SqrtDecaySchedule>(30.0), 500.0),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  engine::EpollCrowdServer tcp_server(server, registry,
                                      engine::EngineConfig{});
  const std::uint16_t port = tcp_server.port();

  constexpr std::size_t kDevices = 6;
  rng::Engine shard_eng(3);
  const auto shards = data::shard_across_devices(ds.train, kDevices, shard_eng);

  const double initial_error = model.error_rate(server.parameters(), ds.test);

  std::atomic<long long> cycles{0};
  std::vector<std::thread> device_threads;
  for (std::size_t d = 0; d < kDevices; ++d) {
    device_threads.emplace_back([&, d] {
      core::DeviceConfig dc;
      dc.minibatch_size = 5;
      dc.budget = privacy::PrivacyBudget::gradient_dominated(20.0);
      core::Device dev(dc, model, rng::Engine(100 + d));
      dev.set_credentials(registry.enroll());
      core::TcpDeviceSession session("127.0.0.1", port);
      core::DeviceClient client(dev, session.as_exchange());
      for (int pass = 0; pass < 3; ++pass)
        for (const auto& s : shards[d])
          if (client.offer_sample(s)) ++cycles;
    });
  }
  for (auto& t : device_threads) t.join();

  EXPECT_GT(cycles.load(), 100);
  EXPECT_EQ(server.version(), static_cast<std::uint64_t>(cycles.load()));
  EXPECT_EQ(server.devices_seen(), kDevices);
  EXPECT_EQ(server.rejected_checkins(), 0);

  const double final_error = model.error_rate(server.parameters(), ds.test);
  EXPECT_LT(final_error, 0.2);
  EXPECT_LT(final_error, initial_error);

  tcp_server.shutdown();
}

TEST(TcpIntegration, UnauthenticatedClientRejected) {
  models::MulticlassLogisticRegression model(2, 4, 0.0);
  core::Server server(server_config(model.param_dim(), 2),
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::ConstantSchedule>(0.1), 100.0),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  engine::EpollCrowdServer tcp_server(server, registry,
                                      engine::EngineConfig{});

  core::TcpDeviceSession session("127.0.0.1", tcp_server.port());
  net::CheckoutRequest req;
  req.device_id = 42;  // not enrolled, zero tag
  const auto reply = session.exchange(
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize()));
  ASSERT_TRUE(reply.has_value());
  const net::Frame f = net::decode_frame(*reply);
  ASSERT_EQ(f.type, net::MessageType::kParams);
  EXPECT_FALSE(net::ParamsMessage::deserialize(f.payload).accepted);
  EXPECT_EQ(server.version(), 0u);

  tcp_server.shutdown();
}

TEST(TcpIntegration, GarbageBytesDoNotCrashServer) {
  models::MulticlassLogisticRegression model(2, 4, 0.0);
  core::Server server(server_config(model.param_dim(), 2),
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::ConstantSchedule>(0.1), 100.0),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  engine::EpollCrowdServer tcp_server(server, registry,
                                      engine::EngineConfig{});

  // A frame with valid framing but corrupt payload -> nack, connection
  // stays usable.
  core::TcpDeviceSession session("127.0.0.1", tcp_server.port());
  const auto reply = session.exchange(
      net::encode_frame(net::MessageType::kCheckin, {1, 2, 3}));
  ASSERT_TRUE(reply.has_value());
  const net::Frame f = net::decode_frame(*reply);
  EXPECT_EQ(f.type, net::MessageType::kAck);
  EXPECT_FALSE(net::AckMessage::deserialize(f.payload).ok);

  // Server is still alive and serving.
  const auto creds = registry.enroll();
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  const auto reply2 = session.exchange(
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize()));
  ASSERT_TRUE(reply2.has_value());
  EXPECT_TRUE(net::ParamsMessage::deserialize(net::decode_frame(*reply2).payload)
                  .accepted);

  tcp_server.shutdown();
}

TEST(TcpIntegration, ShutdownIsIdempotentAndUnblocksClients) {
  models::MulticlassLogisticRegression model(2, 4, 0.0);
  core::Server server(server_config(model.param_dim(), 2),
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::ConstantSchedule>(0.1), 100.0),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  auto tcp_server = std::make_unique<engine::EpollCrowdServer>(
      server, registry, engine::EngineConfig{});
  // Client connects but never sends; shutdown must not hang.
  core::TcpDeviceSession idle("127.0.0.1", tcp_server->port());
  tcp_server->shutdown();
  tcp_server->shutdown();  // idempotent
  tcp_server.reset();
  SUCCEED();
}
