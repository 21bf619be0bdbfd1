#include "engine/snapshot_board.hpp"

namespace crowdml::engine {

namespace {

obs::MetricsRegistry& registry_of(obs::MetricsRegistry* metrics) {
  return metrics ? *metrics : obs::default_registry();
}

}  // namespace

ModelSnapshotBoard::ModelSnapshotBoard(obs::MetricsRegistry* metrics)
    : publishes_(registry_of(metrics).counter(
          "crowdml_engine_snapshot_publishes_total",
          "Model snapshots published to the checkout board",
          obs::Provenance::kTransportEvent)),
      age_seconds_gauge_(registry_of(metrics).gauge(
          "crowdml_engine_snapshot_age_seconds",
          "Seconds since the serving snapshot was last republished",
          obs::Provenance::kTiming)) {}

void ModelSnapshotBoard::publish(const core::Server& server) {
  auto snap = std::make_shared<ModelSnapshot>();
  // version/stopped/parameters are separate locked reads; they form a
  // coherent snapshot because the caller guarantees no concurrent
  // checkin application (see header contract).
  net::ParamsMessage msg;
  msg.version = server.version();
  msg.accepted = !server.stopped();
  if (msg.accepted) msg.w = server.parameters();
  snap->version = msg.version;
  snap->accepted = msg.accepted;
  snap->params_frame = msg.to_frame();
  snap->published_at = std::chrono::steady_clock::now();
  current_.store(std::move(snap), std::memory_order_release);
  ++publishes_;
  age_seconds_gauge_.set(0.0);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshotBoard::current() const {
  return current_.load(std::memory_order_acquire);
}

std::uint64_t ModelSnapshotBoard::version() const {
  const auto snap = current();
  return snap ? snap->version : 0;
}

double ModelSnapshotBoard::age_seconds() const {
  const auto snap = current();
  if (!snap) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       snap->published_at)
      .count();
}

void ModelSnapshotBoard::refresh_age_gauge() {
  age_seconds_gauge_.set(age_seconds());
}

}  // namespace crowdml::engine
