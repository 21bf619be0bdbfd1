#include "engine/epoll_server.hpp"

#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/profile.hpp"

namespace crowdml::engine {

namespace {

obs::MetricsRegistry& registry_of(const EngineConfig& config) {
  return config.metrics ? *config.metrics : obs::default_registry();
}

net::Bytes make_auth_refused_frame() {
  net::ParamsMessage refuse;
  refuse.accepted = false;
  return net::encode_frame(net::MessageType::kParams, refuse.serialize());
}

net::Bytes make_redirect_frame(const std::string& leader_addr) {
  if (leader_addr.empty()) return {};
  const net::AckMessage nack{false, net::not_leader_reason(leader_addr)};
  return net::encode_frame(net::MessageType::kAck, nack.serialize());
}

}  // namespace

EpollCrowdServer::EpollCrowdServer(core::Server& server,
                                   net::AuthRegistry& auth,
                                   EngineConfig config)
    : config_(std::move(config)),
      server_(server),
      auth_(auth),
      protocol_(server, auth, config_.trace),
      counters_(config_.metrics),
      board_(config_.metrics),
      queue_(config_.checkin_queue_max, config_.metrics),
      auth_refused_frame_(make_auth_refused_frame()),
      checkouts_served_(registry_of(config_).counter(
          "crowdml_engine_checkouts_served_total",
          "Checkouts answered from the snapshot board on an I/O thread",
          obs::Provenance::kTransportEvent)),
      commit_failures_(registry_of(config_).counter(
          "crowdml_engine_commit_failures_total",
          "Applier batches whose group commit failed (all acks nacked)",
          obs::Provenance::kTransportEvent)),
      checkins_redirected_(registry_of(config_).counter(
          "crowdml_engine_checkins_redirected_total",
          "Checkins refused with a not-leader redirect (follower mode)",
          obs::Provenance::kTransportEvent)),
      checkins_wrong_shard_(registry_of(config_).counter(
          "crowdml_engine_checkins_wrong_shard_total",
          "Checkins refused with a wrong-shard redirect (the device's "
          "hash range belongs to another shard leader)",
          obs::Provenance::kTransportEvent)),
      stale_checkouts_refused_(registry_of(config_).counter(
          "crowdml_engine_stale_checkouts_refused_total",
          "Checkouts nacked because the replica's applied position lagged "
          "the leader's committed watermark past --max-read-lag",
          obs::Provenance::kTransportEvent)),
      batch_size_(registry_of(config_).histogram(
          "crowdml_engine_batch_size",
          "Checkins applied per applier wakeup (group-commit batch)",
          obs::Provenance::kTransportEvent,
          obs::exponential_bounds(1.0, 2.0, 10))),
      handle_seconds_(registry_of(config_).histogram(
          "crowdml_server_handle_seconds",
          "Whole request dispatch: decode, authenticate, apply, encode",
          obs::Provenance::kTiming)) {
  if (config_.io_threads == 0) config_.io_threads = 1;
  if (config_.checkin_batch_max == 0) config_.checkin_batch_max = 1;
  group_commit_ = std::move(config_.group_commit);
  set_checkin_redirect(config_.checkin_redirect);
  protocol_.set_secagg(config_.secagg);
  protocol_.set_shard(config_.shard);

  // The board must hold a snapshot before any I/O thread can serve a
  // checkout from it.
  board_.publish(server_);

  EventLoop::Options loop_opts;
  loop_opts.idle_timeout_ms = config_.idle_timeout_ms;
  loop_opts.metrics = config_.metrics;
  loop_opts.idle_closed = &counters_.idle_closed;
  loop_opts.trace = config_.trace;
  loops_.reserve(config_.io_threads);
  for (std::size_t i = 0; i < config_.io_threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(
        loop_opts, [this, i](std::uint64_t conn_id, net::Bytes&& frame) {
          on_frame(loops_[i].get(), conn_id, std::move(frame));
        }));
  }

  auto listener = net::TcpListener::bind(config_.bind_address, config_.port);
  if (!listener) throw std::runtime_error("EpollCrowdServer: bind failed");
  listener_ = std::move(*listener);
  port_ = listener_.port();
  acceptor_ = std::thread([this] { accept_loop(); });
  applier_ = std::thread([this] { applier_loop(); });
}

EpollCrowdServer::~EpollCrowdServer() { shutdown(); }

std::size_t EpollCrowdServer::connections() const {
  std::size_t total = 0;
  for (const auto& loop : loops_) total += loop->connections();
  return total;
}

void EpollCrowdServer::accept_loop() {
  while (!stopping_.load()) {
    auto conn = listener_.accept();
    if (!conn) break;  // listener closed
    if (stopping_.load()) break;
    if (connections() >= config_.max_connections) {
      // Graceful refusal: say why, with a retry hint, before hanging up,
      // so the device's next backoff is informed rather than a mystery
      // EOF.
      ++counters_.refused_connections;
      if (config_.trace)
        config_.trace->event("refusal", {{"reason", "server at capacity"}});
      const net::AckMessage nack{
          false, net::retry_after_reason("server at capacity",
                                         config_.capacity_retry_after_ms)};
      conn->set_deadline_ms(1000);
      conn->send_frame(
          net::encode_frame(net::MessageType::kAck, nack.serialize()));
      continue;  // conn destructs -> closed
    }
    ++counters_.accepted_connections;
    if (config_.trace) config_.trace->event("accept");
    const int fd = conn->release_fd();
    loops_[next_loop_++ % loops_.size()]->adopt(fd);
  }
}

void EpollCrowdServer::on_frame(EventLoop* loop, std::uint64_t conn_id,
                                net::Bytes&& frame) {
  // Fast path: an authenticated checkout never touches the server — the
  // response is the board's pre-encoded frame. Anything that is not a
  // well-formed, auth-valid checkout (checkins, malformed frames, bad
  // tags) takes the applier path, where ProtocolServer keeps all
  // failure accounting in one place.
  if (frame.size() > net::kFrameTypeOffset &&
      frame[net::kFrameTypeOffset] ==
          static_cast<std::uint8_t>(net::MessageType::kCheckoutRequest)) {
    try {
      const net::Frame f = net::decode_frame(frame);
      const auto req = net::CheckoutRequest::deserialize(f.payload);
      if (auth_.verify(req.device_id, req.body(), req.auth_tag)) {
        // Bounded-staleness replica reads: refuse (with a machine-
        // readable retry hint) rather than serve parameters that lag the
        // leader's committed watermark past the configured bound.
        if (config_.read_lag && config_.max_read_lag > 0) {
          const std::uint64_t lag = config_.read_lag();
          if (lag > config_.max_read_lag) {
            ++stale_checkouts_refused_;
            if (config_.trace)
              config_.trace->event("stale_checkout_refused",
                                   {{"device", req.device_id},
                                    {"lag_records", lag},
                                    {"max_read_lag", config_.max_read_lag}});
            const net::AckMessage nack{
                false, net::retry_after_reason(
                           "replica lagging " + std::to_string(lag) +
                               " records",
                           config_.stale_retry_after_ms)};
            loop->send(conn_id, net::encode_frame(net::MessageType::kAck,
                                                  nack.serialize()));
            return;
          }
        }
        const auto snap =
            config_.draw_snapshot ? config_.draw_snapshot() : board_.current();
        ++checkouts_served_;
        if (config_.trace)
          config_.trace->event("checkout", {{"device", req.device_id},
                                            {"round", snap->version},
                                            {"accepted", snap->accepted}});
        // Pace steering: append the class's advisory hint to the board's
        // pre-encoded frame (a payload slice + re-CRC, never a
        // ParamsMessage round trip). Without a coordinator the frame is
        // passed through byte-identically.
        if (config_.coordinator) {
          loop->send(conn_id,
                     net::frame_with_checkin_hint(
                         snap->params_frame, config_.coordinator->checkout_hint_ms(
                                                 req.device_class)));
        } else {
          loop->send(conn_id, net::Bytes(snap->params_frame));
        }
        return;
      }
    } catch (const net::CodecError&) {
      // fall through to the applier path
    }
  }

  // Follower mode: only the leader mutates the model. Checkins are
  // refused right here on the I/O thread with a machine-readable
  // redirect — they must never reach the applier, so a replica's state
  // stays byte-identical to the leader's replication stream. The nack is
  // issued *before* any application, which is what makes it safe for the
  // device to replay the same checkin at the redirect target.
  if (redirect_active_.load(std::memory_order_acquire) &&
      frame.size() > net::kFrameTypeOffset &&
      frame[net::kFrameTypeOffset] ==
          static_cast<std::uint8_t>(net::MessageType::kCheckin)) {
    net::Bytes redirect;
    std::string leader;
    {
      std::lock_guard<std::mutex> lock(redirect_mu_);
      redirect = checkin_redirect_frame_;
      leader = checkin_redirect_;
    }
    if (!redirect.empty()) {
      ++checkins_redirected_;
      if (config_.trace) config_.trace->event("redirect", {{"leader", leader}});
      loop->send(conn_id, std::move(redirect));
      return;
    }
  }

  // Sharded mode: a checkin whose device id hashes to another shard is
  // refused here on the I/O thread — before any application, same
  // replay-safety argument as the follower redirect above — with a
  // parseable "wrong shard; shard=<addr>" nack the device follows.
  if (config_.shard_route && frame.size() > net::kFrameTypeOffset &&
      frame[net::kFrameTypeOffset] ==
          static_cast<std::uint8_t>(net::MessageType::kCheckin)) {
    if (const auto id = net::peek_checkin_device_id(frame)) {
      if (const auto target = config_.shard_route(*id)) {
        ++checkins_wrong_shard_;
        if (config_.trace)
          config_.trace->event("wrong_shard", {{"device", *id},
                                               {"shard", *target}});
        const net::AckMessage nack{false, net::wrong_shard_reason(*target)};
        loop->send(conn_id, net::encode_frame(net::MessageType::kAck,
                                              nack.serialize()));
        return;
      }
    }
  }

  CheckinWork work;
  work.conn_id = conn_id;
  work.loop = loop;
  work.frame = std::move(frame);
  const bool admitted = config_.route_checkin
                            ? config_.route_checkin(std::move(work))
                            : queue_.try_push(std::move(work));
  if (!admitted) {
    // Last-resort shed. With a coordinator the retry hint reserves the
    // (default-class; the frame is not decoded on this path) next paced
    // slot, so turned-away devices rejoin spread out instead of
    // re-colliding after a fixed delay.
    int retry_ms = config_.queue_retry_after_ms;
    if (config_.coordinator) {
      config_.coordinator->observe_queue_depth(queue_.depth());
      retry_ms = config_.coordinator->shed_retry_after_ms(
          net::kDefaultDeviceClass, retry_ms);
    }
    if (config_.trace)
      config_.trace->event("shed", {{"reason", "checkin queue full"}});
    const net::AckMessage nack{
        false, net::retry_after_reason("checkin queue full", retry_ms)};
    loop->send(conn_id,
               net::encode_frame(net::MessageType::kAck, nack.serialize()));
  }
}

void EpollCrowdServer::applier_loop() {
  using Clock = std::chrono::steady_clock;
  std::vector<CheckinWork> batch;
  std::vector<net::Bytes> responses;
  std::vector<std::uint8_t> classes;
  for (;;) {
    batch.clear();
    responses.clear();
    classes.clear();
    const std::size_t n = queue_.drain(batch, config_.checkin_batch_max, 100);
    board_.refresh_age_gauge();
    if (n == 0) {
      if (queue_.closed()) break;
      continue;
    }
    // Steering inputs: backlog left behind after this drain, and the
    // batch's apply/commit wall time (fsync stalls discount capacity).
    if (config_.coordinator)
      config_.coordinator->observe_queue_depth(queue_.depth());
    const Clock::time_point apply_start = Clock::now();

    // Apply in arrival order — the server's update sequence is exactly
    // the serialized order of in-process ProtocolServer::handle dispatch.
    responses.reserve(n);
    classes.reserve(n);
    for (const CheckinWork& work : batch) {
      obs::TimedScope timer(handle_seconds_);
      std::uint8_t cls = net::kDefaultDeviceClass;
      responses.push_back(protocol_.handle(work.frame, &cls));
      classes.push_back(cls);
    }
    const Clock::time_point commit_start = Clock::now();

    // Group commit: one WAL fsync for the whole batch. On failure every
    // ok-ack in the batch becomes a durability nack — the acks have not
    // left yet, so "acked => durable" still never lies. The hook is
    // copied under its lock each batch so promotion can swap it in
    // between commits.
    std::function<bool()> commit;
    {
      std::lock_guard<std::mutex> lock(gc_mu_);
      commit = group_commit_;
    }
    const bool commit_ok = !commit || commit();
    if (config_.coordinator)
      config_.coordinator->observe_commit(
          n, std::chrono::duration<double>(commit_start - apply_start).count(),
          std::chrono::duration<double>(Clock::now() - commit_start).count());
    if (!commit_ok) {
      ++commit_failures_;
      if (config_.trace)
        config_.trace->event("group_commit_failed", {{"batch", n}});
      const net::AckMessage nack{false, "durability failure"};
      const net::Bytes nack_frame =
          net::encode_frame(net::MessageType::kAck, nack.serialize());
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[i].frame.size() <= net::kFrameTypeOffset ||
            batch[i].frame[net::kFrameTypeOffset] !=
                static_cast<std::uint8_t>(net::MessageType::kCheckin))
          continue;
        try {
          const net::Frame f = net::decode_frame(responses[i]);
          if (f.type == net::MessageType::kAck &&
              net::AckMessage::deserialize(f.payload).ok)
            responses[i] = nack_frame;
        } catch (const net::CodecError&) {
          // responses we encoded ourselves always decode; keep as-is
        }
      }
    }

    // Pace steering: every checkin ack (ok, rejection, or the durability
    // nack above — the device is coming back either way) carries a
    // consuming hint that reserves its class's next arrival slot. Runs
    // after the nack rewrite so the hint survives it.
    if (config_.coordinator) {
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[i].frame.size() <= net::kFrameTypeOffset ||
            batch[i].frame[net::kFrameTypeOffset] !=
                static_cast<std::uint8_t>(net::MessageType::kCheckin))
          continue;
        responses[i] = net::frame_with_checkin_hint(
            responses[i], config_.coordinator->checkin_hint_ms(classes[i]));
      }
    }

    // Publish before releasing acks: a device that sees its ack and
    // immediately checks out gets a snapshot that includes its update.
    // In follower mode the replication thread is the board's single
    // publisher (via republish()); the applier only ever saw
    // non-checkin frames, so it has nothing new to publish anyway.
    if (!redirect_active_.load(std::memory_order_acquire))
      board_.publish(server_);
    batch_size_.observe(static_cast<double>(n));

    // Release acks grouped per event loop: one wakeup carries the whole
    // batch's responses instead of one post per response.
    std::unordered_map<EventLoop*, std::vector<std::pair<std::uint64_t, net::Bytes>>>
        by_loop;
    for (std::size_t i = 0; i < n; ++i) {
      if (batch[i].complete)
        batch[i].complete(std::move(responses[i]));
      else if (batch[i].loop)
        by_loop[batch[i].loop].emplace_back(batch[i].conn_id,
                                            std::move(responses[i]));
    }
    for (auto& [loop, items] : by_loop) loop->send_many(std::move(items));
  }
}

void EpollCrowdServer::republish() { board_.publish(server_); }

void EpollCrowdServer::set_checkin_redirect(const std::string& leader_addr) {
  {
    std::lock_guard<std::mutex> lock(redirect_mu_);
    checkin_redirect_ = leader_addr;
    checkin_redirect_frame_ = make_redirect_frame(leader_addr);
  }
  // Release so an I/O thread that sees the flag also sees the frame it
  // guards (and, on promotion, a publisher handoff already completed).
  redirect_active_.store(!leader_addr.empty(), std::memory_order_release);
}

void EpollCrowdServer::set_group_commit(std::function<bool()> hook) {
  std::lock_guard<std::mutex> lock(gc_mu_);
  group_commit_ = std::move(hook);
}

void EpollCrowdServer::shutdown() {
  if (stopping_.exchange(true)) return;
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
  // Drain before stopping the loops: every admitted request still gets
  // its response, and the applier's completions post to live loops.
  queue_.close();
  if (applier_.joinable()) applier_.join();
  // Multimodel: the pool's per-instance appliers drain here, while the
  // loops are still alive to carry their responses.
  if (config_.shutdown_drain) config_.shutdown_drain();
  for (auto& loop : loops_) loop->stop();
}

}  // namespace crowdml::engine
