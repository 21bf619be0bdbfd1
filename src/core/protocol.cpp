#include "core/protocol.hpp"

namespace crowdml::core {

net::Bytes ProtocolServer::handle(const net::Bytes& request_frame,
                                  std::uint8_t* device_class) {
  using net::MessageType;
  try {
    // The payload stays a view into the request frame: tags are checked
    // over the body bytes as they arrived, and a checkin's payload is
    // what the WAL logs.
    const net::FrameView frame = net::decode_frame_view(request_frame);
    switch (frame.type) {
      case MessageType::kCheckoutRequest: {
        const auto req = net::CheckoutRequest::deserialize(frame.payload);
        if (!auth_.verify(req.device_id,
                          net::CheckoutRequest::signed_body(frame.payload),
                          req.auth_tag)) {
          ++auth_failures_;
          if (trace_)
            trace_->event("auth_failed", {{"device", req.device_id},
                                          {"message", "checkout"}});
          net::ParamsMessage refuse;
          refuse.accepted = false;
          return net::encode_frame(MessageType::kParams, refuse.serialize());
        }
        const net::ParamsMessage params = server_.handle_checkout(req.device_id);
        if (trace_)
          trace_->event("checkout", {{"device", req.device_id},
                                     {"round", params.version},
                                     {"accepted", params.accepted}});
        return net::encode_frame(MessageType::kParams, params.serialize());
      }
      case MessageType::kCheckin: {
        const auto msg = net::CheckinMessage::deserialize(frame.payload);
        if (!auth_.verify(msg.device_id,
                          net::CheckinMessage::signed_body(frame.payload),
                          msg.auth_tag)) {
          ++auth_failures_;
          if (trace_)
            trace_->event("auth_failed", {{"device", msg.device_id},
                                          {"message", "checkin"}});
          const net::AckMessage nack{false, "authentication failed"};
          return net::encode_frame(MessageType::kAck, nack.serialize());
        }
        if (device_class) *device_class = msg.device_class;
        if (trace_)
          trace_->event("checkin", {{"device", msg.device_id},
                                    {"round", msg.param_version},
                                    {"ns", msg.ns}});
        const std::uint64_t version_before = server_.version();
        const net::AckMessage ack = server_.handle_checkin(msg, frame.payload);
        if (trace_) {
          if (ack.ok) {
            // version_before >= param_version: the gradient was computed
            // against an earlier w; the gap is the observed staleness
            // (Section IV-B3).
            const std::uint64_t staleness =
                version_before >= msg.param_version
                    ? version_before - msg.param_version
                    : 0;
            trace_->event("update_applied", {{"device", msg.device_id},
                                             {"round", msg.param_version},
                                             {"staleness", staleness}});
          } else {
            trace_->event("checkin_rejected",
                          {{"device", msg.device_id}, {"reason", ack.reason}});
          }
        }
        return net::encode_frame(MessageType::kAck, ack.serialize());
      }
      case MessageType::kSecAggAssign: {
        const auto req = net::SecAggAssignMessage::deserialize(frame.payload);
        if (!auth_.verify(req.device_id, req.body(), req.auth_tag)) {
          ++auth_failures_;
          if (trace_)
            trace_->event("auth_failed", {{"device", req.device_id},
                                          {"message", "secagg_assign"}});
          const net::AckMessage nack{false, "authentication failed"};
          return net::encode_frame(MessageType::kAck, nack.serialize());
        }
        if (!secagg_) {
          const net::AckMessage nack{false, "secure aggregation disabled"};
          return net::encode_frame(MessageType::kAck, nack.serialize());
        }
        const net::SecAggAssignMessage resp = secagg_->handle_assign(req);
        return net::encode_frame(MessageType::kSecAggAssign, resp.serialize());
      }
      case MessageType::kSecAggMasked: {
        const auto msg = net::SecAggMaskedMessage::deserialize(frame.payload);
        if (!auth_.verify(msg.device_id, msg.body(), msg.auth_tag)) {
          ++auth_failures_;
          if (trace_)
            trace_->event("auth_failed", {{"device", msg.device_id},
                                          {"message", "secagg_masked"}});
          const net::AckMessage nack{false, "authentication failed"};
          return net::encode_frame(MessageType::kAck, nack.serialize());
        }
        if (!secagg_) {
          const net::AckMessage nack{false, "secure aggregation disabled"};
          return net::encode_frame(MessageType::kAck, nack.serialize());
        }
        const net::AckMessage ack = secagg_->handle_masked(msg);
        return net::encode_frame(MessageType::kAck, ack.serialize());
      }
      case MessageType::kSecAggReveal: {
        const auto req = net::SecAggRevealMessage::deserialize(frame.payload);
        if (!auth_.verify(req.device_id, req.body(), req.auth_tag)) {
          ++auth_failures_;
          if (trace_)
            trace_->event("auth_failed", {{"device", req.device_id},
                                          {"message", "secagg_reveal"}});
          const net::AckMessage nack{false, "authentication failed"};
          return net::encode_frame(MessageType::kAck, nack.serialize());
        }
        if (!secagg_) {
          const net::AckMessage nack{false, "secure aggregation disabled"};
          return net::encode_frame(MessageType::kAck, nack.serialize());
        }
        const net::SecAggRevealMessage resp = secagg_->handle_reveal(req);
        return net::encode_frame(MessageType::kSecAggReveal, resp.serialize());
      }
      case MessageType::kShardPull: {
        // Sealed with the replication key, not device-HMAC'd: the shard
        // handler verifies the seal itself (replica::open_repl_payload)
        // so core stays independent of the replica module.
        if (!shard_) {
          const net::AckMessage nack{false, "sharding disabled"};
          return net::encode_frame(MessageType::kAck, nack.serialize());
        }
        return shard_->handle_shard_pull(
            net::Bytes(frame.payload.begin(), frame.payload.end()));
      }
      case MessageType::kShardMergePush: {
        if (!shard_) {
          const net::AckMessage nack{false, "sharding disabled"};
          return net::encode_frame(MessageType::kAck, nack.serialize());
        }
        return shard_->handle_shard_merge_push(
            net::Bytes(frame.payload.begin(), frame.payload.end()));
      }
      default: {
        ++malformed_;
        if (trace_) trace_->event("malformed_frame");
        const net::AckMessage nack{false, "unexpected message type"};
        return net::encode_frame(MessageType::kAck, nack.serialize());
      }
    }
  } catch (const net::CodecError& e) {
    ++malformed_;
    if (trace_) trace_->event("malformed_frame");
    const net::AckMessage nack{false, std::string("malformed frame: ") + e.what()};
    return net::encode_frame(MessageType::kAck, nack.serialize());
  }
}

DeviceClient::DeviceClient(Device& device, Exchange exchange)
    : device_(device), exchange_(std::move(exchange)) {}

std::optional<CheckinResult> DeviceClient::offer_sample(models::Sample s) {
  device_.on_sample(std::move(s));
  if (!device_.wants_checkout()) return std::nullopt;
  return run_cycle();
}

std::optional<CheckinResult> DeviceClient::run_cycle() {
  using net::MessageType;
  if (!device_.wants_checkout()) return std::nullopt;
  if (!device_.credentials()) return std::nullopt;  // must enroll first
  device_.begin_checkout();

  const auto fail = [&]() -> std::optional<CheckinResult> {
    ++failures_;
    device_.on_checkout_failed();  // Remark 1: retry later
    return std::nullopt;
  };

  // Checkout (Fig. 2 steps 2-3).
  net::CheckoutRequest req;
  req.device_id = device_.id();
  req.auth_tag = device_.credentials()->sign(req.body());
  const auto params_frame =
      exchange_(net::encode_frame(MessageType::kCheckoutRequest, req.serialize()));
  if (!params_frame) return fail();

  net::ParamsMessage params;
  try {
    const net::Frame f = net::decode_frame(*params_frame);
    if (f.type != MessageType::kParams) return fail();
    params = net::ParamsMessage::deserialize(f.payload);
  } catch (const net::CodecError&) {
    return fail();
  }
  if (!params.accepted) return fail();

  // Compute + sanitize + checkin (Fig. 2 steps 4-5).
  CheckinResult result = device_.compute_checkin(params.w, params.version);
  const auto ack_frame = exchange_(
      net::encode_frame(MessageType::kCheckin, result.message.serialize()));
  if (!ack_frame) {
    // The minibatch is already consumed; a lost checkin is non-critical
    // (Remark 1) but we report the cycle as failed.
    ++failures_;
    return std::nullopt;
  }
  try {
    const net::Frame f = net::decode_frame(*ack_frame);
    if (f.type != MessageType::kAck ||
        !net::AckMessage::deserialize(f.payload).ok) {
      ++failures_;
      return std::nullopt;
    }
  } catch (const net::CodecError&) {
    ++failures_;
    return std::nullopt;
  }

  ++cycles_;
  return result;
}

SecAggDeviceClient::SecAggDeviceClient(Device& device,
                                       DeviceClient::Exchange exchange,
                                       Options options)
    : device_(device),
      exchange_(std::move(exchange)),
      options_(std::move(options)) {}

std::optional<SecAggDeviceClient::CycleResult> SecAggDeviceClient::offer_sample(
    models::Sample s) {
  device_.on_sample(std::move(s));
  if (!device_.wants_checkout()) return std::nullopt;
  return run_cycle();
}

bool SecAggDeviceClient::send_fallback(const net::CheckinMessage& msg) {
  using net::MessageType;
  const auto ack_frame =
      exchange_(net::encode_frame(MessageType::kCheckin, msg.serialize()));
  if (!ack_frame) return false;
  try {
    const net::Frame f = net::decode_frame(*ack_frame);
    return f.type == MessageType::kAck &&
           net::AckMessage::deserialize(f.payload).ok;
  } catch (const net::CodecError&) {
    return false;
  }
}

std::optional<SecAggDeviceClient::CycleResult> SecAggDeviceClient::run_cycle() {
  using net::MessageType;
  if (!device_.wants_checkout()) return std::nullopt;
  if (!device_.credentials()) return std::nullopt;  // must enroll first
  device_.begin_checkout();

  const auto fail = [&]() -> std::optional<CycleResult> {
    ++failures_;
    device_.on_checkout_failed();  // Remark 1: retry later
    return std::nullopt;
  };

  // Checkout, exactly as the classic client.
  net::CheckoutRequest req;
  req.device_id = device_.id();
  req.auth_tag = device_.credentials()->sign(req.body());
  const auto params_frame = exchange_(
      net::encode_frame(MessageType::kCheckoutRequest, req.serialize()));
  if (!params_frame) return fail();
  net::ParamsMessage params;
  try {
    const net::Frame f = net::decode_frame(*params_frame);
    if (f.type != MessageType::kParams) return fail();
    params = net::ParamsMessage::deserialize(f.payload);
  } catch (const net::CodecError&) {
    return fail();
  }
  if (!params.accepted) return fail();

  // Masked contribution + pre-signed fallback; the buffer is consumed.
  MaskedCheckinResult masked = device_.compute_checkin_masked(
      params.w, params.version, options_.min_survivors);

  CycleResult result;
  result.batch_size = masked.batch_size;

  secagg::RoundClientConfig rcfg;
  rcfg.fleet_key = options_.fleet_key;
  rcfg.device_class = options_.device_class;
  rcfg.max_polls = options_.max_polls;
  rcfg.sleep_ms = options_.sleep_ms;
  secagg::RoundClient round(rcfg, *device_.credentials(), exchange_);
  const secagg::RoundResult rr = round.run(masked.contribution);
  result.outcome = rr.outcome;
  result.recovered = rr.recovered;
  if (rr.recovered) ++recovered_;

  switch (rr.outcome) {
    case secagg::RoundOutcome::kApplied:
      ++cycles_;
      return result;
    case secagg::RoundOutcome::kAborted:
    case secagg::RoundOutcome::kNoCohort:
      // The masked blob provably will not be applied (the round is dead,
      // or it never left the device): re-release classically.
      if (send_fallback(masked.fallback)) {
        device_.charge_fallback(masked.batch_size);
        ++fallbacks_;
        result.fallback_sent = true;
        if (options_.on_fallback) options_.on_fallback();
        ++cycles_;
      } else {
        ++failures_;
      }
      return result;
    case secagg::RoundOutcome::kFailed:
      // The blob may be inside a live round; never double-send.
      ++failures_;
      return result;
  }
  ++failures_;
  return result;
}

}  // namespace crowdml::core
