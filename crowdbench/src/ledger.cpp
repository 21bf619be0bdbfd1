#include "ledger.hpp"

#include <filesystem>
#include <stdexcept>

#include "core/protocol.hpp"
#include "engine/snapshot_board.hpp"
#include "replica/repl_session.hpp"
#include "store/wal.hpp"

namespace crowdbench {

namespace {

namespace store = crowdml::store;

constexpr std::size_t kChunk = 64;  // checkins per reference/ledger turn

bool ok_ack(const net::Bytes& frame) {
  const net::Frame f = net::decode_frame(frame);
  return f.type == net::MessageType::kAck &&
         net::AckMessage::deserialize(f.payload).ok;
}

}  // namespace

LedgerResult run_ledger(const LedgerInput& in) {
  const WorkloadSpec& spec = *in.spec;
  const std::vector<net::Bytes>& frames = *in.checkins;
  if (frames.empty()) throw std::invalid_argument("ledger: no checkins");
  net::AuthRegistry auth{crowdml::rng::Engine(in.auth_seed)};
  for (std::size_t i = 0; i < spec.devices; ++i) auth.enroll();

  // Closure reference: the protocol boundary the applier calls, whole.
  auto ref_server = server_at_prefix(spec, *in.prefix);
  core::ProtocolServer proto(*ref_server, auth);

  auto server = server_at_prefix(spec, *in.prefix);
  std::filesystem::remove_all(in.scratch_dir);
  crowdml::obs::MetricsRegistry registry;
  store::WalOptions wopts;
  wopts.fsync = store::FsyncPolicy::kNever;  // fsync is its own stage
  wopts.metrics = &registry;
  store::WriteAheadLog wal(in.scratch_dir, wopts);
  wal.open_and_replay(0, [](std::uint64_t, const net::Bytes&) {});
  crowdml::engine::ModelSnapshotBoard board(&registry);
  const crowdml::replica::ReplKey key(32, 0x42);

  enum Stage { kDecode, kParse, kVerify, kApply, kWalEncode, kAckEncode,
               kCheckin, kAppend, kFsync, kPublish, kSeal, kStages };
  static const char* const kNames[kStages] = {
      "decode", "parse", "verify", "apply", "wal_encode", "ack_encode",
      "ledger.checkin", "wal_append", "fsync", "params_encode", "seal"};
  std::int64_t total[kStages] = {};
  LedgerResult out;
  out.spans.reserve(frames.size() * 7 + frames.size() / in.batch * 5 + 16);
  std::uint32_t next_id = 1;
  const auto span = [&](Stage st, std::uint32_t parent, std::int64_t a,
                        std::int64_t b) {
    out.spans.push_back(Span{kNames[st], next_id, parent, a, b});
    total[st] += b - a;
    return next_id++;
  };

  std::int64_t reference = 0;
  std::vector<store::WalRecord> batch;
  std::size_t batches = 0;
  std::size_t sink = 0;
  for (std::size_t c0 = 0; c0 < frames.size(); c0 += kChunk) {
    const std::size_t c1 = std::min(frames.size(), c0 + kChunk);
    for (std::size_t i = c0; i < c1; ++i) {
      const std::int64_t t0 = now_ns();
      const net::Bytes resp = proto.handle(frames[i]);
      reference += now_ns() - t0;
      if (!ok_ack(resp)) throw std::runtime_error("reference replay nacked");
    }
    for (std::size_t i = c0; i < c1; ++i) {
      const std::int64_t t0 = now_ns();
      const net::Frame f = net::decode_frame(frames[i]);
      const std::int64_t t1 = now_ns();
      const auto msg = net::CheckinMessage::deserialize(f.payload);
      const std::int64_t t2 = now_ns();
      const bool verified =
          auth.verify(msg.device_id, msg.body(), msg.auth_tag);
      const std::int64_t t3 = now_ns();
      const net::AckMessage ack = server->handle_checkin(msg);
      const std::int64_t t4 = now_ns();
      net::Bytes payload = msg.serialize();
      sink += store::encode_wal_record(server->version(), payload).size();
      const std::int64_t t5 = now_ns();
      sink +=
          net::encode_frame(net::MessageType::kAck, ack.serialize()).size();
      const std::int64_t t6 = now_ns();
      if (!verified || !ack.ok)
        throw std::runtime_error("ledger replay: checkin refused");
      const std::uint32_t parent = span(kCheckin, 0, t0, t6);
      span(kDecode, parent, t0, t1);
      span(kParse, parent, t1, t2);
      span(kVerify, parent, t2, t3);
      span(kApply, parent, t3, t4);
      span(kWalEncode, parent, t4, t5);
      span(kAckEncode, parent, t5, t6);
      batch.push_back({server->version(), std::move(payload)});

      if (batch.size() < in.batch && i + 1 < frames.size()) continue;
      const std::int64_t b0 = now_ns();
      wal.append_batch(batch);
      const std::int64_t b1 = now_ns();
      wal.sync();
      const std::int64_t b2 = now_ns();
      board.publish(*server);
      const std::int64_t b3 = now_ns();
      net::ReplAppendMessage append;
      append.epoch = 1;
      for (auto& r : batch)
        append.records.push_back({r.seq, std::move(r.payload)});
      const net::Bytes body = append.serialize();
      const std::int64_t b4 = now_ns();
      sink += crowdml::replica::seal_repl_payload(
                  key, net::MessageType::kReplAppend, body)
                  .size();
      const std::int64_t b5 = now_ns();
      out.spans.push_back(Span{"ledger.batch", next_id, 0, b0, b5});
      const std::uint32_t bp = next_id++;
      span(kAppend, bp, b0, b1);
      span(kFsync, bp, b1, b2);
      span(kPublish, bp, b2, b3);
      span(kSeal, bp, b4, b5);
      batch.clear();
      ++batches;
    }
  }
  if (sink == 0) throw std::logic_error("ledger: nothing encoded");

  const auto n = static_cast<double>(frames.size());
  const auto nb = static_cast<double>(batches);
  double children = 0;
  for (Stage st : {kDecode, kParse, kVerify, kApply, kWalEncode, kAckEncode}) {
    out.ns[kNames[st]] = static_cast<double>(total[st]) / n;
    children += out.ns[kNames[st]];
  }
  out.ns["checkin_self"] = static_cast<double>(total[kCheckin]) / n - children;
  out.ns["wal_append_per_record"] = static_cast<double>(total[kAppend]) / n;
  out.ns["fsync_per_batch"] = static_cast<double>(total[kFsync]) / nb;
  out.ns["params_encode_per_batch"] = static_cast<double>(total[kPublish]) / nb;
  out.ns["seal_per_batch"] = static_cast<double>(total[kSeal]) / nb;
  out.ns["protocol_handle"] = static_cast<double>(reference) / n;
  const double closed = out.ns["decode"] + out.ns["parse"] + out.ns["verify"] +
                        out.ns["apply"] + out.ns["ack_encode"];
  out.closure_ratio = closed / out.ns["protocol_handle"];
  out.closure_ok = out.closure_ratio >= 1.0 - kClosureTolerance &&
                   out.closure_ratio <= 1.0 + kClosureTolerance;
  out.state_ok = params_payload(*server) == params_payload(*ref_server);
  std::filesystem::remove_all(in.scratch_dir);
  return out;
}

}  // namespace crowdbench
