// Shared pieces of the replication plane: ack-mode parsing, frame
// sealing, and the per-follower ack tracker that backs quorum waits.
// The shipper reads the WAL through store::WalTailReader. See
// docs/REPLICATION.md.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/messages.hpp"

namespace crowdml::replica {

/// What an acked checkin promises about replication (--repl-ack):
///   kNone   - followers replicate asynchronously; acks never wait.
///   kAsync  - same wire behavior as kNone today, but followers send acks
///             so the leader can report replication lag truthfully.
///   kQuorum - a checkin's ack is held until a majority of configured
///             followers durably appended its WAL record (acked =>
///             replicated). See LogShipper::await_quorum.
enum class ReplAckMode { kNone, kAsync, kQuorum };

const char* repl_ack_mode_name(ReplAckMode mode);
std::optional<ReplAckMode> parse_repl_ack_mode(const std::string& name);

/// Shared-secret authentication for the replication plane (--repl-key-file).
/// Every Repl* payload is sealed as payload || HMAC-SHA256(key,
/// type_byte || payload): binding the frame type into the tag stops a
/// captured heartbeat from being replayed as a vote. An empty key
/// disables sealing (single-operator deployments on a trusted network) —
/// both sides must agree, since a sealed payload does not parse unsealed.
using ReplKey = std::vector<std::uint8_t>;

/// Number of tag bytes a sealed payload carries.
inline constexpr std::size_t kReplTagSize = 32;

/// Append the authentication tag in place (no-op when `key` is empty).
net::Bytes seal_repl_payload(const ReplKey& key, net::MessageType type,
                             net::Bytes payload);

/// Verify and strip the tag. nullopt when the tag is missing or wrong —
/// the caller must drop the frame (never fence on it: an attacker who
/// can forge epochs without the key could otherwise depose a leader).
/// No-op pass-through when `key` is empty.
std::optional<net::Bytes> open_repl_payload(const ReplKey& key,
                                            net::MessageType type,
                                            const net::Bytes& payload);

/// Load a shared key from a file of hex digits (whitespace ignored).
/// Throws std::runtime_error on a missing file or malformed hex.
ReplKey load_repl_key_file(const std::string& path);

/// Tracks each live follower session's durably-acked WAL position and
/// lets the applier thread block until a quorum of them passes a seq.
/// Thread-safe; sessions call ack(), the applier calls await().
class AckTracker {
 public:
  void join(std::uint64_t session);
  void leave(std::uint64_t session);
  /// Record that `session` durably holds everything through `seq`
  /// (monotonic per session; stale regressions are ignored).
  void ack(std::uint64_t session, std::uint64_t seq);

  std::size_t sessions() const;
  /// Highest / lowest acked position among live sessions (0 when none).
  std::uint64_t max_acked() const;
  std::uint64_t min_acked() const;
  /// The position at least `k` live sessions have acked: the k-th
  /// largest acked seq, or 0 when fewer than k sessions are connected.
  /// k == 0 (no acks required) returns UINT64_MAX — trivially satisfied.
  std::uint64_t quorum_acked(std::size_t k) const;

  /// Block until quorum_acked(k) >= seq, `timeout_ms` elapses, or
  /// `abort` returns true (checked on every wake). Returns whether the
  /// quorum was reached.
  bool await(std::uint64_t seq, std::size_t k, int timeout_ms,
             const std::function<bool()>& abort);
  /// Wake all await() callers so they re-check `abort` (shutdown,
  /// fencing).
  void wake();

 private:
  std::uint64_t quorum_acked_locked(std::size_t k) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::uint64_t> acked_;
};

}  // namespace crowdml::replica
