#include "replica/repl_session.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <span>
#include <stdexcept>

#include "net/sha256.hpp"

namespace crowdml::replica {

namespace {

net::Digest repl_tag(const ReplKey& key, net::MessageType type,
                     std::span<const std::uint8_t> payload) {
  const std::uint8_t type_byte = static_cast<std::uint8_t>(type);
  return net::hmac_sha256(key, {&type_byte, 1}, payload);
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

net::Bytes seal_repl_payload(const ReplKey& key, net::MessageType type,
                             net::Bytes payload) {
  if (key.empty()) return payload;
  const net::Digest tag = repl_tag(key, type, payload);
  payload.insert(payload.end(), tag.begin(), tag.end());
  return payload;
}

std::optional<net::Bytes> open_repl_payload(const ReplKey& key,
                                            net::MessageType type,
                                            const net::Bytes& payload) {
  if (key.empty()) return payload;
  if (payload.size() < kReplTagSize) return std::nullopt;
  const std::size_t body_size = payload.size() - kReplTagSize;
  net::Digest stated{};
  std::copy(payload.begin() + static_cast<long>(body_size), payload.end(),
            stated.begin());
  if (!net::digest_equal(stated,
                         repl_tag(key, type, {payload.data(), body_size})))
    return std::nullopt;
  return net::Bytes(payload.begin(),
                    payload.begin() + static_cast<long>(body_size));
}

ReplKey load_repl_key_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open repl key file: " + path);
  std::string hex;
  char c;
  while (in.get(c)) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t') continue;
    hex.push_back(c);
  }
  if (hex.empty() || hex.size() % 2 != 0)
    throw std::runtime_error("repl key file must hold even-length hex: " +
                             path);
  ReplKey key;
  key.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0)
      throw std::runtime_error("non-hex byte in repl key file: " + path);
    key.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return key;
}

const char* repl_ack_mode_name(ReplAckMode mode) {
  switch (mode) {
    case ReplAckMode::kNone:
      return "none";
    case ReplAckMode::kAsync:
      return "async";
    case ReplAckMode::kQuorum:
      return "quorum";
  }
  return "?";
}

std::optional<ReplAckMode> parse_repl_ack_mode(const std::string& name) {
  if (name == "none") return ReplAckMode::kNone;
  if (name == "async") return ReplAckMode::kAsync;
  if (name == "quorum") return ReplAckMode::kQuorum;
  return std::nullopt;
}

void AckTracker::join(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  acked_.emplace(session, 0);
}

void AckTracker::leave(std::uint64_t session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    acked_.erase(session);
  }
  // A departure can only shrink the quorum; waiters re-check so a
  // now-unreachable quorum times out against `abort` instead of hanging
  // on a count that can no longer be met.
  cv_.notify_all();
}

void AckTracker::ack(std::uint64_t session, std::uint64_t seq) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = acked_.find(session);
    if (it == acked_.end() || it->second >= seq) return;
    it->second = seq;
  }
  cv_.notify_all();
}

std::size_t AckTracker::sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_.size();
}

std::uint64_t AckTracker::max_acked() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t best = 0;
  for (const auto& [_, seq] : acked_) best = std::max(best, seq);
  return best;
}

std::uint64_t AckTracker::min_acked() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (acked_.empty()) return 0;
  std::uint64_t worst = UINT64_MAX;
  for (const auto& [_, seq] : acked_) worst = std::min(worst, seq);
  return worst;
}

std::uint64_t AckTracker::quorum_acked_locked(std::size_t k) const {
  // k == 0 means no follower acks are required (a majority of zero
  // configured peers — e.g. a promoted leader whose electorate was just
  // itself), so every position is trivially quorum-acked.
  if (k == 0) return UINT64_MAX;
  if (acked_.size() < k) return 0;
  std::vector<std::uint64_t> seqs;
  seqs.reserve(acked_.size());
  for (const auto& [_, seq] : acked_) seqs.push_back(seq);
  std::nth_element(seqs.begin(), seqs.begin() + (k - 1), seqs.end(),
                   std::greater<std::uint64_t>());
  return seqs[k - 1];
}

std::uint64_t AckTracker::quorum_acked(std::size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quorum_acked_locked(k);
}

bool AckTracker::await(std::uint64_t seq, std::size_t k, int timeout_ms,
                       const std::function<bool()>& abort) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::unique_lock<std::mutex> lock(mu_);
  while (quorum_acked_locked(k) < seq) {
    if (abort && abort()) return false;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout)
      return quorum_acked_locked(k) >= seq;
  }
  return true;
}

void AckTracker::wake() { cv_.notify_all(); }

}  // namespace crowdml::replica
