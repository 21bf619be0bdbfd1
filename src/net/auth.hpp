// Device authentication (Server Routines 1-2: "Authenticate device").
//
// The server issues each enrolled device a random 32-byte secret; every
// identity-bearing message carries HMAC-SHA256(secret, body). Forged or
// replarbled tags from malignant devices posing as legitimate ones
// (Section III-C's first attack class) are rejected before any state is
// touched.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/codec.hpp"
#include "net/sha256.hpp"
#include "rng/engine.hpp"

namespace crowdml::net {

using SecretKey = std::vector<std::uint8_t>;

struct DeviceCredentials {
  std::uint64_t device_id = 0;
  SecretKey key;

  /// Tag a message body with this device's key.
  Digest sign(const Bytes& body) const;
};

/// Server-side registry of enrolled devices. Thread-safe.
class AuthRegistry {
 public:
  explicit AuthRegistry(rng::Engine eng);

  /// Enroll a new device; returns its credentials (id + fresh secret).
  DeviceCredentials enroll();

  /// Remove a device (it can no longer check out or in).
  void revoke(std::uint64_t device_id);

  /// Verify a tag over `body` claimed by `device_id`. The HMAC runs
  /// outside the registry lock, so concurrent verifies never wait on
  /// each other's hashing.
  bool verify(std::uint64_t device_id, ByteSpan body, const Digest& tag) const;
  bool verify(std::uint64_t device_id, const Bytes& body,
              const Digest& tag) const {
    return verify(device_id, ByteSpan(body), tag);
  }

  std::size_t enrolled_count() const;

 private:
  mutable std::mutex mu_;
  rng::Engine eng_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, SecretKey> keys_;
};

}  // namespace crowdml::net
