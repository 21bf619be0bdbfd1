#include "net/auth.hpp"

namespace crowdml::net {

Digest DeviceCredentials::sign(const Bytes& body) const {
  return hmac_sha256(key, body);
}

AuthRegistry::AuthRegistry(rng::Engine eng) : eng_(eng) {}

DeviceCredentials AuthRegistry::enroll() {
  std::lock_guard lock(mu_);
  DeviceCredentials cred;
  cred.device_id = next_id_++;
  cred.key.resize(32);
  for (std::size_t i = 0; i < cred.key.size(); i += 8) {
    const std::uint64_t word = eng_();
    for (std::size_t b = 0; b < 8 && i + b < cred.key.size(); ++b)
      cred.key[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
  }
  keys_[cred.device_id] = cred.key;
  return cred;
}

void AuthRegistry::revoke(std::uint64_t device_id) {
  std::lock_guard lock(mu_);
  keys_.erase(device_id);
}

bool AuthRegistry::verify(std::uint64_t device_id, ByteSpan body,
                          const Digest& tag) const {
  SecretKey key;
  {
    std::lock_guard lock(mu_);
    const auto it = keys_.find(device_id);
    if (it == keys_.end()) return false;
    key = it->second;
  }
  return digest_equal(hmac_sha256(key, body, {}), tag);
}

std::size_t AuthRegistry::enrolled_count() const {
  std::lock_guard lock(mu_);
  return keys_.size();
}

}  // namespace crowdml::net
