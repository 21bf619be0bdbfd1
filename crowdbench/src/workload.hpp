// Workload definitions and the device side of the benchmark: enrolled
// identities, the MNIST-like data, and sanitized checkin frames made
// through core::Device before any load phase runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "core/server.hpp"
#include "data/dataset.hpp"
#include "models/logistic_regression.hpp"
#include "net/auth.hpp"

namespace crowdbench {

namespace net = crowdml::net;
namespace core = crowdml::core;

struct WorkloadSpec {
  std::string name;
  std::size_t classes = 10;
  std::size_t dim = 50;       ///< features per class (PCA dimension)
  int followers = 0;          ///< 0: one leader; 2: leader + 2 followers
  double nominal_rate = 0;    ///< device cycles (= checkins) per second
  /// Nominal timings are taken per window of this length (>= 1000
  /// checkins, so each window has a p99 with ten samples beyond it) and
  /// reported as the median over the run's windows.
  double window_s = 1.0;
  double latency_limit_ms = 0;  ///< checkin p99 limit of the capacity search
  double search_start = 0;    ///< first rate the capacity search tries
  std::size_t devices = 4000;   ///< enrolled identities
  std::size_t prefix = 2000;    ///< seeded WAL records recovered at start
  std::size_t minibatch = 10;   ///< samples per checkin (b)

  std::size_t param_dim() const { return classes * dim; }
};

/// The three workloads; throws on an unknown name.
WorkloadSpec workload_by_name(const std::string& name);

/// Server construction shared by the in-process checks and the ledger:
/// the same updater and seed crowdml-server uses by default.
std::unique_ptr<core::Server> make_server(const WorkloadSpec& w);

/// The simulated crowd: one core::Device per enrolled identity, each
/// drawing minibatches from the shared MNIST-like training split.
class Crowd {
 public:
  Crowd(const WorkloadSpec& spec, std::uint64_t seed,
        std::vector<net::DeviceCredentials> creds);

  std::size_t size() const { return devices_.size(); }
  const net::DeviceCredentials& creds(std::size_t i) const { return creds_[i]; }
  const net::Bytes& checkout_frame(std::size_t i) const {
    return checkout_frames_[i];
  }

  /// One sanitized, signed checkin frame from device `i`, computed
  /// against (w, version). Devices are independent: calls for distinct
  /// devices may run on distinct threads.
  net::Bytes make_checkin(std::size_t i, const crowdml::linalg::Vector& w,
                          std::uint64_t version);

  /// The same work on a device of its own whose frames go nowhere, for
  /// timing the device side at any moment without changing the inputs
  /// the seed fixes. Signed as identity 0. One thread at a time.
  net::Bytes make_probe_checkin(const crowdml::linalg::Vector& w,
                                std::uint64_t version);

 private:
  WorkloadSpec spec_;
  crowdml::data::Dataset data_;
  std::unique_ptr<crowdml::models::MulticlassLogisticRegression> model_;
  std::vector<net::DeviceCredentials> creds_;
  std::vector<std::unique_ptr<core::Device>> devices_;
  std::vector<crowdml::rng::Engine> pick_;
  std::unique_ptr<core::Device> probe_;
  crowdml::rng::Engine probe_pick_;
  std::vector<net::Bytes> checkout_frames_;
};

/// The credentials crowdml-server --enroll N --auth-seed S issues.
std::vector<net::DeviceCredentials> enroll(std::size_t n,
                                           std::uint64_t auth_seed);

/// Hex key as crowdml-server writes it to --keys-out.
std::string hex(const std::vector<std::uint8_t>& bytes);

}  // namespace crowdbench
