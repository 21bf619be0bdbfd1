// The servers under test: crowdml-server child processes started with
// the flags a durable deployment uses, plus the correctness checks that
// read their state back after a clean stop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace crowdbench {

/// Server state after the seeded WAL prefix (what every start recovers).
struct PrefixState {
  std::string dir;
  crowdml::linalg::Vector w;
  std::uint64_t version = 0;
  std::unordered_map<std::uint64_t, core::DeviceStats> stats;
};

/// Write `spec.prefix` checkins from the crowd through store::DurableStore
/// into `dir`.
PrefixState make_prefix(const WorkloadSpec& spec, Crowd& crowd,
                        const std::string& dir);

/// A fresh server holding the prefix state.
std::unique_ptr<core::Server> server_at_prefix(const WorkloadSpec& spec,
                                               const PrefixState& prefix);

struct Node {
  std::string dir;  ///< node root; its WAL lives in dir/wal
  std::uint16_t port = 0;
  std::size_t child = 0;  ///< index into the guard
  long long probes_served = 0;  ///< checkouts answered to our probes
};

class Cluster {
 public:
  Cluster(const WorkloadSpec& spec, std::string server_bin, std::string dir,
          std::uint64_t auth_seed);

  /// Copy the prefix into the leader's WAL directory, start every node,
  /// and return the seconds from the first spawn until every node served
  /// a checkout at the prefix version (recovery and, with followers,
  /// catch-up included). Throws on a 60 s timeout or a dead node.
  double start(const PrefixState& prefix, const net::Bytes& probe);

  /// Graceful stop of every node; true when all exited with status 0.
  bool stop();

  const std::vector<Node>& nodes() const { return nodes_; }
  std::vector<pid_t> pids() const;
  std::vector<pid_t> follower_pids() const;
  std::uint16_t leader_port() const { return nodes_.front().port; }
  std::string wal_dir(std::size_t i) const { return nodes_[i].dir + "/wal"; }
  std::string metrics_path(std::size_t i) const {
    return nodes_[i].dir + "/metrics.prom";
  }
  std::string keys_path(std::size_t i) const {
    return nodes_[i].dir + "/keys.csv";
  }
  /// Probe checkout through `port`; counts served probes per node.
  net::Bytes probe(std::size_t node, const net::Bytes& request,
                   int timeout_ms = 1000);

 private:
  WorkloadSpec spec_;
  std::string server_bin_;
  std::string dir_;
  std::uint64_t auth_seed_;
  std::vector<Node> nodes_;
  ChildGuard guard_;
};

/// (w, t) as the params payload a checkout of the recovered state gives.
struct Recovered {
  net::Bytes payload;
  std::uint64_t version = 0;
  std::string error;  ///< non-empty when recovery refused the directory
};

/// Recover a WAL directory in-process (store::DurableStore::recover).
Recovered recover_dir(const WorkloadSpec& spec, const std::string& dir);

/// The params payload core::Server would serve for its current state.
net::Bytes params_payload(core::Server& server);

/// Recovery check: each directory recovers to exactly `live` with
/// version `expected_t`. Returns one message per failure.
std::vector<std::string> check_recovery(const WorkloadSpec& spec,
                                        const std::vector<std::string>& dirs,
                                        const net::Bytes& live,
                                        std::uint64_t expected_t);

/// Follower check: every follower payload equals the leader's.
std::vector<std::string> check_identical(
    const net::Bytes& leader, const std::vector<net::Bytes>& followers);

}  // namespace crowdbench
