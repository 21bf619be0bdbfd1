#include "cluster.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <signal.h>
#include <sys/wait.h>

#include "loadgen.hpp"
#include "store/durable_store.hpp"

namespace crowdbench {

namespace fs = std::filesystem;
namespace store = crowdml::store;

PrefixState make_prefix(const WorkloadSpec& spec, Crowd& crowd,
                        const std::string& dir) {
  fs::create_directories(dir);
  auto server = make_server(spec);
  crowdml::obs::MetricsRegistry registry;
  store::DurableStoreOptions opts;
  opts.wal.fsync = store::FsyncPolicy::kNever;
  opts.wal.metrics = &registry;
  {
    store::DurableStore durable(dir, opts);
    durable.recover(*server);
    durable.attach(*server);
    for (std::size_t i = 0; i < spec.prefix; ++i) {
      const net::Bytes frame = crowd.make_checkin(
          i % crowd.size(), server->parameters(), server->version());
      const auto msg = net::CheckinMessage::deserialize(
          net::decode_frame(frame).payload);
      if (!server->handle_checkin(msg).ok)
        throw std::runtime_error("prefix checkin rejected");
    }
    durable.sync();
  }
  PrefixState p;
  p.dir = dir;
  p.w = server->parameters();
  p.version = server->version();
  p.stats = server->all_device_stats();
  return p;
}

std::unique_ptr<core::Server> server_at_prefix(const WorkloadSpec& spec,
                                               const PrefixState& prefix) {
  auto server = make_server(spec);
  server->restore(prefix.w, prefix.version, prefix.stats);
  return server;
}

Cluster::Cluster(const WorkloadSpec& spec, std::string server_bin,
                 std::string dir, std::uint64_t auth_seed)
    : spec_(spec),
      server_bin_(std::move(server_bin)),
      dir_(std::move(dir)),
      auth_seed_(auth_seed) {}

std::vector<pid_t> Cluster::pids() const {
  std::vector<pid_t> out;
  for (const auto& c : guard_.all()) out.push_back(c.pid);
  return out;
}

std::vector<pid_t> Cluster::follower_pids() const {
  std::vector<pid_t> out = pids();
  if (!out.empty()) out.erase(out.begin());
  return out;
}

double Cluster::start(const PrefixState& prefix, const net::Bytes& request) {
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  const std::string key_path = dir_ + "/repl.key";
  if (spec_.followers > 0) {
    crowdml::rng::Engine eng(auth_seed_ ^ 0x5EA1ULL);
    std::vector<std::uint8_t> key(32);
    for (auto& b : key) b = static_cast<std::uint8_t>(eng() & 0xFF);
    std::ofstream(key_path) << hex(key) << '\n';
  }
  nodes_.clear();
  for (int i = 0; i <= spec_.followers; ++i) {
    Node n;
    n.dir = dir_ + (i == 0 ? std::string("/leader")
                           : "/follower-" + std::to_string(i));
    fs::create_directories(n.dir);
    n.port = pick_free_port();
    nodes_.push_back(n);
  }
  fs::copy(prefix.dir, wal_dir(0), fs::copy_options::recursive);
  const std::uint16_t repl_port = pick_free_port();

  std::vector<std::vector<std::string>> argvs;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::vector<std::string> a = {
        server_bin_,
        "--port", std::to_string(nodes_[i].port),
        "--classes", std::to_string(spec_.classes),
        "--dim", std::to_string(spec_.dim),
        "--engine", "epoll",
        "--fsync", "always",
        "--wal-dir", wal_dir(i),
        "--enroll", std::to_string(spec_.devices),
        "--keys-out", keys_path(i),
        "--auth-seed", std::to_string(auth_seed_),
        "--metrics-out", metrics_path(i),
        // Periodic compaction is an operator cadence, not program speed;
        // at the 10 s default its stall would land in a random window.
        "--report-every", "3600"};
    if (spec_.followers > 0) {
      a.insert(a.end(), {"--repl-key-file", key_path});
      if (i == 0) {
        a.insert(a.end(), {"--repl-port", std::to_string(repl_port),
                           "--repl-ack", "quorum", "--repl-followers",
                           std::to_string(spec_.followers)});
      } else {
        a.insert(a.end(), {"--role", "follower", "--leader-addr",
                           "127.0.0.1:" + std::to_string(repl_port),
                           "--election-timeout-ms", "0", "--follower-id",
                           std::to_string(i)});
      }
    }
    argvs.push_back(std::move(a));
  }

  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].child = guard_.all().size();
    guard_.add(spawn(argvs[i], nodes_[i].dir + "/server.log",
                     cpu_plan().server));
  }
  std::vector<std::int64_t> ready(nodes_.size(), 0);
  const std::int64_t deadline = t0 + 60'000'000'000LL;
  for (;;) {
    bool all = true;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (ready[i]) continue;
      Child& c = guard_.all()[nodes_[i].child];
      int status = 0;
      if (waitpid(c.pid, &status, WNOHANG) == c.pid) {
        c.pid = -1;
        throw std::runtime_error("server exited during start-up; see " +
                                 c.log + ":\n" + read_file(c.log));
      }
      const net::Bytes p = probe(i, request, 500);
      if (!p.empty() &&
          net::ParamsMessage::deserialize(p).version == prefix.version)
        ready[i] = now_ns();
      else
        all = false;
    }
    if (all) break;
    if (now_ns() > deadline)
      throw std::runtime_error("servers not ready within 60 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::int64_t last = 0;
  for (auto r : ready) last = std::max(last, r);
  return static_cast<double>(last - t0) * 1e-9;
}

bool Cluster::stop() {
  // Followers first: the leader's quorum waits must not outlive them.
  bool ok = true;
  for (std::size_t i = nodes_.size(); i-- > 0;)
    ok = stop_child(guard_.all()[nodes_[i].child]) == 0 && ok;
  return ok;
}

net::Bytes Cluster::probe(std::size_t node, const net::Bytes& request,
                          int timeout_ms) {
  net::Bytes p = checkout_payload(nodes_[node].port, request, timeout_ms);
  if (!p.empty()) ++nodes_[node].probes_served;
  return p;
}

net::Bytes params_payload(core::Server& server) {
  return server.handle_checkout(0).serialize();
}

Recovered recover_dir(const WorkloadSpec& spec, const std::string& dir) {
  Recovered r;
  try {
    auto server = make_server(spec);
    crowdml::obs::MetricsRegistry registry;
    store::DurableStoreOptions opts;
    opts.wal.metrics = &registry;
    store::DurableStore durable(dir, opts);
    durable.recover(*server);
    r.payload = params_payload(*server);
    r.version = server->version();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

std::vector<std::string> check_recovery(const WorkloadSpec& spec,
                                        const std::vector<std::string>& dirs,
                                        const net::Bytes& live,
                                        std::uint64_t expected_t) {
  std::vector<std::string> failures;
  for (const auto& dir : dirs) {
    const Recovered r = recover_dir(spec, dir);
    if (!r.error.empty()) {
      failures.push_back("recovery of " + dir + " failed: " + r.error);
    } else if (r.version != expected_t) {
      failures.push_back("recovery of " + dir + " gives t=" +
                         std::to_string(r.version) + ", expected " +
                         std::to_string(expected_t) +
                         " (prefix + ok acks)");
    } else if (r.payload != live) {
      failures.push_back("recovery of " + dir +
                         " gives parameters that differ from the live "
                         "leader's final (w, t)");
    }
  }
  return failures;
}

std::vector<std::string> check_identical(
    const net::Bytes& leader, const std::vector<net::Bytes>& followers) {
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < followers.size(); ++i)
    if (followers[i] != leader)
      failures.push_back("follower " + std::to_string(i + 1) +
                         " serves params that differ from the leader's");
  return failures;
}

}  // namespace crowdbench
