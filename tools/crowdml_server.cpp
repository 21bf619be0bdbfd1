// crowdml-server — a standalone Crowd-ML parameter server over TCP.
//
// Usage:
//   crowdml-server --port 9000 --classes 10 --dim 50
//       [--lr 50] [--radius 500] [--updater sgd|adagrad|momentum|dualavg]
//       [--max-iterations N] [--target-error rho]
//       [--enroll N --keys-out keys.csv]      # pre-enroll N devices
//       [--checkpoint state.bin]              # load + periodically save
//       [--wal-dir DIR]                       # durable store: WAL + atomic
//                                             # snapshots, recovered on start
//       [--fsync always|never|every-N]        # WAL durability (default
//                                             # every-64)
//       [--segment-max-bytes BYTES]           # WAL segment rotation size
//       [--force-fresh]                       # discard unreadable state
//                                             # instead of refusing to start
//       [--engine threads|epoll]              # serving engine (default
//                                             # threads; see docs/SCALING.md)
//       [--model-instances K]                 # draw-and-discard pool of K
//                                             # model instances, each with
//                                             # its own applier + WAL stream
//                                             # (epoll only; K=1 is byte-
//                                             # identical to the single-
//                                             # applier path; docs/SCALING.md)
//       [--io-threads N]                      # epoll engine: I/O loop pool
//       [--checkin-queue-max N]               # epoll engine: admission bound
//                                             # (full queue sheds with a
//                                             # retry_after nack)
//       [--coord-steering]                    # coordinator tier: every
//                                             # checkout/ack carries a pace
//                                             # hint (epoll leader only;
//                                             # docs/SCALING.md)
//       [--coord-classes fast:4,slow:2]       # device classes name:weight,
//                                             # listed order = priority
//       [--coord-target-utilization F]        # steer toward this fraction
//                                             # of measured capacity (0.7)
//       [--coord-min-hint-ms N]               # hint clamp floor (5)
//       [--coord-max-hint-ms N]               # hint clamp ceiling (30000)
//       [--coord-init-rate N]                 # assumed checkins/s before
//                                             # the first measured commit
//       [--secagg-cohort N]                   # secure-aggregation cohort
//                                             # size (0/absent = off;
//                                             # docs/PRIVACY.md)
//       [--secagg-min-survivors N]            # abort threshold (default 2)
//       [--secagg-round-timeout-ms N]         # collect/reveal deadline
//                                             # (default 2000)
//       [--shard-map h1:p1,h2:p2]             # sharded cluster: every
//                                             # shard's device address, in
//                                             # shard-id order (epoll
//                                             # leader only; docs/SHARDING.md)
//       [--shard-id N]                        # this process's index into
//                                             # --shard-map
//       [--shards N]                          # optional cross-check: must
//                                             # equal the map size
//       [--shard-merge-ms N]                  # drive cross-shard merges
//                                             # every N ms (exactly one
//                                             # process per cluster, by
//                                             # convention shard 0; 0 = off)
//       [--role leader|follower]              # replication role (default
//                                             # leader; docs/REPLICATION.md)
//       [--leader-addr host:port]             # follower: the leader's
//                                             # replication port
//       [--repl-port N]                       # leader: replication listener
//       [--repl-ack none|async|quorum]        # leader: what an ack promises
//       [--repl-followers N]                  # leader: configured replicas
//                                             # (sizes the quorum)
//       [--epoch-dir DIR]                     # fencing epoch register
//                                             # (default: the wal dir)
//       [--promote-on-start]                  # leader: bump the epoch
//                                             # (manual promotion;
//                                             # break-glass only)
//       [--lease-ms N]                        # leader: heartbeat lease
//       [--election-timeout-ms N]             # follower: failure detector
//                                             # (0 = manual failover only)
//       [--peers h1:p1,h2:p2]                 # follower: fellow followers'
//                                             # vote endpoints
//       [--vote-port N]                       # follower: vote listener
//       [--max-read-lag N]                    # follower: nack checkouts
//                                             # lagging > N records
//       [--repl-key-file PATH]                # hex HMAC key authenticating
//                                             # all Repl* frames
//       [--advertise-host HOST]               # host peers/devices reach
//                                             # this node on (redirects,
//                                             # vote repl_addr); default
//                                             # 127.0.0.1
//       [--follower-id N]                     # follower: id in leader traces
//       [--report-every SECONDS]              # portal report to stdout
//       [--metrics-out metrics.prom]          # Prometheus text, rewritten
//                                             # at every report interval
//       [--trace-out trace.jsonl]             # protocol lifecycle events
//
// With --wal-dir, every applied checkin is appended to a write-ahead log
// before its ack leaves, and each report interval compacts the log into
// an atomic snapshot; after a crash the server recovers the exact
// pre-crash state (snapshot + WAL tail replay) before accepting
// connections. See docs/DURABILITY.md.
//
// Everything exported via --metrics-out / --trace-out is post-sanitization
// or transport-level (see docs/OBSERVABILITY.md) — publishing it costs no
// extra privacy budget, same argument as the portal report.
//
// Device secrets are written to --keys-out as "device_id,hex_key" rows;
// hand one row to each device (crowdml_device --key-file takes the same
// format). The server runs until the stopping criteria are met or SIGINT.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "coord/coordinator.hpp"
#include "core/checkpoint.hpp"
#include "core/monitor.hpp"
#include "core/tcp_runtime.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "multimodel/instance_pool.hpp"
#include "multimodel/pool_replication.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/schedule.hpp"
#include "replica/epoch.hpp"
#include "replica/follower.hpp"
#include "replica/log_shipper.hpp"
#include "secagg/cohort.hpp"
#include "shard/director.hpp"
#include "shard/merge.hpp"
#include "shard/service.hpp"
#include "shard/shard_map.hpp"
#include "store/durable_store.hpp"
#include "tools/flags.hpp"

using namespace crowdml;

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }

std::unique_ptr<opt::Updater> make_updater(const std::string& kind, double lr,
                                           double radius) {
  if (kind == "adagrad") return std::make_unique<opt::AdaGradUpdater>(lr, radius);
  if (kind == "momentum")
    return std::make_unique<opt::MomentumUpdater>(
        std::make_unique<opt::SqrtDecaySchedule>(lr), radius);
  if (kind == "dualavg")
    return std::make_unique<opt::DualAveragingUpdater>(lr, radius);
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(lr), radius);
}

std::string hex_key(const net::SecretKey& key) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : key) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const tools::ReplicaFlags repl = tools::parse_replica_flags(flags);
  if (!repl.error.empty()) {
    std::fprintf(stderr, "crowdml-server: %s\n", repl.error.c_str());
    return 1;
  }
  const tools::CoordFlags coordf = tools::parse_coord_flags(flags);
  if (!coordf.error.empty()) {
    std::fprintf(stderr, "crowdml-server: %s\n", coordf.error.c_str());
    return 1;
  }
  const tools::SecAggFlags secf = tools::parse_secagg_flags(flags);
  if (!secf.error.empty()) {
    std::fprintf(stderr, "crowdml-server: %s\n", secf.error.c_str());
    return 1;
  }
  const tools::ShardFlags shardf = tools::parse_shard_flags(flags);
  if (!shardf.error.empty()) {
    std::fprintf(stderr, "crowdml-server: %s\n", shardf.error.c_str());
    return 1;
  }
  if (secf.enabled) {
    if (!secf.key_file.empty()) {
      // The whole threat model rests on the server never holding the
      // fleet masking key (docs/PRIVACY.md) — refuse loudly rather than
      // let an operator paste the device command line onto the server.
      std::fprintf(stderr,
                   "crowdml-server: --secagg-key-file is a device flag; the "
                   "server must never hold the fleet masking key\n");
      return 1;
    }
    if (flags.get("role", "leader") == "follower") {
      std::fprintf(stderr,
                   "crowdml-server: --secagg-cohort is a leader feature (a "
                   "follower refuses checkins, so it cannot apply cohort "
                   "sums)\n");
      return 1;
    }
    if (flags.get_int("model-instances", 1) != 1) {
      std::fprintf(stderr,
                   "crowdml-server: --secagg-cohort requires "
                   "--model-instances 1 (cohort sums apply to one model)\n");
      return 1;
    }
  }
  const bool is_follower = repl.role == "follower";
  const auto model_instances = static_cast<std::size_t>(
      std::max<long long>(1, flags.get_int("model-instances", 1)));
  const bool pooled = model_instances > 1;
  const auto port = static_cast<std::uint16_t>(flags.get_int("port", 0));
  const auto classes = static_cast<std::size_t>(flags.get_int("classes", 10));
  const auto dim = static_cast<std::size_t>(flags.get_int("dim", 50));
  const double lr = flags.get_double("lr", 50.0);
  const double radius = flags.get_double("radius", 500.0);

  // Draw-and-discard pool constraints (docs/SCALING.md): the pool rides
  // the epoll engine's hooks, a follower replicates per-instance streams
  // via PoolFollowerSet (not yet wired into this binary; see ROADMAP.md),
  // and the legacy single-model --checkpoint format cannot describe k
  // instances (per-instance state lives in the WAL namespaces instead).
  if (pooled) {
    if (flags.get("engine", "threads") != "epoll") {
      std::fprintf(stderr,
                   "crowdml-server: --model-instances %zu requires --engine "
                   "epoll\n",
                   model_instances);
      return 1;
    }
    if (is_follower) {
      std::fprintf(stderr,
                   "crowdml-server: --model-instances > 1 with --role "
                   "follower is not supported yet (pool failover is a "
                   "coordinated-election problem; see ROADMAP.md)\n");
      return 1;
    }
    if (!flags.get("checkpoint", "").empty()) {
      std::fprintf(stderr,
                   "crowdml-server: --checkpoint is single-model; use "
                   "--wal-dir for a --model-instances pool\n");
      return 1;
    }
  }

  core::ServerConfig cfg;
  cfg.param_dim = classes >= 2 ? classes * dim : dim;
  cfg.num_classes = classes >= 2 ? classes : 1;
  cfg.max_iterations = flags.get_int("max-iterations", -1);
  cfg.target_error = flags.get_double("target-error", -1.0);

  core::Server server(cfg, make_updater(flags.get("updater", "sgd"), lr, radius),
                      rng::Engine(flags.get_int("seed", 1)));

  // Missing state is a fresh start; *unreadable* state is refused unless
  // the operator explicitly discards it — silent data loss must never
  // masquerade as a fresh start.
  const bool force_fresh = flags.get_bool("force-fresh");
  const std::string ckpt_path = flags.get("checkpoint", "");
  std::optional<core::ServerCheckpoint> legacy_cp;
  if (!ckpt_path.empty()) {
    if (!std::filesystem::exists(ckpt_path)) {
      std::printf("no checkpoint at %s; starting fresh\n", ckpt_path.c_str());
    } else {
      try {
        legacy_cp = core::ServerCheckpoint::load_file(ckpt_path);
        server.restore(legacy_cp->w, legacy_cp->version,
                       legacy_cp->device_stats);
        std::printf("restored checkpoint %s at iteration %llu\n",
                    ckpt_path.c_str(),
                    static_cast<unsigned long long>(legacy_cp->version));
      } catch (const std::exception& e) {
        if (!force_fresh) {
          std::fprintf(stderr,
                       "crowdml-server: checkpoint %s exists but cannot be "
                       "loaded (%s); refusing to start — pass --force-fresh "
                       "to discard it\n",
                       ckpt_path.c_str(), e.what());
          return 1;
        }
        std::printf("checkpoint %s unreadable (%s); --force-fresh set, "
                    "starting fresh\n",
                    ckpt_path.c_str(), e.what());
      }
    }
  }

  net::AuthRegistry registry(rng::Engine(flags.get_int("auth-seed", 2)));
  const auto enroll_n = flags.get_int("enroll", 0);
  if (enroll_n > 0) {
    const std::string keys_path = flags.get("keys-out", "device_keys.csv");
    std::ofstream keys(keys_path);
    for (long long i = 0; i < enroll_n; ++i) {
      const auto cred = registry.enroll();
      keys << cred.device_id << ',' << hex_key(cred.key) << '\n';
    }
    std::printf("enrolled %lld devices; secrets in %s\n", enroll_n,
                keys_path.c_str());
  }

  // Observability: metrics go to the process-wide registry so the
  // exposition also carries the always-on hot-path timings (codec, frame
  // I/O, gradient); traces stream to a JSONL file as events happen.
  const std::string metrics_path = flags.get("metrics-out", "");
  const std::string trace_path = flags.get("trace-out", "");
  std::unique_ptr<obs::TraceSink> trace;
  if (!trace_path.empty())
    trace = std::make_unique<obs::TraceSink>(trace_path);

  // Durable store: recover the exact pre-crash state (newest snapshot +
  // WAL tail replay) and install the applied-checkin hook — both strictly
  // before the TCP listener exists, so no device ever talks to a server
  // that has not finished recovering.
  std::unique_ptr<store::DurableStore> durable;
  // Sharded deployments namespace each shard's durability under one
  // --wal-dir (docs/SHARDING.md): shard i of k recovers from and appends
  // to <wal-dir>/shard-NNN, so co-located shards never share a log.
  const std::string base_wal_dir = flags.get("wal-dir", "");
  const std::string wal_dir =
      shardf.enabled ? shard::shard_wal_dir(base_wal_dir, shardf.shard_id,
                                            shardf.map.size())
                     : base_wal_dir;
  store::DurableStoreOptions sopts;
  try {
    sopts.wal.fsync = store::parse_fsync_policy(
        flags.get("fsync", "every-64"), &sopts.wal.fsync_every);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "crowdml-server: %s\n", e.what());
    return 1;
  }
  sopts.wal.segment_max_bytes =
      static_cast<std::size_t>(flags.get_int("segment-max-bytes", 4 << 20));
  sopts.wal.metrics = &obs::default_registry();
  sopts.trace = trace.get();
  // Cross-shard merges are logged as opaque MergeRecords; recovery (and a
  // follower replaying this shard's WAL) must re-apply them as overwrites.
  // Harmless when unsharded: no MergeRecord ever appears in the log. The
  // pool path below overwrites this with its own overwrite replay.
  shard::install_merge_replay(sopts);
  // A follower's store is owned by replica::Follower below (it recovers,
  // applies, and compacts through it); the leader path owns it here. A
  // pool owns k per-instance stores inside ModelInstancePool instead.
  if (!wal_dir.empty() && !is_follower && !pooled) {
    const auto recover_into = [&](core::Server& srv) {
      durable = std::make_unique<store::DurableStore>(wal_dir, sopts);
      const auto info = durable->recover(srv);
      std::printf(
          "recovered state: iteration %llu (snapshot v%llu%s, %llu wal "
          "records replayed%s%s)\n",
          static_cast<unsigned long long>(info.recovered_version),
          static_cast<unsigned long long>(info.snapshot_version),
          info.snapshot_loaded ? "" : " [none]",
          static_cast<unsigned long long>(info.records_replayed),
          info.torn_tail_truncated ? ", torn tail truncated" : "",
          info.corrupt_snapshots_skipped > 0 ? ", corrupt snapshot skipped"
                                             : "");
    };
    try {
      recover_into(server);
    } catch (const store::WalError& e) {
      if (!force_fresh) {
        std::fprintf(stderr,
                     "crowdml-server: wal recovery from %s failed (%s); "
                     "refusing to start — pass --force-fresh to set the "
                     "corrupt log aside\n",
                     wal_dir.c_str(), e.what());
        return 1;
      }
      // Preserve the evidence rather than deleting it, then start over.
      const std::string aside = wal_dir + ".corrupt";
      try {
        std::filesystem::remove_all(aside);
        std::filesystem::rename(wal_dir, aside);
      } catch (const std::filesystem::filesystem_error& fe) {
        std::fprintf(stderr,
                     "crowdml-server: cannot set corrupt wal %s aside "
                     "(%s)\n",
                     wal_dir.c_str(), fe.what());
        return 1;
      }
      std::printf("wal recovery failed (%s); --force-fresh set, corrupt "
                  "state moved to %s\n",
                  e.what(), aside.c_str());
      durable.reset();
      // The failed attempt may have replayed a prefix; reset to the
      // legacy checkpoint that loaded above (if any) before recovering
      // into the now-empty store — only the WAL directory was corrupt,
      // so the checkpoint's state must not be discarded with it.
      if (legacy_cp)
        server.restore(legacy_cp->w, legacy_cp->version,
                       legacy_cp->device_stats);
      else
        server.restore(linalg::Vector(cfg.param_dim, 0.0), 0, {});
      try {
        recover_into(server);
      } catch (const store::WalError& e2) {
        std::fprintf(stderr,
                     "crowdml-server: cannot reinitialize durable store "
                     "in %s (%s)\n",
                     wal_dir.c_str(), e2.what());
        return 1;
      }
    }
    durable->attach(server);
  }

  // Replication plane (docs/REPLICATION.md). A follower recovers from its
  // local replica store, then streams the leader's WAL; the serving
  // engine below redirects checkins to the leader. A replicating leader
  // durably loads/bumps its fencing epoch and ships its WAL on a
  // dedicated port. The engine handles are declared here because the
  // follower's on_applied republishes the epoll snapshot board.
  // Declared before the engines: the coordinator must outlive the epoll
  // server that steers through it (reverse destruction order).
  // Secure-aggregation cohort manager (docs/PRIVACY.md): completed
  // cohorts apply through the ordinary checkin path, so the WAL records
  // one synthetic cohort checkin per round and recovery is unchanged.
  // Declared before the engines (it must outlive them).
  std::unique_ptr<secagg::CohortManager> cohort;
  if (secf.enabled) {
    secagg::CohortConfig scfg;
    scfg.cohort_size = static_cast<std::size_t>(secf.cohort);
    scfg.min_survivors = static_cast<std::size_t>(secf.min_survivors);
    scfg.round_timeout_ms = secf.round_timeout_ms;
    scfg.param_dim = cfg.param_dim;
    scfg.num_classes = cfg.num_classes;
    scfg.metrics = &obs::default_registry();
    scfg.trace = trace.get();
    cohort = std::make_unique<secagg::CohortManager>(
        scfg, [&server](const net::CheckinMessage& m) {
          return server.handle_checkin(m);
        });
  }

  std::optional<coord::Coordinator> coordinator;
  std::unique_ptr<core::TcpCrowdServer> tcp;
  std::unique_ptr<engine::EpollCrowdServer> epoll;
  std::unique_ptr<replica::Follower> follower;
  std::unique_ptr<replica::LogShipper> shipper;
  std::unique_ptr<multimodel::ModelInstancePool> pool;
  std::unique_ptr<multimodel::PoolShipperSet> shipper_set;
  // Sharding (docs/SHARDING.md): the merge-plane handler answers
  // ShardPull/ShardMergePush on this shard's applier thread; the
  // director (one process per cluster, by convention shard 0 with
  // --shard-merge-ms > 0) drives periodic cross-shard merges. Declared
  // before the engine so they outlive it.
  std::unique_ptr<shard::ShardService> shard_service;
  std::unique_ptr<shard::MergeDirector> merge_director;
  std::uint64_t repl_epoch = 0;

  // Shared replication-plane HMAC key (empty = unauthenticated).
  replica::ReplKey repl_key;
  if (!repl.repl_key_file.empty()) {
    try {
      repl_key = replica::load_repl_key_file(repl.repl_key_file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "crowdml-server: %s\n", e.what());
      return 1;
    }
  }
  std::string peers_error;
  const std::vector<replica::PeerAddr> peers =
      replica::parse_peer_list(repl.peers, &peers_error);
  if (!peers_error.empty()) {
    std::fprintf(stderr, "crowdml-server: --peers: %s\n",
                 peers_error.c_str());
    return 1;
  }

  if (is_follower) {
    replica::FollowerOptions fopts;
    fopts.leader_host = repl.leader_host;
    fopts.leader_port = repl.leader_port;
    fopts.follower_id =
        static_cast<std::uint64_t>(flags.get_int("follower-id", 1));
    fopts.store = sopts;
    fopts.epoch_dir = repl.epoch_dir;
    fopts.trace = trace.get();
    fopts.on_applied = [&epoll] {
      if (epoll) epoll->republish();
    };
    fopts.detector.election_timeout_min_ms =
        static_cast<int>(repl.election_timeout_ms);
    fopts.vote_port = repl.vote_port;
    fopts.peers = peers;
    fopts.advertise_host = repl.advertise_host;
    fopts.key = repl_key;
    fopts.rng_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    fopts.on_leader_changed = [&epoll](const std::string& addr) {
      if (epoll) epoll->set_checkin_redirect(addr);
    };
    try {
      follower = std::make_unique<replica::Follower>(server, wal_dir, fopts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "crowdml-server: follower init failed: %s\n",
                   e.what());
      return 1;
    }
    repl_epoch = follower->epoch();
    const auto& info = follower->recovery_info();
    std::printf(
        "recovered state: iteration %llu (snapshot v%llu%s, %llu wal "
        "records replayed)\n",
        static_cast<unsigned long long>(info.recovered_version),
        static_cast<unsigned long long>(info.snapshot_version),
        info.snapshot_loaded ? "" : " [none]",
        static_cast<unsigned long long>(info.records_replayed));
  } else if (repl.repl_enabled) {
    try {
      replica::EpochStore estore(repl.epoch_dir.empty() ? wal_dir
                                                        : repl.epoch_dir);
      repl_epoch = estore.load();
      // First boot starts at epoch 1; promotion bumps whatever was
      // promised before. Durable before the shipper exists: a frame
      // stamped with this epoch must survive our own crash.
      if (repl.promote_on_start || repl_epoch == 0) ++repl_epoch;
      estore.store(repl_epoch);
    } catch (const replica::EpochError& e) {
      std::fprintf(stderr, "crowdml-server: %s\n", e.what());
      return 1;
    }
  }

  // Serving engine: the legacy thread-per-connection runtime stays the
  // default; --engine epoll selects the event-loop engine with snapshot
  // checkouts and group-committed checkins (docs/SCALING.md).
  const std::string engine_kind = flags.get("engine", "threads");
  const auto io_threads =
      static_cast<std::size_t>(flags.get_int("io-threads", 1));
  const auto queue_max =
      static_cast<std::size_t>(flags.get_int("checkin-queue-max", 1024));
  std::uint16_t bound_port = 0;
  if (engine_kind == "epoll") {
    if (repl.repl_enabled && !pooled) {
      replica::ShipperOptions shopts;
      shopts.port = repl.repl_port;
      shopts.ack_mode = *replica::parse_repl_ack_mode(repl.ack_mode);
      shopts.quorum_follower_acks = replica::quorum_follower_acks_for(
          static_cast<std::size_t>(repl.followers));
      shopts.trace = trace.get();
      shopts.key = repl_key;
      // Leases: heartbeat at a third of the lease so one lost frame
      // never looks like a dead leader. The advertised redirect target
      // needs the device port, known only post-bind — it is injected
      // below via set_advertise_leader_addr once the engine is up.
      shopts.lease_ms = static_cast<std::uint32_t>(repl.lease_ms);
      shopts.heartbeat_interval_ms =
          std::max(1, static_cast<int>(repl.lease_ms / 3));
      try {
        shipper = std::make_unique<replica::LogShipper>(server, *durable,
                                                        repl_epoch, shopts);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "crowdml-server: %s\n", e.what());
        return 1;
      }
      std::printf(
          "replication: shipping on 127.0.0.1:%u (epoch %llu, ack=%s, "
          "quorum=%zu of %lld followers)\n",
          shipper->port(), static_cast<unsigned long long>(repl_epoch),
          repl.ack_mode.c_str(), shopts.quorum_follower_acks, repl.followers);
    }
    if (pooled) {
      // Draw-and-discard pool: k servers, k appliers, k WAL namespaces
      // under --wal-dir. Construction recovers every instance before the
      // engine binds — same no-traffic-before-recovery rule as above.
      const auto updater_kind = flags.get("updater", "sgd");
      const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
      const auto factory = [&](std::size_t i) {
        return std::make_unique<core::Server>(
            cfg, make_updater(updater_kind, lr, radius),
            rng::Engine(seed).split(i));
      };
      multimodel::PoolOptions popts;
      popts.instances = model_instances;
      popts.seed = seed;
      popts.checkin_queue_max = queue_max;
      popts.wal_dir = wal_dir;
      popts.store = sopts;
      popts.metrics = &obs::default_registry();
      popts.trace = trace.get();
      if (coordf.enabled) {
        // Pooled steering: one Coordinator per instance, owned by the
        // applier whose commits it measures. The engine-level coordinator
        // hook stays null (checkout hints are advisory; the consuming
        // checkin-ack hints are the load-bearing pacing mechanism).
        coord::CoordConfig ccfg;
        ccfg.steering.target_utilization = coordf.target_utilization;
        ccfg.steering.init_rate_per_s = coordf.init_rate;
        ccfg.steering.min_hint_ms =
            static_cast<std::uint32_t>(coordf.min_hint_ms);
        ccfg.steering.max_hint_ms =
            static_cast<std::uint32_t>(coordf.max_hint_ms);
        ccfg.steering.queue_max = queue_max;
        ccfg.steering.batch_max = engine::EngineConfig{}.checkin_batch_max;
        if (secf.enabled)
          ccfg.steering.deadline_ceiling_ms = static_cast<std::uint32_t>(
              std::max<long long>(1, secf.round_timeout_ms / 2));
        ccfg.metrics = &obs::default_registry();
        const coord::DeviceClassTable coord_classes = coordf.classes;
        popts.coordinator_factory = [ccfg, coord_classes](std::size_t) {
          return std::make_unique<coord::Coordinator>(ccfg, coord_classes);
        };
      }
      try {
        pool = std::make_unique<multimodel::ModelInstancePool>(
            registry, factory, popts);
      } catch (const store::WalError& e) {
        std::fprintf(stderr,
                     "crowdml-server: pool recovery from %s failed (%s); "
                     "set the corrupt instance directory aside and "
                     "restart\n",
                     wal_dir.c_str(), e.what());
        return 1;
      }
      if (!wal_dir.empty())
        for (std::size_t i = 0; i < pool->instances(); ++i)
          std::printf(
              "instance %zu: recovered iteration %llu (%llu wal records "
              "replayed)\n",
              i,
              static_cast<unsigned long long>(pool->server(i).version()),
              static_cast<unsigned long long>(
                  pool->store(i)->recovery_info().records_replayed));
      if (repl.repl_enabled) {
        replica::ShipperOptions shopts;
        shopts.port = repl.repl_port;
        shopts.ack_mode = *replica::parse_repl_ack_mode(repl.ack_mode);
        shopts.quorum_follower_acks = replica::quorum_follower_acks_for(
            static_cast<std::size_t>(repl.followers));
        shopts.trace = trace.get();
        shopts.key = repl_key;
        shopts.lease_ms = static_cast<std::uint32_t>(repl.lease_ms);
        shopts.heartbeat_interval_ms =
            std::max(1, static_cast<int>(repl.lease_ms / 3));
        try {
          // One stream per instance on repl_port..repl_port+k-1, each
          // tagged with its instance id; installs the pool's on_commit
          // notify/quorum chain, so it must precede pool->start().
          shipper_set = std::make_unique<multimodel::PoolShipperSet>(
              *pool, repl_epoch, shopts);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "crowdml-server: %s\n", e.what());
          return 1;
        }
        std::printf(
            "replication: shipping %zu instance streams on "
            "127.0.0.1:%u..%u (epoch %llu, ack=%s)\n",
            pool->instances(), shipper_set->port(0),
            shipper_set->port(pool->instances() - 1),
            static_cast<unsigned long long>(repl_epoch),
            repl.ack_mode.c_str());
      }
      pool->start();
    }
    engine::EngineConfig ecfg;
    ecfg.port = port;
    ecfg.io_threads = io_threads;
    ecfg.checkin_queue_max = queue_max;
    ecfg.metrics = &obs::default_registry();
    ecfg.trace = trace.get();
    if (coordf.enabled && !pool) {
      coord::CoordConfig ccfg;
      ccfg.steering.target_utilization = coordf.target_utilization;
      ccfg.steering.init_rate_per_s = coordf.init_rate;
      ccfg.steering.min_hint_ms =
          static_cast<std::uint32_t>(coordf.min_hint_ms);
      ccfg.steering.max_hint_ms =
          static_cast<std::uint32_t>(coordf.max_hint_ms);
      ccfg.steering.queue_max = queue_max;
      ccfg.steering.batch_max = ecfg.checkin_batch_max;
      // Round-deadline awareness: never steer a device past half the
      // secagg round timeout, or paced devices would miss their cohort
      // deadlines and drag every round into recovery.
      if (secf.enabled)
        ccfg.steering.deadline_ceiling_ms = static_cast<std::uint32_t>(
            std::max<long long>(1, secf.round_timeout_ms / 2));
      ccfg.metrics = &obs::default_registry();
      coordinator.emplace(ccfg, coordf.classes);
      ecfg.coordinator = &*coordinator;
    }
    ecfg.secagg = cohort.get();
    if (shardf.enabled) {
      // Merge plane: this shard answers ShardPull/ShardMergePush (sealed
      // with the replication key) on its applier thread; a merge
      // overwrite is WAL'd as a MergeRecord and group-committed exactly
      // like a checkin batch.
      shard::ShardServiceConfig scfg;
      scfg.shard_id = shardf.shard_id;
      scfg.key = repl_key;
      scfg.store = durable.get();
      scfg.metrics = &obs::default_registry();
      scfg.trace = trace.get();
      shard_service = std::make_unique<shard::ShardService>(scfg, server);
      ecfg.shard = shard_service.get();
      if (shardf.map.size() > 1) {
        // Device partitioning: checkins for a device this shard does not
        // own are nacked pre-application with "wrong shard; shard=<addr>"
        // so the session replays at the owner. With one shard the hook
        // stays null and every frame is byte-identical to unsharded.
        const shard::ShardMap map = shardf.map;
        const std::size_t self = shardf.shard_id;
        ecfg.shard_route =
            [map, self](std::uint64_t device_id) -> std::optional<std::string> {
          const std::size_t owner = map.shard_of(device_id);
          if (owner == self) return std::nullopt;
          return map.addr(owner);
        };
      }
    }
    if (pool) multimodel::wire_engine(*pool, ecfg);
    if (is_follower) {
      ecfg.checkin_redirect = repl.leader_addr;
      if (repl.max_read_lag > 0) {
        // Bounded-staleness reads: checkouts on a replica lagging more
        // than this many records behind the leader's committed watermark
        // are nacked with a retry hint instead of served stale.
        replica::Follower* f = follower.get();
        ecfg.read_lag = [f] { return f->read_lag(); };
        ecfg.max_read_lag = static_cast<std::uint64_t>(repl.max_read_lag);
      }
    }
    if (durable) {
      // One fsync per drained batch instead of one per checkin; acks are
      // held until the batch commit succeeds, so acked => durable holds.
      // With a quorum shipper, acks additionally wait for a majority of
      // followers to durably append the batch (acked => replicated).
      durable->set_group_commit(true);
      store::DurableStore* d = durable.get();
      replica::LogShipper* s = shipper.get();
      ecfg.group_commit = [d, s] {
        if (!d->commit_group()) return false;
        if (!s) return true;
        s->notify_committed();
        return s->await_quorum(d->wal().last_seq());
      };
    }
    // A pool's engine still needs a core::Server for its (idle) board;
    // instance 0 stands in — checkouts and checkins never touch it once
    // the pool hooks are wired.
    epoll = std::make_unique<engine::EpollCrowdServer>(
        pool ? pool->server(0) : server, registry, ecfg);
    bound_port = epoll->port();
    if (shipper)
      shipper->set_advertise_leader_addr(repl.advertise_host + ":" +
                                         std::to_string(bound_port));
    if (shipper_set)
      for (std::size_t i = 0; i < shipper_set->size(); ++i)
        shipper_set->shipper(i).set_advertise_leader_addr(
            repl.advertise_host + ":" + std::to_string(bound_port));
    if (follower) {
      follower->set_device_addr(repl.advertise_host + ":" +
                                std::to_string(bound_port));
      follower->start();
      if (repl.election_timeout_ms > 0)
        std::printf(
            "failover: election timeout %lldms, vote listener on "
            "127.0.0.1:%u, %zu peer(s)\n",
            repl.election_timeout_ms, follower->vote_port(), peers.size());
    }
    if (shardf.enabled && shardf.merge_ms > 0) {
      // Cross-shard merge driver. Exactly one process per cluster should
      // set --shard-merge-ms > 0 (by convention shard 0); every other
      // shard leaves it at 0 and only answers the merge plane.
      shard::MergeDirectorConfig dcfg;
      dcfg.map = shardf.map;
      dcfg.key = repl_key;
      dcfg.interval_ms = static_cast<std::uint32_t>(shardf.merge_ms);
      dcfg.metrics = &obs::default_registry();
      dcfg.trace = trace.get();
      merge_director = std::make_unique<shard::MergeDirector>(dcfg);
      merge_director->start();
      std::printf("shard merge director: %zu shard(s), every %lldms\n",
                  shardf.map.size(), shardf.merge_ms);
    }
  } else if (engine_kind == "threads") {
    core::TcpServerConfig tcp_cfg;
    tcp_cfg.port = port;
    tcp_cfg.metrics = &obs::default_registry();
    tcp_cfg.trace = trace.get();
    tcp_cfg.secagg = cohort.get();
    tcp = std::make_unique<core::TcpCrowdServer>(server, registry, tcp_cfg);
    bound_port = tcp->port();
  } else {
    std::fprintf(stderr,
                 "crowdml-server: unknown --engine %s (threads|epoll)\n",
                 engine_kind.c_str());
    return 1;
  }
  // The effective configuration, once, so a log file pins down exactly
  // what this process is running with (flags have defaults; the port may
  // have been ephemeral).
  std::printf(
      "config: engine=%s role=%s port=%u dim=%zu classes=%zu updater=%s lr=%g "
      "radius=%g max-iterations=%lld target-error=%g wal=%s fsync=%s "
      "io-threads=%zu checkin-queue-max=%zu model-instances=%zu "
      "report-every=%gs\n",
      engine_kind.c_str(), repl.role.c_str(), bound_port, dim, classes,
      flags.get("updater", "sgd").c_str(), lr, radius,
      static_cast<long long>(cfg.max_iterations), cfg.target_error,
      wal_dir.empty() ? "(none)" : wal_dir.c_str(),
      wal_dir.empty() ? "-" : flags.get("fsync", "every-64").c_str(),
      io_threads, queue_max, model_instances,
      flags.get_double("report-every", 10.0));
  if (coordinator)
    std::printf(
        "config: coord-steering=on classes=%s target-utilization=%g "
        "min-hint-ms=%lld max-hint-ms=%lld init-rate=%g\n",
        coordinator->classes().describe().c_str(), coordf.target_utilization,
        coordf.min_hint_ms, coordf.max_hint_ms, coordf.init_rate);
  if (cohort)
    std::printf(
        "config: secagg=on cohort=%lld min-survivors=%lld "
        "round-timeout-ms=%lld\n",
        secf.cohort, secf.min_survivors, secf.round_timeout_ms);
  if (shardf.enabled)
    std::printf("config: shard-id=%zu shards=%zu shard-merge-ms=%lld\n",
                shardf.shard_id, shardf.map.size(), shardf.merge_ms);
  std::printf("crowdml-server listening on 127.0.0.1:%u (dim=%zu classes=%zu)\n",
              bound_port, dim, classes);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Persistence failures must never take a serving loop down: the WAL (if
  // any) still guarantees recovery, so log the failure and keep serving.
  const auto save_checkpoint = [&]() {
    if (ckpt_path.empty()) return;
    try {
      core::checkpoint_server(server).save_file(ckpt_path);
    } catch (const std::exception& e) {
      std::printf("checkpoint save failed (%s); continuing\n", e.what());
    }
  };

  const double report_every = flags.get_double("report-every", 10.0);
  auto last_report = std::chrono::steady_clock::now();
  bool promotion_done = false;
  while (!g_stop.load() && !(pool ? pool->stopped() : server.stopped())) {
    if (follower && follower->fatal()) {
      std::fprintf(stderr,
                   "crowdml-server: follower replication hit a fatal local "
                   "error; restart to re-recover\n");
      break;
    }
    if (follower && follower->promoted() && !promotion_done) {
      // Leader-role handoff, zero-operator. Ordering matters at every
      // step: the replication thread must be gone before its store is
      // attached to the serving path; the board must be republished by
      // the applier's new owner *before* checkins are admitted (single-
      // publisher contract); and the shipper binds the just-freed vote
      // port — the address peers were told to replicate from when they
      // granted their votes.
      promotion_done = true;
      const std::uint64_t won_epoch = follower->epoch();
      const std::uint16_t new_repl_port = follower->vote_port();
      follower->shutdown();
      store::DurableStore& fstore = follower->store();
      fstore.set_group_commit(true);
      fstore.attach(server);
      replica::ShipperOptions shopts;
      shopts.port = new_repl_port;
      shopts.ack_mode = replica::ReplAckMode::kQuorum;
      shopts.quorum_follower_acks =
          replica::quorum_follower_acks_for(peers.size());
      shopts.trace = trace.get();
      shopts.key = repl_key;
      // The ex-followers' detectors still run on --election-timeout-ms;
      // heartbeat well inside it so the new regime is stable.
      shopts.lease_ms = static_cast<std::uint32_t>(
          std::max<long long>(1, repl.election_timeout_ms / 2));
      shopts.heartbeat_interval_ms = std::max(
          1, static_cast<int>(repl.election_timeout_ms / 6));
      shopts.advertise_leader_addr =
          repl.advertise_host + ":" + std::to_string(bound_port);
      try {
        shipper = std::make_unique<replica::LogShipper>(server, fstore,
                                                        won_epoch, shopts);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "crowdml-server: promotion failed binding replication "
                     "port %u: %s\n",
                     new_repl_port, e.what());
        break;
      }
      store::DurableStore* fs = &fstore;
      replica::LogShipper* ns = shipper.get();
      epoll->set_group_commit([fs, ns] {
        if (!fs->commit_group()) return false;
        ns->notify_committed();
        return ns->await_quorum(fs->wal().last_seq());
      });
      epoll->republish();
      epoll->set_checkin_redirect("");
      std::printf(
          "election won: serving as leader (epoch %llu, replication on "
          "127.0.0.1:%u, quorum=%zu of %zu peers)\n",
          static_cast<unsigned long long>(won_epoch), shipper->port(),
          shopts.quorum_follower_acks, peers.size());
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_report).count() >= report_every) {
      if (pool) {
        std::printf("pool: %zu instances, total iteration %llu "
                    "(overwrites applied %lld, dropped %lld)\n",
                    pool->instances(),
                    static_cast<unsigned long long>(pool->total_version()),
                    pool->overwrites_applied(), pool->overwrites_dropped());
        for (std::size_t i = 0; i < pool->instances(); ++i)
          std::fputs(core::portal_report(pool->server(i)).c_str(), stdout);
      } else {
        std::fputs(core::portal_report(server).c_str(), stdout);
      }
      if (cohort) {
        cohort->tick();  // advance round deadlines even through a lull
        std::printf(
            "secagg: rounds sealed %lld, completed %lld (recovered %lld), "
            "aborted %lld, masked checkins %lld\n",
            cohort->rounds_sealed(), cohort->rounds_completed(),
            cohort->rounds_recovered(), cohort->rounds_aborted(),
            cohort->masked_checkins());
      }
      if (follower)
        std::printf(
            "replicated through seq %llu (epoch %llu, connected=%d, stale "
            "frames refused %lld, snapshots installed %lld)\n",
            static_cast<unsigned long long>(follower->applied_seq()),
            static_cast<unsigned long long>(follower->epoch()),
            follower->connected() ? 1 : 0, follower->stale_frames_refused(),
            follower->snapshots_installed());
      if (shipper)
        std::printf("replication: %zu follower session(s), epoch %llu%s\n",
                    shipper->follower_sessions(),
                    static_cast<unsigned long long>(shipper->epoch()),
                    shipper->fenced() ? " [FENCED: a newer leader exists]"
                                      : "");
      std::fflush(stdout);
      last_report = now;
      save_checkpoint();
      if (durable && !durable->compact(server))
        std::printf("snapshot compaction failed; wal intact, continuing\n");
      if (pool && !wal_dir.empty())
        for (std::size_t i = 0; i < pool->instances(); ++i)
          if (!pool->store(i)->compact(pool->server(i)))
            std::printf("instance %zu compaction failed; wal intact, "
                        "continuing\n",
                        i);
      if (follower && !follower->compact())
        std::printf("snapshot compaction failed; wal intact, continuing\n");
      if (!metrics_path.empty())
        obs::write_metrics_file(obs::default_registry(), metrics_path);
    }
  }

  save_checkpoint();
  if (!ckpt_path.empty()) std::printf("checkpoint saved to %s\n", ckpt_path.c_str());
  if (durable) {
    durable->sync();  // flush any WAL records the fsync policy buffered
    if (durable->compact(server))
      std::printf("durable state compacted in %s at iteration %llu\n",
                  durable->dir().c_str(),
                  static_cast<unsigned long long>(server.version()));
  }
  if (follower) {
    // Stop replicating before the engine goes away (on_applied
    // republishes its board), then leave a fresh snapshot behind so the
    // next start — possibly a promotion — recovers instantly.
    follower->shutdown();
    follower->compact();
    std::printf("replicated through seq %llu (epoch %llu) at shutdown\n",
                static_cast<unsigned long long>(follower->applied_seq()),
                static_cast<unsigned long long>(follower->epoch()));
  }
  if (!pool) std::fputs(core::portal_report(server).c_str(), stdout);
  // Stop driving merges before the engine goes away: a mid-flight round
  // finishes or times out against still-live applier threads.
  if (merge_director) {
    merge_director->shutdown();
    std::printf("merge director: %llu round(s) completed, %llu skipped\n",
                static_cast<unsigned long long>(
                    merge_director->rounds_completed()),
                static_cast<unsigned long long>(
                    merge_director->rounds_skipped()));
  }
  if (tcp) tcp->shutdown();
  // For a pool the engine's shutdown_drain drains every instance queue
  // while the event loops are still alive, then pool appliers join.
  if (epoll) epoll->shutdown();
  if (pool) {
    for (std::size_t i = 0; i < pool->instances(); ++i) {
      if (!wal_dir.empty() && pool->store(i)->compact(pool->server(i)))
        std::printf("instance %zu compacted at iteration %llu\n", i,
                    static_cast<unsigned long long>(
                        pool->server(i).version()));
      std::fputs(core::portal_report(pool->server(i)).c_str(), stdout);
    }
    std::printf("pool total iteration %llu (overwrites applied %lld, "
                "dropped %lld)\n",
                static_cast<unsigned long long>(pool->total_version()),
                pool->overwrites_applied(), pool->overwrites_dropped());
  }
  // After the appliers are drained: no more quorum waits, safe to drop
  // the shipping plane.
  if (shipper) shipper->shutdown();
  if (shipper_set) shipper_set->shutdown();
  if (!metrics_path.empty()) {
    obs::write_metrics_file(obs::default_registry(), metrics_path);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  if (trace) trace->flush();
  return 0;
}
