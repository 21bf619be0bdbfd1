// crowdml-device — a standalone Crowd-ML device client over TCP.
//
// Streams labeled samples from a CSV file (label,feature1,feature2,...)
// through Algorithm 1 against a running crowdml-server:
//
//   crowdml-device --host 127.0.0.1 --port 9000
//       --data samples.csv --key "17,ab34..."   # one row of keys-out
//       [--minibatch 10] [--epsilon 10] [--passes 1] [--classes 10]
//       [--io-deadline-ms 5000] [--connect-timeout-ms 2000]
//       [--max-attempts 8] [--backoff-max-ms 2000]
//       [--secagg-cohort N --secagg-key-file fleet.key]  # cohort mode:
//                                  # pairwise-masked checkins with
//                                  # cohort-scaled noise; falls back to
//                                  # classic LDP when a round aborts
//                                  # (docs/PRIVACY.md)
//       [--secagg-min-survivors N] # must match the server's value
//       [--device-class N]         # declared device class for cohort
//                                  # formation (0 = default; per-class
//                                  # cohorts, docs/PRIVACY.md)
//       [--shard-map h1:p1,h2:p2]  # sharded cluster: hash-route to this
//                                  # device's home shard instead of
//                                  # --host/--port (docs/SHARDING.md);
//                                  # a stale map still converges via the
//                                  # server's "wrong shard" redirects
//
// Features are L1-normalized on ingest (the privacy precondition).
//
// The connection rides core::ReconnectingDeviceSession: a dropped or
// restarting server is retried with capped exponential backoff (checkouts
// replayed freely, checkins abandoned — never replayed), so the device
// survives a server crash-and-recover window without operator help.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/tcp_runtime.hpp"
#include "data/dataset.hpp"
#include "data/io.hpp"
#include "models/logistic_regression.hpp"
#include "models/ridge_regression.hpp"
#include "shard/shard_map.hpp"
#include "tools/flags.hpp"

using namespace crowdml;

namespace {

net::DeviceCredentials parse_key(const std::string& spec) {
  const auto comma = spec.find(',');
  if (comma == std::string::npos)
    throw std::runtime_error("--key must be 'device_id,hex_secret'");
  net::DeviceCredentials cred;
  cred.device_id = std::stoull(spec.substr(0, comma));
  const std::string hex = spec.substr(comma + 1);
  if (hex.size() % 2 != 0) throw std::runtime_error("odd-length hex key");
  for (std::size_t i = 0; i < hex.size(); i += 2)
    cred.key.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  return cred;
}

net::SecretKey parse_hex_key_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read --secagg-key-file " + path);
  std::string hex;
  in >> hex;
  if (hex.empty() || hex.size() % 2 != 0)
    throw std::runtime_error("--secagg-key-file must hold an even-length "
                             "hex key");
  net::SecretKey key;
  for (std::size_t i = 0; i < hex.size(); i += 2)
    key.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tools::Flags flags(argc, argv);
    const net::DeviceCredentials cred = parse_key(flags.get("key", ""));
    std::string host = flags.get("host", "127.0.0.1");
    auto port = static_cast<std::uint16_t>(flags.get_int("port", 9000));
    const std::string shard_map_csv = flags.get("shard-map", "");
    if (!shard_map_csv.empty()) {
      // Hash-route to the home shard so the first checkin lands where it
      // will be accepted; a stale map costs one "wrong shard" redirect
      // hop, never a lost checkin.
      const auto map = shard::ShardMap::parse(shard_map_csv);
      if (!map)
        throw std::runtime_error(
            "--shard-map must be a comma-separated host:port list");
      const std::string addr = map->addr(map->shard_of(cred.device_id));
      const auto hp = net::split_host_port(addr);
      if (!hp) throw std::runtime_error("--shard-map: bad address " + addr);
      host = hp->first;
      port = hp->second;
      std::printf("shard-map: device %llu homed to shard %zu (%s)\n",
                  static_cast<unsigned long long>(cred.device_id),
                  map->shard_of(cred.device_id), addr.c_str());
    }
    const std::string data_path = flags.get("data", "");
    if (data_path.empty()) throw std::runtime_error("--data is required");

    models::SampleSet samples = data::read_csv_file(data_path);
    if (samples.empty()) throw std::runtime_error("no samples in " + data_path);
    data::l1_normalize_features(samples);
    const std::size_t dim = samples.front().x.size();
    const auto classes = static_cast<std::size_t>(flags.get_int("classes", 10));

    // Model must match the server's dimensions.
    std::unique_ptr<models::Model> model;
    if (classes >= 2)
      model = std::make_unique<models::MulticlassLogisticRegression>(classes, dim,
                                                                     0.0);
    else
      model = std::make_unique<models::RidgeRegression>(dim, 0.0, 1.0);

    core::DeviceConfig dc;
    dc.minibatch_size = static_cast<std::size_t>(flags.get_int("minibatch", 10));
    const double eps = flags.get_double("epsilon", 10.0);
    if (eps > 0.0) dc.budget = privacy::PrivacyBudget::gradient_dominated(eps);

    const long long seed = flags.get_int("seed", 99);
    core::Device device(dc, *model, rng::Engine(seed));
    device.set_credentials(cred);

    core::ReconnectPolicy rp;
    rp.io_deadline_ms = static_cast<int>(flags.get_int("io-deadline-ms", 5000));
    rp.connect_timeout_ms =
        static_cast<int>(flags.get_int("connect-timeout-ms", 2000));
    rp.max_attempts = static_cast<int>(flags.get_int("max-attempts", 8));
    rp.backoff_max_ms = static_cast<int>(flags.get_int("backoff-max-ms", 2000));
    core::ReconnectingDeviceSession session(
        host, port, rp, rng::Engine(static_cast<std::uint64_t>(seed) ^ 0xD1CE),
        /*counters=*/nullptr, /*trace=*/nullptr, device.id());

    const tools::SecAggFlags secf = tools::parse_secagg_flags(flags);
    if (!secf.error.empty()) throw std::runtime_error(secf.error);
    if (secf.enabled && secf.key_file.empty())
      throw std::runtime_error(
          "--secagg-cohort requires --secagg-key-file (the fleet masking "
          "key; ask your fleet operator, never the server)");

    const auto passes = flags.get_int("passes", 1);
    long long cycles = 0;

    if (secf.enabled) {
      core::SecAggDeviceClient::Options sopts;
      sopts.fleet_key = parse_hex_key_file(secf.key_file);
      sopts.min_survivors = static_cast<std::size_t>(secf.min_survivors);
      sopts.device_class =
          static_cast<std::uint8_t>(flags.get_int("device-class", 0));
      sopts.sleep_ms = [](std::uint32_t ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      };
      sopts.on_fallback = [&session] { session.note_secagg_fallback(); };
      core::SecAggDeviceClient client(device, session.as_exchange(), sopts);
      for (long long p = 0; p < passes; ++p)
        for (const auto& s : samples)
          if (client.offer_sample(s)) ++cycles;
      std::printf("device %llu: streamed %zu samples x %lld passes, "
                  "%lld cohort checkins (%lld failed, %lld fallbacks, "
                  "%lld rounds recovered)\n",
                  static_cast<unsigned long long>(device.id()), samples.size(),
                  passes, cycles, client.cycles_failed(),
                  client.fallbacks_sent(), client.rounds_recovered());
      std::printf("per-sample epsilon: %.3f honest-server / %.3f if every "
                  "mask were stripped, over %lld checkins (%lld cohort, "
                  "%lld fallback)\n",
                  device.accountant().per_sample_epsilon(),
                  device.accountant().per_sample_epsilon_if_unmasked(),
                  device.accountant().checkins(),
                  device.accountant().cohort_checkins(),
                  device.accountant().fallback_checkins());
    } else {
      core::DeviceClient client(device, session.as_exchange());
      for (long long p = 0; p < passes; ++p)
        for (const auto& s : samples)
          if (client.offer_sample(s)) ++cycles;
      std::printf("device %llu: streamed %zu samples x %lld passes, "
                  "%lld checkins (%lld failed)\n",
                  static_cast<unsigned long long>(device.id()), samples.size(),
                  passes, cycles, client.cycles_failed());
      std::printf("per-sample epsilon: %.3f over %lld checkins\n",
                  device.accountant().per_sample_epsilon(),
                  device.accountant().checkins());
    }
    std::printf("transport: %lld reconnects, %lld retries, %lld timeouts, "
                "%lld checkins abandoned, %lld redirects followed, "
                "%lld pace hints honored, %lld secagg fallbacks\n",
                session.reconnects(), session.retries(), session.timeouts(),
                session.checkins_abandoned(), session.redirects_followed(),
                session.pace_hints_honored(), session.secagg_fallbacks());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crowdml-device: %s\n", e.what());
    return 1;
  }
}
