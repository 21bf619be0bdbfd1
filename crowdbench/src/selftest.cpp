// The benchmark's own tests: it must see a delay it is shown, see a stall
// in both due-time latency and generator lag, report percentiles only
// with ten samples beyond them, and its correctness checks must fail on a
// tampered WAL and on a diverged follower.
#include "selftest.hpp"

#include <signal.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "cluster.hpp"
#include "loadgen.hpp"
#include "net/fault_proxy.hpp"
#include "util.hpp"

namespace crowdbench {

namespace {

namespace fs = std::filesystem;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

struct Latency {
  double co_p50 = 0, ci_p50 = 0, ci_p99 = 0, lag_p99 = 0;
};

Latency phase(Crowd& crowd, const PrefixState& prefix, std::uint16_t port,
              double rate, double seconds, double gap_ms, std::uint64_t seed,
              std::size_t param_dim) {
  Schedule s = make_schedule(crowd.size(), rate, seconds, seed);
  s.gap_ms = gap_ms;
  std::vector<std::vector<net::Bytes>> frames(crowd.size());
  for (std::size_t d = 0; d < crowd.size(); ++d)
    for (std::size_t c = 0; c < s.checkout_due[d].size(); ++c)
      frames[d].push_back(
          crowd.make_checkin(d, prefix.w, prefix.version));
  const PhaseResult r = run_phase(crowd, s, frames, port, param_dim, 4, 10.0);
  Latency l;
  l.co_p50 = latencies(r, Kind::kCheckout).p50;
  const Tail t = latencies(r, Kind::kCheckin);
  l.ci_p50 = t.p50;
  l.ci_p99 = t.at(0.99).value_or(t.tail);
  const Tail lt = lag(r, false);
  l.lag_p99 = lt.at(0.99).value_or(lt.tail);
  return l;
}

void percentile_rule() {
  std::printf("percentile reporting\n");
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  expect(summarize(v).tail_q == 0.99 && summarize(v).at(0.99).has_value(),
         "1000 samples report p99 (ten beyond it)");
  v.pop_back();
  expect(summarize(v).tail_q == 0.9 && !summarize(v).at(0.99).has_value(),
         "999 samples refuse p99 and fall back to p90");
  std::vector<double> w(10000, 1.0);
  expect(summarize(w).tail_q == 0.999, "10000 samples report p99.9");
  expect(summarize(std::vector<double>(19, 1.0)).tail_q == 0.0,
         "19 samples report no tail at all");
}

void tamper_middle(const std::string& dir) {
  std::string victim;
  std::uintmax_t size = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().rfind("wal-", 0) == 0 &&
        e.file_size() > size) {
      victim = e.path().string();
      size = e.file_size();
    }
  std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(size / 2));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.write(&c, 1);
}

}  // namespace

int run_selftest(const std::string& bin, const std::string& work) {
  percentile_rule();

  WorkloadSpec spec = workload_by_name("tiny-leader");
  spec.devices = 200;
  spec.prefix = 100;
  const std::string dir = work + "/selftest";
  fs::remove_all(dir);
  const std::uint64_t auth_seed = 99;
  Crowd crowd(spec, 7, enroll(spec.devices, auth_seed));
  const PrefixState prefix = make_prefix(spec, crowd, dir + "/prefix");
  Cluster cluster(spec, bin + "/crowdml-server", dir + "/cluster", auth_seed);
  cluster.start(prefix, crowd.checkout_frame(0));
  const std::uint16_t port = cluster.leader_port();

  std::printf("due-time latency through a delaying proxy\n");
  // The checkin is due 60 ms after its checkout, past the checkout's
  // delayed reply, so each p50 carries one request's delay only.
  constexpr int kDelayMs = 20;
  const Latency base =
      phase(crowd, prefix, port, 100, 4, 60, 1, spec.param_dim());
  net::FaultPolicy policy;
  policy.delay_prob = 1.0;
  policy.max_delay_ms = kDelayMs;
  double co_rise = 0, ci_rise = 0;
  {
    net::FaultProxy proxy("127.0.0.1", port, policy, crowdml::rng::Engine(5));
    const Latency slow =
        phase(crowd, prefix, proxy.port(), 100, 4, 60, 2, spec.param_dim());
    proxy.shutdown();
    co_rise = slow.co_p50 - base.co_p50;
    ci_rise = slow.ci_p50 - base.ci_p50;
  }
  // Each direction waits U(0, 20) ms, so a round trip's median rise is
  // about 20 ms; allow for relay queueing.
  const auto about = [](double rise) {
    return rise > 0.5 * kDelayMs && rise < 1.75 * kDelayMs;
  };
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "checkout p50 rose %.1f ms, checkin p50 rose %.1f ms for a "
                "%d ms round-trip delay",
                co_rise, ci_rise, kDelayMs);
  expect(about(co_rise) && about(ci_rise), buf);

  std::printf("a stalled server\n");
  const Latency calm = phase(crowd, prefix, port, 400, 3, 2, 3, spec.param_dim());
  const pid_t leader = cluster.pids().front();
  std::thread staller([leader] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    kill(leader, SIGSTOP);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    kill(leader, SIGCONT);
  });
  const Latency stalled =
      phase(crowd, prefix, port, 400, 3, 2, 4, spec.param_dim());
  staller.join();
  std::snprintf(buf, sizeof(buf),
                "400 ms stall: checkin p99 %.1f ms (calm %.1f), generator lag "
                "p99 %.1f ms (calm %.1f)",
                stalled.ci_p99, calm.ci_p99, stalled.lag_p99, calm.lag_p99);
  expect(stalled.ci_p99 > 300 && calm.ci_p99 < 100 && stalled.lag_p99 > 200 &&
             calm.lag_p99 < 50,
         buf);

  std::printf("correctness checks\n");
  const net::Bytes live = cluster.probe(0, crowd.checkout_frame(0), 2000);
  const std::uint64_t t = net::ParamsMessage::deserialize(live).version;
  expect(cluster.stop(), "servers stop cleanly");
  expect(check_recovery(spec, {cluster.wal_dir(0)}, live, t).empty(),
         "the live WAL recovers to the leader's final (w, t)");
  expect(!check_recovery(spec, {cluster.wal_dir(0)}, live, t + 1).empty(),
         "an ack the WAL does not hold is caught");

  const std::string good = dir + "/good", bad = dir + "/tampered";
  fs::copy(prefix.dir, good, fs::copy_options::recursive);
  fs::copy(prefix.dir, bad, fs::copy_options::recursive);
  tamper_middle(bad);
  auto at_prefix = server_at_prefix(spec, prefix);
  const net::Bytes prefix_state = params_payload(*at_prefix);
  expect(check_recovery(spec, {good}, prefix_state, prefix.version).empty(),
         "an untouched WAL passes");
  expect(!check_recovery(spec, {bad}, prefix_state, prefix.version).empty(),
         "a WAL with one flipped byte fails");

  const net::Bytes extra = crowd.make_checkin(1, prefix.w, prefix.version);
  at_prefix->handle_checkin(
      net::CheckinMessage::deserialize(net::decode_frame(extra).payload));
  const auto diverged =
      check_identical(prefix_state, {prefix_state, params_payload(*at_prefix)});
  expect(diverged.size() == 1, "a follower one update ahead is caught");

  std::printf("%s\n", g_failures == 0 ? "selftest passed"
                                      : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace crowdbench
