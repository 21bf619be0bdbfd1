// crowdbench — the repository benchmark's generator process.
//
//   crowdbench run --workload NAME --seed N --seconds S --trace 0|1
//                  --bin DIR --work DIR [--spans FILE]
//   crowdbench selftest --bin DIR --work DIR
//
// `run` starts real crowdml-server processes from DIR/crowdml-server,
// drives them open-loop, checks their outputs, and prints one
// "RESULT {json}" line last. crowdbench/run.py is the command users run;
// it builds this program and turns RESULT into the benchmark's report.
#include <signal.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "cluster.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "net/checksum.hpp"
#include "net/sha256.hpp"
#include "obs/metrics.hpp"
#include "selftest.hpp"
#include "store/durable_store.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace crowdbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string bin;
  std::string work;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: crowdbench run|selftest");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--bin") a.bin = v;
    else if (k == "--work") a.work = v;
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.bin.empty() || a.work.empty())
    throw std::invalid_argument("--bin and --work are required");
  return a;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  long long n = 0;  ///< samples behind the value
  double q = 0;     ///< percentile reported, when a timing
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           long long n, double q = 0) {
    metrics_.push_back({name, value, unit, n, q});
  }
  /// A measured figure outside the gated set: printed and stored with
  /// the result, but not part of the benchmark's metrics line.
  void note(const std::string& name, double value, const std::string& unit,
            long long n, double q = 0) {
    notes_.push_back({name, value, unit, n, q});
  }
  void fail(const std::string& why) { failures_.push_back(why); }
  void fail_all(const std::vector<std::string>& why) {
    failures_.insert(failures_.end(), why.begin(), why.end());
  }
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  static std::string dump(const std::vector<Metric>& ms) {
    std::string m = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i) m += ", ";
      Json j;
      j.num("value", ms[i].value).str("unit", ms[i].unit);
      j.integer("n", ms[i].n).num("q", ms[i].q);
      m += "\"" + json_escape(ms[i].name) + "\": " + j.dump();
    }
    return m + "}";
  }

  std::string json(long long attempted, long long failed) const {
    std::string f = "[";
    for (std::size_t i = 0; i < failures_.size(); ++i)
      f += (i ? ", \"" : "\"") + json_escape(failures_[i]) + "\"";
    f += "]";
    Json out;
    out.boolean("correct", correct())
        .integer("attempted", attempted)
        .integer("failed", failed)
        .raw("failures", f)
        .raw("metrics", dump(metrics_))
        .raw("notes", dump(notes_));
    return out.dump();
  }

 private:
  std::vector<Metric> metrics_, notes_;
  std::vector<std::string> failures_;
};

constexpr int kThreads = 4;  // generator connections (one thread each)
constexpr std::size_t kLedgerCheckins = 6000;  // replayed by the ledger

/// Threads that make frames: one per generator CPU.
int frame_threads() {
  const auto n = cpu_plan().generator.size();
  return n > 0 ? static_cast<int>(n) : kThreads;
}

/// Every device's checkin frames for a schedule, made in parallel (device
/// d always on the same thread, so each core::Device stays on one).
std::vector<std::vector<net::Bytes>> make_frames(Crowd& crowd, const Schedule& s,
                                                 const PrefixState& p) {
  std::vector<std::vector<net::Bytes>> frames(crowd.size());
  const int nt = frame_threads();
  std::vector<std::thread> threads;
  for (int t = 0; t < nt; ++t)
    threads.emplace_back([&, t, nt] {
      for (std::size_t d = static_cast<std::size_t>(t); d < crowd.size();
           d += static_cast<std::size_t>(nt))
        for (std::size_t c = 0; c < s.checkout_due[d].size(); ++c)
          frames[d].push_back(crowd.make_checkin(d, p.w, p.version));
    });
  for (auto& t : threads) t.join();
  return frames;
}

/// Device-side cost of one minibatch, timed in blocks of kDeviceBlock
/// checkins as thread CPU time (one clock pair per block, so the clock
/// itself costs nothing): gradient + sanitize + sign + encode, and
/// separately the sign + serialize + frame step alone.
struct DeviceCost {
  double checkin_us = 0;
  double sign_encode_us = 0;
};

constexpr std::size_t kDeviceBlock = 200;

DeviceCost device_block(Crowd& crowd, const PrefixState& p) {
  std::vector<net::Bytes> frames;
  frames.reserve(kDeviceBlock);
  const std::int64_t t0 = thread_cpu_ns();
  for (std::size_t i = 0; i < kDeviceBlock; ++i)
    frames.push_back(crowd.make_probe_checkin(p.w, p.version));
  const std::int64_t t1 = thread_cpu_ns();
  std::vector<net::CheckinMessage> msgs;
  for (const auto& f : frames)
    msgs.push_back(net::CheckinMessage::deserialize(net::decode_frame(f).payload));
  std::vector<net::Bytes> again;
  again.reserve(kDeviceBlock);
  const std::int64_t t2 = thread_cpu_ns();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    msgs[i].auth_tag = crowd.creds(0).sign(msgs[i].body());
    again.push_back(
        net::encode_frame(net::MessageType::kCheckin, msgs[i].serialize()));
  }
  const std::int64_t t3 = thread_cpu_ns();
  if (again != frames) throw std::logic_error("device re-sign changed a frame");
  const auto n = static_cast<double>(kDeviceBlock);
  return {static_cast<double>(t1 - t0) * 1e-3 / n,
          static_cast<double>(t3 - t2) * 1e-3 / n};
}

double cpu_of(const std::vector<pid_t>& pids) {
  double s = 0;
  for (pid_t p : pids) s += proc_cpu_seconds(p);
  return s;
}

struct Measured {
  PhaseResult res;
  double server_cpu_s = 0;    ///< every server process
  double follower_cpu_s = 0;  ///< the followers alone
};

Measured measure(Cluster& cluster, const Crowd& crowd, const Schedule& s,
                 const std::vector<std::vector<net::Bytes>>& frames,
                 const WorkloadSpec& spec, std::uint16_t port,
                 const std::function<void()>& idle) {
  Measured m;
  const auto pids = cluster.pids();
  const auto fpids = cluster.follower_pids();
  const double c0 = cpu_of(pids), f0 = cpu_of(fpids);
  m.res = run_phase(crowd, s, frames, port, spec.param_dim(), kThreads, 30.0,
                    idle);
  m.server_cpu_s = cpu_of(pids) - c0;
  m.follower_cpu_s = cpu_of(fpids) - f0;
  return m;
}

/// Nominal-rate timings per window of the schedule, reported as the
/// median over windows: one slow stretch (another tenant's burst, a
/// kernel flush) moves one window, not the run's figure.
struct Windowed {
  std::size_t windows = 0;
  long long checkins = 0, checkouts = 0;
  double ci_p50 = 0, ci_p99 = 0, co_p50 = 0, co_p99 = 0;
};

Windowed windowed(const PhaseResult& res, double window_s) {
  const auto w = static_cast<std::int64_t>(window_s * 1e9);
  const auto n = static_cast<std::size_t>(res.end_ns / w);
  if (n == 0) throw std::runtime_error("nominal phase shorter than a window");
  std::vector<std::vector<double>> ci(n), co(n);
  for (const auto& r : res.records) {
    const auto k = static_cast<std::size_t>(r.due / w);
    if (k >= n) continue;
    const double ms = r.outcome == Outcome::kOk
                          ? static_cast<double>(r.reply - r.due) * 1e-6
                          : 1e9;  // anything not ok misses every limit
    (r.kind == Kind::kCheckin ? ci : co)[k].push_back(ms);
  }
  std::vector<double> ci50, ci99, co50, co99;
  Windowed out;
  out.windows = n;
  for (std::size_t k = 0; k < n; ++k) {
    out.checkins += static_cast<long long>(ci[k].size());
    out.checkouts += static_cast<long long>(co[k].size());
    const Tail a = summarize(ci[k]), b = summarize(co[k]);
    if (!a.at(0.99) || !b.at(0.99))
      throw std::runtime_error("a nominal window has too few samples for a "
                               "p99 with ten beyond it");
    ci50.push_back(a.p50);
    ci99.push_back(*a.at(0.99));
    co50.push_back(b.p50);
    co99.push_back(*b.at(0.99));
  }
  out.ci_p50 = median(ci50);
  out.ci_p99 = median(ci99);
  out.co_p50 = median(co50);
  out.co_p99 = median(co99);
  return out;
}

void print_phase(const char* label, const PhaseResult& r, const Tail& co,
                 const Tail& ci) {
  std::printf(
      "  %-10s rate %7.0f/s  sent %6lld ok %6lld shed %4lld nack %4lld "
      "failed %4lld | checkout p50 %.3f ms | checkin p50 %.3f p%g %.3f ms "
      "(n=%zu)\n",
      label, r.attempted / 2.0 / (r.end_ns * 1e-9), r.attempted, r.ok, r.shed,
      r.nack, r.failed, co.p50, ci.p50, ci.tail_q * 100, ci.tail, ci.n);
  std::fflush(stdout);
}

std::uint64_t auth_seed_for(std::uint64_t seed) { return 1000003 * seed + 7; }

/// Generator-side totals across every phase of a run.
struct Totals {
  long long checkouts_ok = 0, checkins_ok = 0, shed = 0, nack = 0;
  void add(const PhaseResult& r) {
    for (const auto& rec : r.records) {
      if (rec.outcome != Outcome::kOk) continue;
      (rec.kind == Kind::kCheckout ? checkouts_ok : checkins_ok)++;
    }
    shed += r.shed;
    nack += r.nack;
  }
};

/// Exposition cross-checks: every request accounted for on both sides.
void check_exposition(Report& rep, const WorkloadSpec& spec, Cluster& cluster,
                      const Totals& t,
                      std::vector<std::map<std::string, double>>& expo) {
  for (std::size_t i = 0; i < cluster.nodes().size(); ++i) {
    expo.push_back(read_exposition(cluster.metrics_path(i)));
    auto& e = expo.back();
    const std::string node = i == 0 ? "leader" : "follower " + std::to_string(i);
    if (e.empty()) {
      rep.fail(node + ": no exposition at " + cluster.metrics_path(i));
      continue;
    }
    if (e["crowdml_engine_protocol_errors_total"] != 0)
      rep.fail(node + ": protocol errors in the exposition");
    const long long served =
        i == 0 ? t.checkouts_ok + cluster.nodes()[i].probes_served
               : cluster.nodes()[i].probes_served;
    if (static_cast<long long>(e["crowdml_engine_checkouts_served_total"]) !=
        served)
      rep.fail(node + ": checkouts served " +
               std::to_string(static_cast<long long>(
                   e["crowdml_engine_checkouts_served_total"])) +
               " != checkouts answered " + std::to_string(served));
  }
  auto& l = expo.front();
  const long long applied = t.checkins_ok + t.nack;
  if (static_cast<long long>(l["crowdml_engine_checkins_enqueued_total"]) !=
          applied ||
      static_cast<long long>(l["crowdml_server_handle_seconds_count"]) !=
          applied)
    rep.fail("leader: checkins enqueued/handled != acks + nacks seen");
  if (static_cast<long long>(l["crowdml_engine_checkins_shed_total"]) != t.shed)
    rep.fail("leader: sheds in the exposition != sheds seen");
  if (static_cast<long long>(l["crowdml_wal_records_total"]) != t.checkins_ok)
    rep.fail("leader: WAL records != ok acks (acked => durable)");
  if (t.nack != 0)
    rep.fail(std::to_string(t.nack) +
             " nacks (auth failures or rejected checkins) were answered");
  if (spec.followers > 0 && l["crowdml_repl_quorum_timeouts_total"] != 0)
    rep.fail("leader: quorum timeouts");
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

int run_workload(const Args& a) {
  const WorkloadSpec spec = workload_by_name(a.workload);
  const std::string work =
      a.work + "/" + spec.name + "-s" + std::to_string(a.seed);
  fs::remove_all(work);
  fs::create_directories(work);
  const std::uint64_t auth_seed = auth_seed_for(a.seed);
  Report rep;

  Crowd crowd(spec, a.seed, enroll(spec.devices, auth_seed));
  const PrefixState prefix = make_prefix(spec, crowd, work + "/prefix");

  // Set-up time: spawn to first served checkout on every node, WAL
  // recovery (and follower catch-up) included; median of several starts.
  const std::string server_bin = a.bin + "/crowdml-server";
  const int starts = a.trace ? 1 : 5;
  std::vector<double> setup;
  std::unique_ptr<Cluster> cluster;
  for (int k = 0; k < starts; ++k) {
    cluster = std::make_unique<Cluster>(spec, server_bin, work + "/cluster",
                                        auth_seed);
    setup.push_back(cluster->start(prefix, crowd.checkout_frame(0)));
    if (k + 1 < starts && !cluster->stop())
      rep.fail("a server exited non-zero after a set-up start");
  }
  for (std::size_t i = 0; i < cluster->nodes().size(); ++i) {
    std::ifstream keys(cluster->keys_path(i));
    std::string line;
    for (std::size_t d = 0; d < crowd.size(); ++d) {
      const std::string want = std::to_string(crowd.creds(d).device_id) + "," +
                               hex(crowd.creds(d).key);
      if (!std::getline(keys, line) || line != want) {
        rep.fail("server identities differ from the generator's");
        break;
      }
    }
  }
  std::printf("%s seed %llu: %zu devices, prefix %llu records, set-up %.3f s "
              "(median of %d)\n",
              spec.name.c_str(), static_cast<unsigned long long>(a.seed),
              crowd.size(), static_cast<unsigned long long>(prefix.version),
              median(setup), starts);

  Totals totals;
  // Device cost: one block every 100 ms of every phase, on the generator's
  // CPUs. On a shared host the same code runs at speeds that change over
  // seconds; interference only adds time, so the least block is the cost.
  std::vector<DeviceCost> device;
  const auto device_block_now = [&] {
    device.push_back(device_block(crowd, prefix));
  };
  const std::uint16_t port = cluster->leader_port();
  const std::uint64_t base = a.seed * 100;

  // Nominal rate: half the run, in windows. The traced run adds a second,
  // shorter nominal phase whose spans are written out; its difference from
  // the first is the tracing overhead, and its checkins feed the ledger.
  const double nominal_s =
      spec.window_s * std::max(4.0, std::floor(0.5 * a.seconds / spec.window_s));
  std::vector<Measured> nominal;
  std::vector<net::Bytes> ledger_checkins;
  for (int ph = 0; ph < (a.trace ? 2 : 1); ++ph) {
    const Schedule s = make_schedule(
        crowd.size(), spec.nominal_rate, ph == 0 ? nominal_s : 4 * spec.window_s,
        base + 1 + static_cast<std::uint64_t>(ph));
    const auto frames = make_frames(crowd, s, prefix);
    nominal.push_back(
        measure(*cluster, crowd, s, frames, spec, port, device_block_now));
    totals.add(nominal.back().res);
    const Tail co = latencies(nominal.back().res, Kind::kCheckout);
    const Tail ci = latencies(nominal.back().res, Kind::kCheckin);
    print_phase(ph == 0 ? "nominal" : "traced", nominal.back().res, co, ci);
    if (ph == 1)
      for (const auto& rec : nominal.back().res.records)
        if (rec.kind == Kind::kCheckin && rec.outcome == Outcome::kOk &&
            ledger_checkins.size() < kLedgerCheckins)
          ledger_checkins.push_back(frames[rec.device][rec.cycle]);
  }
  // Peak memory through set-up and the nominal rate: the capacity
  // search's overload steps would make it depend on the search path.
  double rss = 0;
  for (pid_t p : cluster->pids()) rss += proc_peak_rss_mb(p);
  const Measured& nom = nominal.front();
  const Windowed win = windowed(nom.res, spec.window_s);
  // Whole-phase CPU: per window, the 10 ms accounting tick would be a
  // few percent of the figure.
  const double cpu_us = nom.server_cpu_s * 1e6 /
                        static_cast<double>(std::max<long long>(1, nom.res.checkins_ok));
  std::printf("  nominal over %zu windows of %.2f s (medians): checkin p50 "
              "%.3f p99 %.3f ms, checkout p50 %.3f p99 %.3f ms, server CPU "
              "%.1f us/checkin\n",
              win.windows, spec.window_s, win.ci_p50, win.ci_p99, win.co_p50,
              win.co_p99, cpu_us);
  if (nom.res.transport_error) rep.fail("transport error at the nominal rate");
  const Tail own_lag = lag(nom.res, true);
  if (own_lag.at(0.99).value_or(0) > 10.0)
    throw std::runtime_error(
        "invalid run: the generator fell behind its schedule (own lag p99 " +
        std::to_string(own_lag.at(0.99).value_or(0)) + " ms)");

  // Capacity search (untraced runs; the traced run reads the exposition
  // after its nominal phases alone): the highest offered rate whose
  // checkin p99 meets the workload's limit with fewer than 1% failures
  // and every reply in by the limit after the schedule ends (no growing
  // backlog). Geometric bisection down to kResolution.
  constexpr double kResolution = 0.03;
  double capacity = 0;
  int steps = 0;
  if (!a.trace) {
    const double step_s = a.seconds / 20;
    double lo = 0, hi = 0, rate = spec.search_start;
    for (; steps < 10; ++steps) {
      // Windows of >= 1100 checkins, at least four per step; the step
      // meets the limit when the median window p99 does, as at the
      // nominal rate.
      const double window = std::max(0.25, 1100.0 / rate);
      const double secs = window * std::max(4.0, std::floor(step_s / window));
      const Schedule s = make_schedule(crowd.size(), rate, secs,
                                       base + 10 + static_cast<std::uint64_t>(steps));
      const auto frames = make_frames(crowd, s, prefix);
      const Measured m =
          measure(*cluster, crowd, s, frames, spec, port, device_block_now);
      totals.add(m.res);
      const double p99 = windowed(m.res, window).ci_p99;
      const double fails = ratio(m.res.attempted - m.res.ok, m.res.attempted);
      const bool drained =
          m.res.last_reply_ns <=
          m.res.end_ns + static_cast<std::int64_t>(
                             (s.gap_ms + spec.latency_limit_ms) * 1e6);
      const bool pass = p99 <= spec.latency_limit_ms && fails < 0.01 && drained;
      const Tail own = lag(m.res, true);
      std::printf("  search %2d rate %7.0f/s  checkin p99 %9.3f ms  fail %.4f  "
                  "drained %d  gen lag p99 %.3f ms cpu %.2f -> %s\n",
                  steps, rate, p99, fails, drained ? 1 : 0,
                  own.at(0.99).value_or(own.tail),
                  ratio(m.res.gen_cpu_s, m.res.wall_s * frame_threads()),
                  pass ? "meets" : "misses");
      if (pass) lo = rate; else hi = rate;
      if (lo > 0 && hi > 0) {
        if (hi / lo <= 1.0 + kResolution) { ++steps; break; }
        rate = std::sqrt(lo * hi);
      } else {
        rate = pass ? rate * 1.5 : rate / 1.5;
      }
    }
    capacity = lo;
    if (capacity <= 0) rep.fail("no offered rate met the latency limit");
    if (hi <= 0) rep.fail("capacity search never found a rate it missed");
  }

  DeviceCost least = device.front();
  for (const auto& d : device) {
    least.checkin_us = std::min(least.checkin_us, d.checkin_us);
    least.sign_encode_us = std::min(least.sign_encode_us, d.sign_encode_us);
  }

  // Drain, then the final state: leader (w, t) and, on a quorum, the
  // followers serving byte-identical parameters.
  const net::Bytes live = cluster->probe(0, crowd.checkout_frame(0), 5000);
  const std::uint64_t expected_t =
      prefix.version + static_cast<std::uint64_t>(totals.checkins_ok);
  if (live.empty()) {
    rep.fail("final leader checkout failed");
  } else if (net::ParamsMessage::deserialize(live).version != expected_t) {
    rep.fail("leader t != prefix + ok acks");
  }
  std::vector<net::Bytes> follower_params;
  for (std::size_t i = 1; i < cluster->nodes().size(); ++i) {
    net::Bytes p;
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    while (now_ns() < deadline) {
      p = cluster->probe(i, crowd.checkout_frame(0), 1000);
      if (!p.empty() && net::ParamsMessage::deserialize(p).version >= expected_t)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    follower_params.push_back(p);
  }
  rep.fail_all(check_identical(live, follower_params));
  if (!cluster->stop()) rep.fail("a server did not stop cleanly");

  std::vector<std::map<std::string, double>> expo;
  check_exposition(rep, spec, *cluster, totals, expo);
  std::vector<std::string> dirs;
  for (std::size_t i = 0; i < cluster->nodes().size(); ++i)
    dirs.push_back(cluster->wal_dir(i));
  rep.fail_all(check_recovery(spec, dirs, live, expected_t));

  long long cycles_ok = 0;
  {
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> ok;
    for (const auto& rec : nom.res.records)
      if (rec.outcome == Outcome::kOk) ++ok[{rec.device, rec.cycle}];
    for (const auto& [k, v] : ok) cycles_ok += v == 2;
  }
  const bool all_ok = nom.res.ok == nom.res.attempted;
  const double wire = ratio(static_cast<double>(nom.res.bytes_out + nom.res.bytes_in),
                            static_cast<double>(cycles_ok));
  if (!all_ok) rep.fail("requests failed at the nominal rate");

  // End-to-end timings of the open loop. Wall-clock latency and capacity
  // on a shared host move with its neighbours' load far beyond any bound
  // a regression gate can carry (README.md): every untraced run reports
  // them beside its gated metrics, and the traced run reports the
  // latencies among its per-layer figures.
  const auto e2e_timings = [&](bool traced) {
    const auto add = [&](const std::string& name, double v, const char* unit,
                         long long n, double q) {
      if (traced) rep.add(name, v, unit, n, q); else rep.note(name, v, unit, n, q);
    };
    add("checkin_p50_ms", win.ci_p50, "ms", win.checkins, 0.5);
    add("checkin_p99_ms", win.ci_p99, "ms", win.checkins, 0.99);
    add("checkout_p50_ms", win.co_p50, "ms", win.checkouts, 0.5);
    add("checkout_p99_ms", win.co_p99, "ms", win.checkouts, 0.99);
    if (!traced) add("slo_capacity_per_s", capacity, "1/s", steps, 0);
  };
  if (!a.trace) {
    rep.add("setup_s", median(setup), "s", static_cast<long long>(setup.size()), 0.5);
    rep.add("ok_ratio", ratio(nom.res.ok, nom.res.attempted), "ratio",
            nom.res.attempted);
    rep.add("server_cpu_us_per_checkin", cpu_us, "us",
            nom.res.checkins_ok);
    rep.add("server_rss_mb", rss, "MB",
            static_cast<long long>(cluster->nodes().size()));
    rep.add("device_us_per_checkin", least.checkin_us, "us",
            static_cast<long long>(device.size() * kDeviceBlock));
    rep.add("wire_bytes_per_cycle", wire, "B", cycles_ok);
    rep.note("fail_ratio", 1.0 - ratio(nom.res.ok, nom.res.attempted), "ratio",
             nom.res.attempted);
    e2e_timings(false);
    std::printf("RESULT %s\n", rep.json(nom.res.attempted, nom.res.failed).c_str());
    return 0;
  }

  // ---- traced run: per-layer metrics --------------------------------
  auto& l = expo.front();
  const double records = std::max(1.0, l["crowdml_wal_records_total"]);
  const double batch_mean = ratio(l["crowdml_engine_batch_size_sum"],
                                  l["crowdml_engine_batch_size_count"]);
  LedgerInput in;
  in.spec = &spec;
  in.prefix = &prefix;
  in.checkins = &ledger_checkins;
  in.auth_seed = auth_seed;
  in.batch = static_cast<std::size_t>(std::max(1.0, std::round(batch_mean)));
  in.scratch_dir = work + "/ledger-wal";
  const LedgerResult led = run_ledger(in);
  if (!led.closure_ok)
    rep.fail("ledger closure: stages sum to " +
             std::to_string(led.closure_ratio) +
             " x ProtocolServer::handle (tolerance " +
             std::to_string(kClosureTolerance) + ")");
  if (!led.state_ok) rep.fail("ledger replay ended in a different (w, t)");
  auto L = [&](const char* k) { return led.ns.at(k); };

  // Layer rates over the workload's own bytes.
  double crc_ns = 0, hmac_ns = 0, frame_kib = 0, body_kib = 0;
  {
    std::vector<std::pair<std::size_t, net::Bytes>> bodies;
    for (const auto& f : ledger_checkins) {
      const auto m = net::CheckinMessage::deserialize(net::decode_frame(f).payload);
      bodies.emplace_back(static_cast<std::size_t>(m.device_id - 1), m.body());
    }
    std::uint32_t sink = 0;
    std::int64_t t0 = now_ns();
    for (const auto& f : ledger_checkins) {
      sink ^= net::crc32(f.data(), f.size());
      frame_kib += static_cast<double>(f.size()) / 1024.0;
    }
    crc_ns = static_cast<double>(now_ns() - t0);
    t0 = now_ns();
    for (const auto& [d, body] : bodies) {
      sink ^= net::hmac_sha256(crowd.creds(d).key, body)[0];
      body_kib += static_cast<double>(body.size()) / 1024.0;
    }
    hmac_ns = static_cast<double>(now_ns() - t0);
    if (sink == 0x5A5A5A5A) std::printf(" ");
  }
  // Recovery of the seeded prefix, in-process: what setup_s pays per
  // record before the listener opens.
  double replay_us = 0;
  {
    const std::string copy = work + "/replay";
    fs::copy(prefix.dir, copy, fs::copy_options::recursive);
    auto server = make_server(spec);
    crowdml::obs::MetricsRegistry registry;
    crowdml::store::DurableStoreOptions opts;
    opts.wal.metrics = &registry;
    crowdml::store::DurableStore durable(copy, opts);
    const std::int64_t t0 = now_ns();
    durable.recover(*server);
    replay_us = static_cast<double>(now_ns() - t0) * 1e-3 /
                static_cast<double>(std::max<std::uint64_t>(1, prefix.version));
    if (server->version() != prefix.version)
      rep.fail("in-process recovery of the prefix gives a different t");
  }
  double grad_us = 0, san_us = 0;
  long long grad_n = 0;
  for (const auto& h : crowdml::obs::default_registry().snapshot().histograms) {
    if (h.name == "crowdml_device_gradient_seconds") {
      grad_us = h.data.mean() * 1e6;
      grad_n = h.data.count;
    }
    if (h.name == "crowdml_device_sanitize_seconds") san_us = h.data.mean() * 1e6;
  }
  double fexp_apply = 0, fexp_applied = 0;
  for (std::size_t i = 1; i < expo.size(); ++i) {
    fexp_apply += expo[i]["crowdml_repl_apply_seconds_sum"];
    fexp_applied += expo[i]["crowdml_repl_records_applied_total"];
  }
  const auto traced_checkins = static_cast<long long>(ledger_checkins.size());
  const double server_cpu = cpu_us;
  const double batch = static_cast<double>(in.batch);
  const double net_ns = L("decode") + L("parse") + L("verify") +
                        L("ack_encode") + L("params_encode_per_batch") / batch;
  const double cpu_ns = net_ns + L("apply") + L("wal_encode") +
                        L("wal_append_per_record") + L("checkin_self") +
                        (spec.followers > 0 ? L("seal_per_batch") / batch : 0);
  const Tail lag_all = lag(nom.res, false);
  const Tail ci_traced = latencies(nominal.back().res, Kind::kCheckin);

  rep.add("net.frame_decode_ns", L("decode"), "ns", traced_checkins);
  rep.add("net.checkin_parse_ns", L("parse"), "ns", traced_checkins);
  rep.add("net.auth_verify_ns", L("verify"), "ns", traced_checkins);
  rep.add("net.ack_encode_ns", L("ack_encode"), "ns", traced_checkins);
  rep.add("net.params_encode_ns", L("params_encode_per_batch"), "ns", traced_checkins);
  rep.add("net.crc32_ns_per_kib", ratio(crc_ns, frame_kib), "ns/KiB", traced_checkins);
  rep.add("net.hmac_ns_per_kib", ratio(hmac_ns, body_kib), "ns/KiB", traced_checkins);
  rep.add("net.sign_encode_us", least.sign_encode_us, "us", static_cast<long long>(device.size() * kDeviceBlock));
  rep.add("core.apply_ns", L("apply"), "ns", traced_checkins);
  rep.add("core.protocol_handle_ns", L("protocol_handle"), "ns", traced_checkins);
  rep.add("store.wal_encode_ns", L("wal_encode"), "ns", traced_checkins);
  rep.add("store.wal_append_ns_per_record", L("wal_append_per_record"), "ns", traced_checkins);
  rep.add("store.fsync_us", L("fsync_per_batch") * 1e-3, "us", traced_checkins);
  rep.add("store.replay_us_per_record", replay_us, "us", static_cast<long long>(prefix.version));
  rep.add("store.fsyncs_per_checkin", ratio(l["crowdml_wal_fsync_seconds_count"], records), "count", static_cast<long long>(records));
  rep.add("store.fsync_busy_us_per_checkin", ratio(l["crowdml_wal_fsync_seconds_sum"] * 1e6, records), "us", static_cast<long long>(records));
  rep.add("engine.batch_mean", batch_mean, "count", static_cast<long long>(l["crowdml_engine_batch_size_count"]));
  rep.add("engine.shed_ratio", ratio(l["crowdml_engine_checkins_shed_total"], l["crowdml_engine_checkins_shed_total"] + l["crowdml_engine_checkins_enqueued_total"]), "ratio", static_cast<long long>(records));
  rep.add("engine.publishes_per_checkin", ratio(l["crowdml_engine_snapshot_publishes_total"], records), "count", static_cast<long long>(records));
  rep.add("engine.apply_busy_us_per_checkin", ratio(l["crowdml_server_handle_seconds_sum"] * 1e6, l["crowdml_server_handle_seconds_count"]), "us", static_cast<long long>(records));
  rep.add("replica.seal_ns_per_batch", L("seal_per_batch"), "ns", traced_checkins);
  rep.add("replica.ship_busy_us_per_record", ratio(l["crowdml_repl_ship_seconds_sum"] * 1e6, l["crowdml_repl_records_shipped_total"]), "us", static_cast<long long>(l["crowdml_repl_records_shipped_total"]));
  rep.add("replica.follower_apply_busy_us_per_record", ratio(fexp_apply * 1e6, fexp_applied), "us", static_cast<long long>(fexp_applied));
  rep.add("replica.quorum_timeouts", l["crowdml_repl_quorum_timeouts_total"], "count", 1);
  rep.add("replica.follower_cpu_us_per_checkin", nom.follower_cpu_s * 1e6 / std::max<long long>(1, nom.res.checkins_ok), "us", nom.res.checkins_ok);
  rep.add("models.gradient_us", grad_us, "us", grad_n);
  rep.add("privacy.sanitize_us", san_us, "us", grad_n);
  rep.add("gen.lag_p99_ms", lag_all.at(0.99).value_or(lag_all.tail), "ms", static_cast<long long>(lag_all.n), 0.99);
  rep.add("gen.own_lag_p99_ms", own_lag.at(0.99).value_or(own_lag.tail), "ms", static_cast<long long>(own_lag.n), 0.99);
  rep.add("gen.cpu_share", ratio(nom.res.gen_cpu_s, nom.res.wall_s * frame_threads()), "ratio", 1);
  rep.add("ledger.net_ns", net_ns, "ns", traced_checkins);
  rep.add("ledger.cpu_ns", cpu_ns, "ns", traced_checkins);
  rep.add("ledger.server_cpu_us_per_checkin", server_cpu, "us", nom.res.checkins_ok);
  rep.add("ledger.net_share_of_server_cpu", ratio(net_ns * 1e-3, server_cpu), "ratio", traced_checkins);
  rep.add("ledger.closure_ratio", led.closure_ratio, "ratio", traced_checkins);
  e2e_timings(true);
  rep.add("trace.overhead_checkin_p50_ms", ci_traced.p50 - latencies(nom.res, Kind::kCheckin).p50, "ms", static_cast<long long>(ci_traced.n), 0.5);
  std::printf("ledger: net.* self time is %.1f us of %.1f us server CPU per "
              "checkin (%.0f%%): %s\n",
              net_ns * 1e-3, server_cpu, 100 * ratio(net_ns * 1e-3, server_cpu),
              net_ns * 1e-3 > 0.5 * server_cpu ? "net is MOST of it"
                                                 : "net is NOT most of it");

  if (!a.spans.empty()) {
    std::ofstream out(a.spans);
    for (const auto& rec : nominal.back().res.records)
      out << "{\"span\": \"gen." << (rec.kind == Kind::kCheckout ? "checkout" : "checkin")
          << "\", \"device\": " << crowd.creds(rec.device).device_id
          << ", \"cycle\": " << rec.cycle << ", \"due_ns\": " << rec.due
          << ", \"send_ns\": " << rec.send << ", \"reply_ns\": " << rec.reply
          << ", \"ok\": " << (rec.outcome == Outcome::kOk ? "true" : "false") << "}\n";
    for (const auto& s : led.spans)
      out << "{\"span\": \"" << s.name << "\", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start
          << ", \"end_ns\": " << s.end << "}\n";
  }
  std::printf("RESULT %s\n", rep.json(nom.res.attempted, nom.res.failed).c_str());
  return 0;
}

}  // namespace
}  // namespace crowdbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  try {
    const crowdbench::Args a = crowdbench::parse_args(argc, argv);
    crowdbench::pin_self(crowdbench::cpu_plan().generator);
    if (a.mode == "run") return crowdbench::run_workload(a);
    if (a.mode == "selftest") return crowdbench::run_selftest(a.bin, a.work);
    std::fprintf(stderr, "crowdbench: unknown mode %s\n", a.mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crowdbench: error: %s\n", e.what());
    return 1;
  }
}
