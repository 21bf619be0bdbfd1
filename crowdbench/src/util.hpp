// Shared helpers for the crowdbench generator: clocks, percentile
// reporting, JSON output, and child-process control through /proc.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace crowdbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by the calling thread, in nanoseconds.
std::int64_t thread_cpu_ns();

/// A timing distribution reported as its median and the highest
/// percentile that still has at least ten samples beyond it.
struct Tail {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< e.g. 0.99; 0 when n < 20 (no tail reportable)
  double tail = 0.0;
  /// Value at quantile `q` when at least ten samples lie beyond it.
  std::optional<double> at(double q) const;
  std::vector<double> sorted;
};

/// Nearest-rank quantile of an ascending vector (q in [0, 1]).
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank `q` quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Summarize: the tail is the highest of {0.999, 0.99, 0.9, 0.5} with at
/// least ten samples beyond it.
Tail summarize(std::vector<double> values);

double median(std::vector<double> values);

/// Minimal JSON object builder (numbers, strings, nested raw JSON).
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, long long v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& raw(const std::string& key, const std::string& json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_escape(const std::string& s);

/// A spawned child process (stdout+stderr to `log`). The child gets
/// SIGKILL if this process dies, so a crashed benchmark never leaves a
/// server behind.
struct Child {
  pid_t pid = -1;
  std::string log;
};

/// `cpus`, when not empty, pins the child (and so the program it execs).
Child spawn(const std::vector<std::string>& argv, const std::string& log,
            const std::vector<int>& cpus = {});

/// CPU split between the servers under test and the generator: with four
/// or more CPUs the servers get the first half and this process the
/// rest, so the generator never competes with a server thread for a
/// core. Empty lists (no pinning) on smaller hosts.
struct CpuPlan {
  std::vector<int> server, generator;
};
const CpuPlan& cpu_plan();

/// Pin the calling process (all its future threads) to `cpus`.
void pin_self(const std::vector<int>& cpus);

/// SIGTERM, wait up to `timeout_ms`, then SIGKILL; always reaps. Returns
/// the exit status (-1 when it had to be killed).
int stop_child(Child& c, int timeout_ms = 15000);

/// Kills and reaps every child it holds on destruction (error paths).
class ChildGuard {
 public:
  ChildGuard() = default;
  ChildGuard(const ChildGuard&) = delete;
  ChildGuard& operator=(const ChildGuard&) = delete;
  ~ChildGuard();
  Child& add(Child c);
  std::vector<Child>& all() { return children_; }
  const std::vector<Child>& all() const { return children_; }

 private:
  std::vector<Child> children_;
};

/// utime + stime of a live process, in seconds.
double proc_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM) of a live process, in MiB.
double proc_peak_rss_mb(pid_t pid);
/// utime + stime of this process, in seconds.
double self_cpu_seconds();

/// An ephemeral loopback port that was free a moment ago.
std::uint16_t pick_free_port();

/// Prometheus text exposition: "name value" rows (no labels).
std::map<std::string, double> read_exposition(const std::string& path);

std::string read_file(const std::string& path);

}  // namespace crowdbench
