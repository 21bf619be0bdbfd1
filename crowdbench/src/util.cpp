#include "util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace crowdbench {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

std::optional<double> Tail::at(double q) const {
  if (samples_beyond(n, q) < 10) return std::nullopt;
  return quantile_sorted(sorted, q);
}

Tail summarize(std::vector<double> values) {
  Tail t;
  std::sort(values.begin(), values.end());
  t.n = values.size();
  t.sorted = std::move(values);
  t.p50 = quantile_sorted(t.sorted, 0.5);
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (samples_beyond(t.n, q) >= 10) {
      t.tail_q = q;
      t.tail = quantile_sorted(t.sorted, q);
      break;
    }
  }
  return t;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Json& Json::num(const std::string& key, double v) {
  char buf[64];
  if (!std::isfinite(v)) v = 0.0;
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  fields_.emplace_back(key, buf);
  return *this;
}

Json& Json::integer(const std::string& key, long long v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}

Json& Json::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, "\"" + json_escape(v) + "\"");
  return *this;
}

Json& Json::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}

Json& Json::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(fields_[i].first) + "\": " + fields_[i].second;
  }
  return out + "}";
}

namespace {

bool pin(pid_t pid, const std::vector<int>& cpus) {
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(pid, sizeof(set), &set) == 0;
}

}  // namespace

const CpuPlan& cpu_plan() {
  static const CpuPlan plan = [] {
    CpuPlan p;
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    if (n >= 4)
      for (int c = 0; c < n; ++c) (c < n / 2 ? p.server : p.generator).push_back(c);
    return p;
  }();
  return plan;
}

void pin_self(const std::vector<int>& cpus) {
  if (!pin(0, cpus)) throw std::runtime_error("sched_setaffinity failed");
}

Child spawn(const std::vector<std::string>& argv, const std::string& log,
            const std::vector<int>& cpus) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent || !pin(0, cpus)) _exit(127);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  return Child{pid, log};
}

int stop_child(Child& c, int timeout_ms) {
  if (c.pid <= 0) return 0;
  kill(c.pid, SIGCONT);  // a stalled child must be able to exit
  kill(c.pid, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    const pid_t r = waitpid(c.pid, &status, WNOHANG);
    if (r == c.pid) {
      c.pid = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (r < 0) {
      c.pid = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(c.pid, SIGKILL);
  waitpid(c.pid, &status, 0);
  c.pid = -1;
  return -1;
}

ChildGuard::~ChildGuard() {
  for (auto& c : children_) {
    if (c.pid <= 0) continue;
    kill(c.pid, SIGKILL);
    int status = 0;
    waitpid(c.pid, &status, 0);
    c.pid = -1;
  }
}

Child& ChildGuard::add(Child c) {
  children_.push_back(std::move(c));
  return children_.back();
}

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

double self_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::uint16_t pick_free_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot find a free port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

std::map<std::string, double> read_exposition(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos)
      continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    try {
      out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    } catch (const std::exception&) {
    }
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace crowdbench
