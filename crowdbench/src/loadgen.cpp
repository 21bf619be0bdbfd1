#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <queue>
#include <thread>

#include "net/tcp.hpp"
#include "rng/distributions.hpp"
#include "util.hpp"

namespace crowdbench {

Schedule make_schedule(std::size_t devices, double rate, double seconds,
                       std::uint64_t seed) {
  Schedule s;
  s.rate = rate;
  s.seconds = seconds;
  s.checkout_due.resize(devices);
  const double period = static_cast<double>(devices) / rate;  // seconds
  const double sigma = 0.5;
  const double think_mean = std::max(1e-3, period - s.gap_ms * 1e-3);
  // lognormal mean = exp(mu + sigma^2 / 2)
  const double mu = std::log(think_mean) - 0.5 * sigma * sigma;
  crowdml::rng::Engine eng(seed);
  for (std::size_t d = 0; d < devices; ++d) {
    crowdml::rng::Engine e = eng.split(d + 1);
    double t = crowdml::rng::uniform(e, 0.0, period);
    while (t < seconds) {
      s.checkout_due[d].push_back(static_cast<std::int64_t>(t * 1e9));
      t += s.gap_ms * 1e-3 +
           std::exp(mu + sigma * crowdml::rng::normal(e));
    }
  }
  return s;
}

namespace {

constexpr std::int64_t kMs = 1'000'000;

/// One connection and the devices it carries.
class Lane {
 public:
  Lane(const Crowd& crowd, const Schedule& schedule,
       const std::vector<std::vector<net::Bytes>>& frames,
       std::vector<std::uint32_t> devices, std::size_t param_dim)
      : crowd_(crowd),
        schedule_(schedule),
        frames_(frames),
        devices_(std::move(devices)),
        param_dim_(param_dim) {}

  ~Lane() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect(std::uint16_t port) {
    auto conn = net::TcpConnection::connect("127.0.0.1", port, 2000);
    if (!conn) return false;
    fd_ = conn->release_fd();
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }

  void run(std::int64_t t0, std::int64_t drain_deadline) {
    t0_ = t0;
    next_.assign(devices_.size(), 0);
    ready_.assign(devices_.size(), 0);
    open_.assign(devices_.size(), 0);
    for (std::size_t k = 0; k < devices_.size(); ++k)
      if (!schedule_.checkout_due[devices_[k]].empty())
        heap_.push({due_of(k, 0), k});
      else
        ++done_devices_;
    while (fd_ >= 0) {
      std::int64_t now = now_ns() - t0_;
      while (!heap_.empty() && heap_.top().first <= now) {
        const std::size_t k = heap_.top().second;
        heap_.pop();
        send_next(k, now);
      }
      if (!flush()) break;
      if (done_devices_ == devices_.size() && fifo_co_.empty() &&
          fifo_ci_.empty())
        break;
      if (now > drain_deadline) break;
      std::int64_t wait = heap_.empty() ? 20 * kMs : heap_.top().first - now;
      wait = std::clamp<std::int64_t>(wait, 0, 20 * kMs);
      pollfd p{fd_, static_cast<short>(POLLIN | (out_.size() > out_off_
                                                     ? POLLOUT
                                                     : 0)),
               0};
      timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                  static_cast<long>(wait % 1'000'000'000)};
      const int rc = ::ppoll(&p, 1, &ts, nullptr);
      if (rc < 0 && errno != EINTR) break;
      if (rc > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR))) {
        if (!read_replies()) break;
      }
    }
    finish();
  }

  std::vector<RequestRecord> records;
  long long bytes_out = 0, bytes_in = 0;
  bool transport_error = false;

 private:
  std::int64_t due_of(std::size_t k, std::uint32_t j) const {
    const auto& dues = schedule_.checkout_due[devices_[k]];
    const std::int64_t co = dues[j / 2];
    return (j % 2 == 0)
               ? co
               : co + static_cast<std::int64_t>(schedule_.gap_ms * 1e6);
  }

  std::uint32_t requests_of(std::size_t k) const {
    return static_cast<std::uint32_t>(
        2 * schedule_.checkout_due[devices_[k]].size());
  }

  void send_next(std::size_t k, std::int64_t now) {
    const std::uint32_t j = next_[k];
    const std::uint32_t dev = devices_[k];
    RequestRecord r;
    r.device = dev;
    r.cycle = j / 2;
    r.kind = (j % 2 == 0) ? Kind::kCheckout : Kind::kCheckin;
    r.due = due_of(k, j);
    r.ready = ready_[k];
    r.send = now;
    const net::Bytes& frame = r.kind == Kind::kCheckout
                                  ? crowd_.checkout_frame(dev)
                                  : frames_[dev][j / 2];
    out_.insert(out_.end(), frame.begin(), frame.end());
    bytes_out += static_cast<long long>(frame.size());
    const std::size_t idx = records.size();
    records.push_back(r);
    owner_.push_back(k);
    open_[k] = 1;
    (r.kind == Kind::kCheckout ? fifo_co_ : fifo_ci_).push_back(idx);
  }

  bool flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n =
          ::write(fd_, out_.data() + out_off_, out_.size() - out_off_);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        break;
      } else {
        transport_error = true;
        return false;
      }
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    } else if (out_off_ > (1u << 20)) {
      out_.erase(out_.begin(), out_.begin() + static_cast<long>(out_off_));
      out_off_ = 0;
    }
    return true;
  }

  bool read_replies() {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n > 0) {
        in_.insert(in_.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno == EAGAIN) break;
      transport_error = true;  // EOF or error: the server went away
      return false;
    }
    const std::int64_t now = now_ns() - t0_;
    std::size_t pos = 0;
    while (in_.size() - pos >= net::kFrameHeaderSize) {
      std::uint32_t len = 0;
      std::memcpy(&len, in_.data() + pos + net::kFrameLenOffset, sizeof(len));
      const std::size_t total =
          net::kFrameHeaderSize + len + net::kFrameTrailerSize;
      if (len > net::kMaxFieldLength) {
        transport_error = true;
        return false;
      }
      if (in_.size() - pos < total) break;
      const net::Bytes frame(in_.begin() + static_cast<long>(pos),
                             in_.begin() + static_cast<long>(pos + total));
      pos += total;
      bytes_in += static_cast<long long>(total);
      if (!on_reply(frame, now)) {
        transport_error = true;
        return false;
      }
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<long>(pos));
    return true;
  }

  bool on_reply(const net::Bytes& bytes, std::int64_t now) {
    std::size_t idx = 0;
    Outcome outcome = Outcome::kNack;
    try {
      const net::Frame f = net::decode_frame(bytes);
      if (f.type == net::MessageType::kParams) {
        if (fifo_co_.empty()) return false;
        idx = fifo_co_.front();
        fifo_co_.pop_front();
        const auto p = net::ParamsMessage::deserialize(f.payload);
        outcome = (p.accepted && p.w.size() == param_dim_) ? Outcome::kOk
                                                           : Outcome::kNack;
      } else if (f.type == net::MessageType::kAck) {
        const auto a = net::AckMessage::deserialize(f.payload);
        std::deque<std::size_t>& fifo = fifo_ci_.empty() ? fifo_co_ : fifo_ci_;
        if (fifo.empty()) return false;
        if (!a.ok && net::parse_retry_after(a.reason)) {
          // A shed is answered on arrival, ahead of queued checkins'
          // acks: it belongs to the newest outstanding checkin.
          idx = fifo.back();
          fifo.pop_back();
          outcome = Outcome::kShed;
        } else {
          idx = fifo.front();
          fifo.pop_front();
          outcome = a.ok ? Outcome::kOk : Outcome::kNack;
        }
      } else {
        return false;
      }
    } catch (const net::CodecError&) {
      return false;
    }
    RequestRecord& r = records[idx];
    r.reply = now;
    r.outcome = outcome;
    const std::size_t k = owner_[idx];
    ready_[k] = now;
    open_[k] = 0;
    // Any outcome ends the request; a device never retries within a
    // phase (a failed cycle is simply counted).
    if (++next_[k] >= requests_of(k)) {
      ++done_devices_;
    } else {
      const std::int64_t due = due_of(k, next_[k]);
      if (due <= now)
        send_next(k, now);
      else
        heap_.push({due, k});
    }
    return true;
  }

  void finish() {
    // Whatever is still outstanding or was never sent failed.
    for (std::size_t idx : fifo_co_) records[idx].outcome = Outcome::kFailed;
    for (std::size_t idx : fifo_ci_) records[idx].outcome = Outcome::kFailed;
    for (std::size_t k = 0; k < devices_.size(); ++k) {
      for (std::uint32_t j = next_[k] + open_[k]; j < requests_of(k); ++j) {
        RequestRecord r;
        r.device = devices_[k];
        r.cycle = j / 2;
        r.kind = (j % 2 == 0) ? Kind::kCheckout : Kind::kCheckin;
        r.due = due_of(k, j);
        r.outcome = Outcome::kFailed;
        records.push_back(r);
      }
    }
  }

  const Crowd& crowd_;
  const Schedule& schedule_;
  const std::vector<std::vector<net::Bytes>>& frames_;
  std::vector<std::uint32_t> devices_;
  std::size_t param_dim_;
  int fd_ = -1;
  std::int64_t t0_ = 0;
  std::vector<std::uint32_t> next_;
  std::vector<std::int64_t> ready_;
  std::vector<std::uint32_t> open_;  ///< 1 while the device awaits a reply
  std::size_t done_devices_ = 0;
  using Due = std::pair<std::int64_t, std::size_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> heap_;
  std::deque<std::size_t> fifo_co_, fifo_ci_;
  std::vector<std::size_t> owner_;
  net::Bytes out_;
  std::size_t out_off_ = 0;
  net::Bytes in_;
};

}  // namespace

PhaseResult run_phase(const Crowd& crowd, const Schedule& schedule,
                      const std::vector<std::vector<net::Bytes>>& frames,
                      std::uint16_t port, std::size_t param_dim,
                      int connections, double drain_timeout_s,
                      const std::function<void()>& idle) {
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int c = 0; c < connections; ++c) {
    std::vector<std::uint32_t> devs;
    for (std::size_t d = static_cast<std::size_t>(c); d < crowd.size();
         d += static_cast<std::size_t>(connections))
      devs.push_back(static_cast<std::uint32_t>(d));
    lanes.push_back(std::make_unique<Lane>(crowd, schedule, frames,
                                           std::move(devs), param_dim));
  }
  PhaseResult res;
  bool connected = true;
  for (auto& lane : lanes) connected = lane->connect(port) && connected;
  const double cpu0 = self_cpu_seconds();
  // Start a little in the future so every lane begins on the same clock.
  const std::int64_t t0 = now_ns() + 5 * kMs;
  res.t0 = t0;
  res.end_ns = static_cast<std::int64_t>(schedule.seconds * 1e9);
  const std::int64_t drain_deadline =
      res.end_ns + static_cast<std::int64_t>(drain_timeout_s * 1e9);
  std::atomic<std::size_t> running{lanes.size()};
  std::vector<std::thread> threads;
  for (auto& lane : lanes)
    threads.emplace_back([&lane, &running, t0, drain_deadline] {
      while (now_ns() < t0) std::this_thread::yield();
      lane->run(t0, drain_deadline);
      --running;
    });
  while (running.load() > 0) {
    if (idle) idle();
    for (int i = 0; i < 10 && running.load() > 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : threads) t.join();
  res.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  res.gen_cpu_s = self_cpu_seconds() - cpu0;
  res.transport_error = !connected;
  for (auto& lane : lanes) {
    res.transport_error = res.transport_error || lane->transport_error;
    res.bytes_out += lane->bytes_out;
    res.bytes_in += lane->bytes_in;
    for (const auto& r : lane->records) {
      ++res.attempted;
      switch (r.outcome) {
        case Outcome::kOk:
          ++res.ok;
          if (r.kind == Kind::kCheckin) ++res.checkins_ok;
          break;
        case Outcome::kShed: ++res.shed; break;
        case Outcome::kNack: ++res.nack; break;
        case Outcome::kFailed: ++res.failed; break;
      }
      res.last_reply_ns = std::max(res.last_reply_ns, r.reply);
    }
    res.records.insert(res.records.end(), lane->records.begin(),
                       lane->records.end());
  }
  return res;
}

Tail latencies(const PhaseResult& r, Kind kind) {
  std::vector<double> v;
  for (const auto& rec : r.records)
    if (rec.kind == kind)
      v.push_back(rec.outcome == Outcome::kOk
                      ? static_cast<double>(rec.reply - rec.due) * 1e-6
                      : 1e9);
  return summarize(std::move(v));
}

Tail lag(const PhaseResult& r, bool own) {
  std::vector<double> v;
  for (const auto& rec : r.records)
    if (rec.send >= 0)
      v.push_back(static_cast<double>(
                      rec.send - (own ? std::max(rec.due, rec.ready) : rec.due)) *
                  1e-6);
  return summarize(std::move(v));
}

net::Bytes checkout_payload(std::uint16_t port, const net::Bytes& request,
                            int timeout_ms) {
  auto conn = net::TcpConnection::connect("127.0.0.1", port, timeout_ms);
  if (!conn) return {};
  conn->set_deadline_ms(timeout_ms);
  if (!conn->send_frame(request)) return {};
  const auto reply = conn->recv_frame();
  if (!reply) return {};
  try {
    net::Frame f = net::decode_frame(*reply);
    if (f.type != net::MessageType::kParams) return {};
    return std::move(f.payload);
  } catch (const net::CodecError&) {
    return {};
  }
}

}  // namespace crowdbench
