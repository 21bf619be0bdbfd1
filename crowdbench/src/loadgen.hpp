// The open-loop generator. A phase drives every simulated device through
// its cycles — lognormal think, checkout, then checkin — on a fixed
// schedule of due times made from the seed before the phase starts. Up
// to four threads each own one TCP connection and the devices assigned
// to it, pipelining thousands of identities over that connection. A
// device never has two requests open: a request whose device is still
// waiting for a reply is sent the moment the reply arrives, and its
// latency still counts from its due time, so a stall is charged to every
// request it delays.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/messages.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace crowdbench {

enum class Kind : std::uint8_t { kCheckout = 0, kCheckin = 1 };
enum class Outcome : std::uint8_t { kOk, kShed, kNack, kFailed };

/// One request of a phase: a generator span (due -> send -> reply).
/// Times are nanoseconds from the phase start; -1 when it never happened.
struct RequestRecord {
  std::uint32_t device = 0;
  std::uint32_t cycle = 0;
  Kind kind = Kind::kCheckout;
  Outcome outcome = Outcome::kFailed;
  std::int64_t due = 0;
  std::int64_t ready = 0;  ///< when the device's previous reply arrived
  std::int64_t send = -1;
  std::int64_t reply = -1;
};

/// Checkout due times of every device's cycles in one phase.
struct Schedule {
  double rate = 0;
  double seconds = 0;
  double gap_ms = 2.0;  ///< checkout due -> checkin due (device compute)
  std::vector<std::vector<std::int64_t>> checkout_due;  ///< per device, ns
};

/// Seeded schedule: each device starts at a uniform offset within one
/// mean period (devices / rate) and then thinks for lognormal(sigma 0.5)
/// times with that mean, so the crowd offers `rate` cycles per second.
Schedule make_schedule(std::size_t devices, double rate, double seconds,
                       std::uint64_t seed);

struct PhaseResult {
  std::vector<RequestRecord> records;
  long long attempted = 0, ok = 0, shed = 0, nack = 0, failed = 0;
  long long checkins_ok = 0;
  long long bytes_out = 0, bytes_in = 0;  ///< frame bytes, both directions
  std::int64_t t0 = 0;             ///< phase start, absolute now_ns()
  std::int64_t end_ns = 0;         ///< schedule end (seconds)
  std::int64_t last_reply_ns = 0;  ///< latest reply of the phase
  double wall_s = 0;
  double gen_cpu_s = 0;  ///< this process's CPU during the phase
  bool transport_error = false;
};

/// Run one phase against 127.0.0.1:`port` over `connections` pipelined
/// connections. `frames[d]` holds device d's checkin frames, one per
/// scheduled cycle. Waits for every reply (up to drain_timeout_s past the
/// schedule end; later ones count as failed). While the lanes run, the
/// calling thread runs `idle` (when set) about every 100 ms.
PhaseResult run_phase(const Crowd& crowd, const Schedule& schedule,
                      const std::vector<std::vector<net::Bytes>>& frames,
                      std::uint16_t port, std::size_t param_dim,
                      int connections = 4, double drain_timeout_s = 30.0,
                      const std::function<void()>& idle = {});

/// Latencies in ms from due time; anything not ok missed every limit.
Tail latencies(const PhaseResult& r, Kind kind);

/// How late sends ran, in ms: after their due time, or (`own`) after the
/// later of the due time and the device's previous reply, which is the
/// generator's own lateness.
Tail lag(const PhaseResult& r, bool own);

/// A synchronous checkout (setup probe / final state): the params
/// frame's payload, or empty on failure.
net::Bytes checkout_payload(std::uint16_t port, const net::Bytes& request,
                            int timeout_ms);

}  // namespace crowdbench
