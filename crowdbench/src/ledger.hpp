// The per-checkin cost ledger. It replays the workload's own checkin
// frames, in send order, through the public function each server stage
// calls, in the order the epoll applier runs them:
//
//   ledger.checkin  decode -> parse -> verify -> apply -> wal_encode
//                   -> ack_encode                     (one per checkin)
//   ledger.batch    wal_append -> fsync -> params_encode -> seal
//                                                    (one per live batch)
//
// Each stage is a child span of its parent; a stage's self time is its
// duration, the parent's self time is what its children do not cover.
// core::ProtocolServer::handle over the same frames on a second server is the
// closure reference: decode + parse + verify + apply + ack_encode must
// sum to it within kClosureTolerance, or the ledger has drifted from the
// real applier path. The two replays alternate chunk by chunk, so a
// change in the host's speed lands on both.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cluster.hpp"
#include "workload.hpp"

namespace crowdbench {

inline constexpr double kClosureTolerance = 0.25;

struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t start = 0, end = 0;
};

struct LedgerResult {
  std::map<std::string, double> ns;  ///< stage -> mean self time, ns
  double closure_ratio = 0;  ///< ledger non-store stages / reference
  bool closure_ok = false;
  bool state_ok = false;  ///< ledger and reference end in the same (w, t)
  std::vector<Span> spans;
};

struct LedgerInput {
  const WorkloadSpec* spec = nullptr;
  const PrefixState* prefix = nullptr;
  const std::vector<net::Bytes>* checkins = nullptr;
  std::uint64_t auth_seed = 0;
  std::size_t batch = 1;        ///< live mean batch, rounded
  std::string scratch_dir;      ///< on the WAL's filesystem
};

LedgerResult run_ledger(const LedgerInput& in);

}  // namespace crowdbench
