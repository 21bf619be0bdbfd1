// Write-ahead log of sanitized checkin records.
//
// The paper's prototype persists server state in MySQL so the crowd's
// accumulated progress survives restarts (Section V); this is the
// reproduction's equivalent, built for a parameter server: an append-only
// log whose records are the post-sanitization checkin payloads the server
// already held. Each record wraps a `net::codec`-encoded body in a
// CRC-framed envelope mirroring the wire frame layout, so WAL contents
// are exactly the eps-DP data of Eqs. 10-12 — persisting them adds no
// privacy surface (same argument as core/checkpoint.hpp).
//
// Layout of one record (all integers little-endian, via net::codec):
//
//   [magic "CRWL" 4B][seq u64][payload_len u32][payload][crc32]
//
// with the CRC-32 (IEEE) computed over seq + payload_len + payload.
// `seq` is the server iteration the record produced (strictly
// increasing), which is what lets recovery skip records a snapshot
// already covers.
//
// Segments: the log is a directory of `wal-<first_seq>.log` files; the
// active segment rotates once it exceeds `segment_max_bytes`. Sealed
// segments are immutable and can be deleted wholesale once a snapshot
// covers their last record (`truncate_through`).
//
// Durability is governed by FsyncPolicy:
//   kAlways — fsync after every append (acked => on disk);
//   kEveryN — fsync once per `fsync_every` appends (bounded loss window);
//   kNever  — never fsync; the OS flushes when it pleases (crash of the
//             process alone loses nothing, losing power may).
//
// Recovery (`open_and_replay`) scans segments in order and tolerates a
// *torn tail*: a bad frame in the final segment that extends to EOF —
// exactly what a crash mid-append leaves behind — truncates the file at
// the last good record and recovery completes cleanly. A bad record
// anywhere else (a sealed segment, or a frame in the final segment that
// a decodable record still follows) is real corruption and throws
// WalError; refusing to guess beats silently dropping applied updates.
// Appends uphold the same invariant from the other side: a failed write
// ftruncates its partial record away so a retry can never append valid
// records after junk, and if even that rollback fails the log refuses
// all further appends, leaving the junk at EOF where the torn-tail rule
// handles it.
//
// Tailing: the replication shipper reads the log through one
// WalTailReader per follower session — a cursor that opens cold (a
// directory listing and a walk of the segment holding cursor + 1) only on
// session start and after a snapshot, then preads just the bytes each
// commit appended, holding no more than one batch plus one bounded read
// buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"

namespace crowdml::store {

class WalError : public std::runtime_error {
 public:
  explicit WalError(const std::string& what) : std::runtime_error(what) {}
};

enum class FsyncPolicy { kAlways, kEveryN, kNever };

const char* fsync_policy_name(FsyncPolicy p);

/// Parse "always", "never", or "every-N" (N >= 1, e.g. "every-64").
/// On "every-N", `*every_n` receives N. Throws std::invalid_argument.
FsyncPolicy parse_fsync_policy(const std::string& spec, long long* every_n);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryN;
  long long fsync_every = 64;  ///< for kEveryN
  std::size_t segment_max_bytes = 4u << 20;
  /// Registry for append/fsync latency histograms and record/byte/rotation
  /// counters (null = obs::default_registry()). Must outlive the log.
  obs::MetricsRegistry* metrics = nullptr;
};

struct WalRecord {
  std::uint64_t seq = 0;
  net::Bytes payload;
};

/// Encode one record (exposed for tests and fuzzing).
net::Bytes encode_wal_record(std::uint64_t seq, net::ByteSpan payload);

/// Decode the record starting at `buf[*offset]`, advancing `*offset` past
/// it on success. Throws WalError on truncation, bad magic, an absurd
/// length, or CRC mismatch; `*offset` is left unchanged so the caller
/// knows the exact byte where the log stopped being believable.
WalRecord decode_wal_record(const net::Bytes& buf, std::size_t* offset);

/// One WalTailReader::next() result: the records to ship, or the
/// discovery that compaction pruned history after the cursor (`gap`), so
/// the caller must catch up from a snapshot instead.
struct WalTail {
  std::vector<WalRecord> records;
  bool gap = false;
};

/// A per-session cursor over the log's tail — the replication shipper's
/// view of the WAL (the disk IS the replication buffer; nothing is queued
/// in memory for slow followers). It holds the open segment's fd, the
/// byte offset after the last record it consumed, and the seq of the last
/// record it returned (the cursor), so each next() preads only bytes
/// appended since the previous call: the work per batch follows the
/// batch, not the segment.
///
/// Cold path: construction and seek() drop the fd; the next read lists
/// the directory, opens the segment that holds cursor + 1 (the newest one
/// whose first seq <= cursor + 1) and walks it from the start,
/// CRC-checking and skipping records <= cursor. If the first record it
/// meets already exceeds cursor + 1, compaction pruned what the caller
/// needs and next() reports `gap`.
///
/// Warm path: at the clean end of a segment while records up to the
/// watermark are still missing, the segment must be sealed, so the
/// reader moves to `wal-<cursor + 1>.log`; if compaction already deleted
/// that file it reports `gap`. A segment deleted under the cursor stays
/// readable through the held fd.
///
/// Safe while another thread appends: a partial record at the tail (an
/// append in progress, or junk a failed write is rolling back) ends the
/// read without moving the cursor, and so does a record cut by the
/// watermark or the byte cap — the next call reads it again.
///
/// Memory: the returned batch plus one read buffer of
/// max(kChunkBytes, one record); a buffer grown for an outsized record
/// is released at the end of the call.
class WalTailReader {
 public:
  static constexpr std::size_t kChunkBytes = 64u << 10;

  /// `bytes_read` (may be null) counts every byte pread from segment
  /// files — the read amplification the cursor exists to bound.
  WalTailReader(std::string dir, std::uint64_t cursor,
                obs::Counter* bytes_read = nullptr);
  ~WalTailReader();

  WalTailReader(const WalTailReader&) = delete;
  WalTailReader& operator=(const WalTailReader&) = delete;

  /// Reposition at `cursor` (e.g. after a snapshot moved the reader's
  /// consumer past it); the next read takes the cold path.
  void seek(std::uint64_t cursor);

  /// Records with cursor < seq <= watermark, in seq order: at most
  /// `max_records`, stopping at the first record that would push the
  /// payload bytes past `max_bytes` (always keeping at least one, so
  /// progress is guaranteed). The watermark is the writer's committed
  /// position — records past it may still be mid-commit. The cursor
  /// advances to the last returned record.
  WalTail next(std::uint64_t watermark, std::size_t max_records,
               std::size_t max_bytes);

  std::uint64_t cursor() const { return cursor_; }

 private:
  bool open_cold();
  /// 0, or the errno of the failed open (the fd stays as it was).
  int open_segment(std::uint64_t first_seq);
  void close_segment();
  /// Make the buffer hold the `need` bytes at file offset `pos`, reading
  /// at least to a full chunk. False when the segment ends first.
  bool fill(std::uint64_t pos, std::size_t need);

  std::string dir_;
  obs::Counter* bytes_read_;
  std::uint64_t cursor_;
  int fd_ = -1;
  std::uint64_t segment_first_ = 0;  ///< name of the open segment
  std::uint64_t offset_ = 0;         ///< end of the last consumed record
  bool cold_ = true;  ///< the next record walked must be <= cursor + 1
  net::Bytes buf_;    ///< capacity; holds file bytes [buf_pos_, +buf_len_)
  std::uint64_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
};

struct ReplayStats {
  std::uint64_t records_applied = 0;
  std::uint64_t records_skipped = 0;  ///< seq <= from_seq (snapshot covers)
  std::uint64_t last_seq = 0;         ///< 0 when the log is empty
  std::size_t segments_scanned = 0;
  bool torn_tail_truncated = false;
  std::size_t torn_bytes_dropped = 0;
};

/// The log itself. Thread-safe: appends, sync, and truncate_through may
/// race (the parameter server appends from connection workers while the
/// main thread compacts); open_and_replay must happen-before any append.
class WriteAheadLog {
 public:
  /// Creates `dir` if missing. No file is touched until open_and_replay
  /// (recovery) or the first append.
  WriteAheadLog(std::string dir, WalOptions options);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  using Apply = std::function<void(std::uint64_t seq, const net::Bytes& payload)>;

  /// Scan segments in seq order, call `apply` for every record with
  /// seq > from_seq, truncate a torn tail (final segment only), and leave
  /// the log positioned for appending. Must be called exactly once,
  /// before any append. Throws WalError on mid-log corruption.
  ReplayStats open_and_replay(std::uint64_t from_seq, const Apply& apply);

  /// Append one record and make it durable per the fsync policy before
  /// returning. `seq` must exceed every previously appended/replayed seq.
  /// Throws WalError on I/O failure or a non-monotonic seq.
  void append(std::uint64_t seq, const net::Bytes& payload);

  /// Group commit: append every record (in order, seqs strictly
  /// increasing), then fsync ONCE per the policy — under kAlways the
  /// whole batch costs a single fsync, which is what makes batched
  /// checkin application cheap (see engine::EpollCrowdServer). Throws
  /// WalError at the first failing record: earlier records are written
  /// (durable per policy), the failing one is rolled back, later ones are
  /// untouched — the caller can tell them apart via last_seq().
  void append_batch(const std::vector<WalRecord>& records);

  /// Force an fsync of the active segment (no-op when nothing is unsynced).
  void sync();

  /// Delete sealed segments whose records are all <= seq (the active
  /// segment is never deleted). Returns how many files were removed.
  std::size_t truncate_through(std::uint64_t seq);

  const std::string& dir() const { return dir_; }
  std::uint64_t last_seq() const;
  long long appended_records() const;
  long long fsyncs() const;
  long long rotations() const;
  std::size_t segment_count() const;  ///< sealed + active, on disk

 private:
  struct Segment {
    std::string path;
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
  };

  void open_segment_locked(std::uint64_t first_seq, bool append_to_existing);
  /// Write one record (rotating first if due) without any fsync; the
  /// caller applies the fsync policy afterwards (per record for append,
  /// once per batch for append_batch).
  void append_one_locked(std::uint64_t seq, const net::Bytes& payload);
  void policy_fsync_locked();
  void close_active_locked(bool fsync_it);
  void write_all_locked(const net::Bytes& bytes);
  void fsync_active_locked();
  void fsync_dir() const;  ///< make renames/creates in dir_ durable

  std::string dir_;
  WalOptions opts_;

  mutable std::mutex mu_;
  bool opened_ = false;
  bool broken_ = false;  ///< partial write left junk we could not roll back
  int fd_ = -1;  ///< active segment, -1 until first append needs it
  Segment active_;
  std::size_t active_bytes_ = 0;
  bool active_has_records_ = false;
  std::vector<Segment> sealed_;
  std::uint64_t last_seq_ = 0;
  long long unsynced_ = 0;
  long long appended_ = 0;
  long long fsyncs_ = 0;
  long long rotations_ = 0;

  obs::Histogram& append_seconds_;
  obs::Histogram& fsync_seconds_;
  obs::Counter& records_total_;
  obs::Counter& bytes_total_;
  obs::Counter& rotations_total_;
  obs::Counter& torn_truncations_total_;
};

}  // namespace crowdml::store
