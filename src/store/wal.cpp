#include "store/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "net/checksum.hpp"
#include "obs/profile.hpp"

namespace crowdml::store {

namespace {

constexpr std::uint32_t kWalMagic = 0x4C575243;  // "CRWL" little-endian
constexpr std::size_t kWalHeaderSize = 4 + 8 + 4;  // magic + seq + len
constexpr std::size_t kWalTrailerSize = 4;         // crc32

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// CRC of a complete record at `p` with payload length `len` matches its
/// trailer.
bool record_crc_ok(const std::uint8_t* p, std::uint32_t len) {
  return read_u32(p + kWalHeaderSize + len) == net::crc32(p + 4, 8 + 4 + len);
}

std::string segment_name(std::uint64_t first_seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(first_seq));
  return buf;
}

/// True for `wal-<first_seq>.log`, the only files a log directory's
/// readers consider.
bool is_segment_name(const std::string& name) {
  return name.rfind("wal-", 0) == 0 && name.size() > 8 &&
         name.compare(name.size() - 4, 4, ".log") == 0;
}

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

obs::MetricsRegistry& registry_of(const WalOptions& opts) {
  return opts.metrics ? *opts.metrics : obs::default_registry();
}

/// True when a complete record (valid magic + CRC) decodes anywhere at or
/// after `from`. A bad frame followed by such a record cannot be a torn
/// tail — a crash mid-append never writes anything after the tear — so it
/// must be treated as mid-file corruption.
bool later_record_decodes(const net::Bytes& bytes, std::size_t from) {
  for (std::size_t probe = from; probe + kWalHeaderSize + kWalTrailerSize <= bytes.size(); ++probe) {
    if (read_u32(bytes.data() + probe) != kWalMagic) continue;
    std::size_t off = probe;
    try {
      (void)decode_wal_record(bytes, &off);
      return true;
    } catch (const WalError&) {
    }
  }
  return false;
}

}  // namespace

const char* fsync_policy_name(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kEveryN:
      return "every-N";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

FsyncPolicy parse_fsync_policy(const std::string& spec, long long* every_n) {
  if (spec == "always") return FsyncPolicy::kAlways;
  if (spec == "never") return FsyncPolicy::kNever;
  if (spec.rfind("every-", 0) == 0) {
    const long long n = std::atoll(spec.c_str() + 6);
    if (n >= 1) {
      if (every_n) *every_n = n;
      return FsyncPolicy::kEveryN;
    }
  }
  throw std::invalid_argument(
      "fsync policy must be 'always', 'never', or 'every-N' (N >= 1), got '" +
      spec + "'");
}

net::Bytes encode_wal_record(std::uint64_t seq, net::ByteSpan payload) {
  net::Writer w(kWalHeaderSize + payload.size() + kWalTrailerSize);
  w.put_u32(kWalMagic);
  w.put_u64(seq);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_raw(payload);
  // CRC over seq + len + payload (everything after the magic).
  const net::Bytes& b = w.bytes();
  w.put_u32(net::crc32(b.data() + 4, b.size() - 4));
  return w.take();
}

WalRecord decode_wal_record(const net::Bytes& buf, std::size_t* offset) {
  const std::size_t off = *offset;
  if (off > buf.size()) throw WalError("wal offset out of range");
  const std::size_t avail = buf.size() - off;
  if (avail < kWalHeaderSize) throw WalError("wal record header truncated");
  const std::uint8_t* p = buf.data() + off;
  if (read_u32(p) != kWalMagic) throw WalError("bad wal record magic");
  const std::uint64_t seq = read_u64(p + 4);
  const std::uint32_t len = read_u32(p + 12);
  if (len > net::kMaxFieldLength) throw WalError("wal record length too large");
  if (avail < kWalHeaderSize + len + kWalTrailerSize)
    throw WalError("wal record body truncated");
  if (!record_crc_ok(p, len)) throw WalError("wal record crc mismatch");
  WalRecord rec;
  rec.seq = seq;
  rec.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(off + kWalHeaderSize),
                     buf.begin() + static_cast<std::ptrdiff_t>(off + kWalHeaderSize + len));
  *offset = off + kWalHeaderSize + len + kWalTrailerSize;
  return rec;
}

WalTailReader::WalTailReader(std::string dir, std::uint64_t cursor,
                             obs::Counter* bytes_read)
    : dir_(std::move(dir)), bytes_read_(bytes_read), cursor_(cursor) {}

WalTailReader::~WalTailReader() { close_segment(); }

void WalTailReader::seek(std::uint64_t cursor) {
  close_segment();
  cursor_ = cursor;
}

void WalTailReader::close_segment() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  cold_ = true;
}

int WalTailReader::open_segment(std::uint64_t first_seq) {
  const std::string path = dir_ + "/" + segment_name(first_seq);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno;
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  segment_first_ = first_seq;
  offset_ = 0;
  return 0;
}

bool WalTailReader::open_cold() {
  std::vector<std::uint64_t> firsts;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec), end;
  if (ec) return false;
  for (; it != end; it.increment(ec)) {
    if (ec) return false;
    const std::string name = it->path().filename().string();
    if (is_segment_name(name))
      firsts.push_back(std::strtoull(name.c_str() + 4, nullptr, 10));
  }
  if (firsts.empty()) return false;
  // Each name carries its segment's first seq: the newest segment that
  // starts at or below cursor + 1 holds it. When none does, open the
  // oldest, whose first record then reports the gap.
  std::sort(firsts.begin(), firsts.end());
  std::uint64_t pick = firsts.front();
  for (const std::uint64_t first : firsts)
    if (first <= cursor_ + 1) pick = first;
  // A segment compacted away between listing and open: retry next call.
  return open_segment(pick) == 0;
}

bool WalTailReader::fill(std::uint64_t pos, std::size_t need) {
  if (pos + need <= buf_pos_ + buf_len_) return true;
  // Drop consumed bytes, then read up to a full chunk (or the one
  // outsized record) past them.
  const auto keep = static_cast<std::size_t>(buf_pos_ + buf_len_ - pos);
  if (keep > 0) std::memmove(buf_.data(), buf_.data() + (pos - buf_pos_), keep);
  buf_pos_ = pos;
  buf_len_ = keep;
  const std::size_t target = std::max(need, kChunkBytes);
  if (buf_.size() < target) buf_.resize(target);
  while (buf_len_ < need) {
    const ssize_t n = ::pread(fd_, buf_.data() + buf_len_, target - buf_len_,
                              static_cast<off_t>(buf_pos_ + buf_len_));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_len_ += static_cast<std::size_t>(n);
    if (bytes_read_) *bytes_read_ += n;
  }
  return true;
}

WalTail WalTailReader::next(std::uint64_t watermark, std::size_t max_records,
                            std::size_t max_bytes) {
  WalTail out;
  if (cursor_ >= watermark || max_records == 0) return out;
  if (fd_ < 0 && !open_cold()) return out;
  // Bytes are re-read from offset_ on every call rather than kept: a
  // failed append rolls its partial record back with ftruncate, so bytes
  // past the last verified record may not survive.
  buf_pos_ = offset_;
  buf_len_ = 0;
  std::size_t payload_bytes = 0;
  std::uint64_t pos = offset_;
  while (out.records.size() < max_records) {
    if (!fill(pos, kWalHeaderSize)) {
      // A partial header is an append in progress: wait for it. At the
      // clean end of a segment that lacks committed records, the
      // segment is sealed and its successor starts at cursor + 1.
      if (buf_len_ != 0 || cursor_ >= watermark ||
          segment_first_ == cursor_ + 1)
        break;
      if (const int err = open_segment(cursor_ + 1); err != 0) {
        // ENOENT: compaction deleted the successor (anything else, e.g.
        // out of fds, is retried on the next call).
        out.gap = err == ENOENT && out.records.empty();
        break;
      }
      pos = 0;
      buf_pos_ = 0;
      buf_len_ = 0;
      continue;
    }
    const std::uint8_t* p = buf_.data() + (pos - buf_pos_);
    if (read_u32(p) != kWalMagic) break;
    const std::uint64_t seq = read_u64(p + 4);
    const std::uint32_t len = read_u32(p + 12);
    if (len > net::kMaxFieldLength || seq > watermark) break;
    const std::size_t size = kWalHeaderSize + len + kWalTrailerSize;
    if (!fill(pos, size)) break;  // the rest is still being written
    p = buf_.data() + (pos - buf_pos_);
    if (!record_crc_ok(p, len)) break;
    if (cold_) {
      if (seq > cursor_ + 1) {
        out.gap = true;
        break;
      }
      cold_ = false;
    }
    if (seq > cursor_) {
      if (!out.records.empty() && payload_bytes + len > max_bytes) break;
      payload_bytes += len;
      out.records.push_back(
          {seq, net::Bytes(p + kWalHeaderSize, p + kWalHeaderSize + len)});
      cursor_ = seq;
    }
    pos += size;
    offset_ = pos;
  }
  if (buf_.size() > kChunkBytes) net::Bytes().swap(buf_);
  return out;
}

WriteAheadLog::WriteAheadLog(std::string dir, WalOptions options)
    : dir_(std::move(dir)),
      opts_(options),
      append_seconds_(registry_of(opts_).histogram(
          "crowdml_wal_append_seconds",
          "One WAL append: record framing + write, including the fsync "
          "when the policy requires one",
          obs::Provenance::kTiming)),
      fsync_seconds_(registry_of(opts_).histogram(
          "crowdml_wal_fsync_seconds", "One fsync of the active WAL segment",
          obs::Provenance::kTiming)),
      records_total_(registry_of(opts_).counter(
          "crowdml_wal_records_total",
          "Sanitized checkin records appended to the write-ahead log",
          obs::Provenance::kTransportEvent)),
      bytes_total_(registry_of(opts_).counter(
          "crowdml_wal_bytes_total", "Bytes appended to the write-ahead log",
          obs::Provenance::kTransportEvent)),
      rotations_total_(registry_of(opts_).counter(
          "crowdml_wal_rotations_total", "WAL segment rotations",
          obs::Provenance::kTransportEvent)),
      torn_truncations_total_(registry_of(opts_).counter(
          "crowdml_wal_torn_truncations_total",
          "Torn WAL tails truncated during recovery",
          obs::Provenance::kTransportEvent)) {
  if (opts_.fsync_every < 1) opts_.fsync_every = 1;
  if (opts_.segment_max_bytes == 0) opts_.segment_max_bytes = 1;
  try {
    std::filesystem::create_directories(dir_);
  } catch (const std::filesystem::filesystem_error& e) {
    throw WalError(std::string("cannot create wal directory: ") + e.what());
  }
}

WriteAheadLog::~WriteAheadLog() {
  std::lock_guard lock(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

ReplayStats WriteAheadLog::open_and_replay(std::uint64_t from_seq,
                                           const Apply& apply) {
  std::lock_guard lock(mu_);
  if (opened_) throw WalError("open_and_replay called twice");

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (is_segment_name(entry.path().filename().string()))
      files.push_back(entry.path().string());
  }
  // Zero-padded names sort lexically in seq order.
  std::sort(files.begin(), files.end());

  ReplayStats stats;
  std::uint64_t prev_seq = 0;
  bool have_prev = false;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string& path = files[i];
    const bool final_segment = (i + 1 == files.size());
    net::Bytes bytes;
    {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      if (!f) throw WalError(errno_message("cannot read wal segment " + path));
      std::fseek(f, 0, SEEK_END);
      const long size = std::ftell(f);
      std::fseek(f, 0, SEEK_SET);
      bytes.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
      if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f) !=
                                bytes.size()) {
        std::fclose(f);
        throw WalError("short read on wal segment " + path);
      }
      std::fclose(f);
    }

    std::size_t offset = 0;
    Segment seg;
    seg.path = path;
    bool seg_any = false;
    while (offset < bytes.size()) {
      const std::size_t record_start = offset;
      WalRecord rec;
      try {
        rec = decode_wal_record(bytes, &offset);
      } catch (const WalError& e) {
        if (!final_segment)
          throw WalError("corrupt record in sealed wal segment " + path +
                         " (" + e.what() + ")");
        // Only a frame that extends to EOF can be a torn tail. A decodable
        // record after the bad frame means the damage is mid-file (a bit
        // flip, not a crash mid-append); truncating there would silently
        // drop records that were fsynced and acked.
        if (later_record_decodes(bytes, record_start + 1))
          throw WalError("corrupt record mid-segment in wal segment " + path +
                         " (" + e.what() +
                         "); decodable records follow it, refusing to drop "
                         "them");
        // Torn tail: a crash mid-append left a partial record. Truncate at
        // the last good byte and recover cleanly.
        if (::truncate(path.c_str(), static_cast<off_t>(record_start)) != 0)
          throw WalError(errno_message("cannot truncate torn wal tail " + path));
        stats.torn_tail_truncated = true;
        stats.torn_bytes_dropped += bytes.size() - record_start;
        ++torn_truncations_total_;
        bytes.resize(record_start);
        break;
      }
      if (have_prev && rec.seq != prev_seq + 1)
        throw WalError("wal sequence gap: record " + std::to_string(rec.seq) +
                       " follows " + std::to_string(prev_seq));
      if (!have_prev && rec.seq > from_seq + 1)
        // The oldest surviving record must continue the snapshot exactly —
        // anything else means segments the snapshot needed were lost.
        throw WalError("wal starts at record " + std::to_string(rec.seq) +
                       " but the snapshot covers only " +
                       std::to_string(from_seq));
      if (rec.seq > from_seq) {
        apply(rec.seq, rec.payload);
        ++stats.records_applied;
      } else {
        ++stats.records_skipped;
      }
      prev_seq = rec.seq;
      have_prev = true;
      if (!seg_any) seg.first_seq = rec.seq;
      seg.last_seq = rec.seq;
      seg_any = true;
    }
    ++stats.segments_scanned;

    if (!seg_any) {
      // No valid record at all. In the final segment that is a tail torn
      // before the first append completed — delete it so the next append
      // can recreate a segment at the right seq. Anywhere else it is a gap.
      if (!final_segment)
        throw WalError("empty sealed wal segment " + path);
      std::remove(path.c_str());
      fsync_dir();
      continue;
    }
    if (final_segment) {
      fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
      if (fd_ < 0)
        throw WalError(errno_message("cannot reopen wal segment " + path));
      active_ = seg;
      active_bytes_ = bytes.size();
      active_has_records_ = true;
    } else {
      sealed_.push_back(seg);
    }
  }
  stats.last_seq = prev_seq;
  last_seq_ = prev_seq;
  opened_ = true;
  return stats;
}

void WriteAheadLog::open_segment_locked(std::uint64_t first_seq,
                                        bool append_to_existing) {
  const std::string path = dir_ + "/" + segment_name(first_seq);
  const int flags =
      O_WRONLY | O_CREAT | O_APPEND | (append_to_existing ? 0 : O_EXCL);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) throw WalError(errno_message("cannot create wal segment " + path));
  active_ = Segment{path, first_seq, first_seq};
  active_bytes_ = 0;
  active_has_records_ = false;
  fsync_dir();  // make the new file name durable
}

void WriteAheadLog::close_active_locked(bool fsync_it) {
  if (fd_ < 0) return;
  if (fsync_it && unsynced_ > 0) fsync_active_locked();
  ::close(fd_);
  fd_ = -1;
  if (active_has_records_) sealed_.push_back(active_);
  active_ = Segment{};
  active_bytes_ = 0;
  active_has_records_ = false;
}

void WriteAheadLog::write_all_locked(const net::Bytes& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string reason = errno_message("wal write failed");
      // Roll the partial record back to the pre-append size. Junk left
      // here would sit *before* whatever a retried append (O_APPEND) puts
      // after it, and the next recovery would then truncate at the junk —
      // dropping fsynced, acked records that followed it.
      if (written == 0 ||
          ::ftruncate(fd_, static_cast<off_t>(active_bytes_)) == 0)
        throw WalError(reason);
      // Rollback impossible: refuse all further appends so nothing ever
      // lands after the junk. It stays at EOF of the final segment, which
      // the next recovery truncates as a genuine torn tail.
      broken_ = true;
      throw WalError(reason + "; rollback ftruncate failed (" +
                     std::strerror(errno) + "), wal closed to appends");
    }
    written += static_cast<std::size_t>(n);
  }
}

void WriteAheadLog::fsync_active_locked() {
  obs::TimedScope timer(fsync_seconds_);
  if (::fsync(fd_) != 0) throw WalError(errno_message("wal fsync failed"));
  unsynced_ = 0;
  ++fsyncs_;
}

void WriteAheadLog::fsync_dir() const {
  const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;  // best-effort: record data itself is fsync-governed
  ::fsync(dfd);
  ::close(dfd);
}

void WriteAheadLog::append_one_locked(std::uint64_t seq,
                                      const net::Bytes& payload) {
  const net::Bytes record = encode_wal_record(seq, payload);
  if (!opened_) throw WalError("append before open_and_replay");
  if (broken_)
    throw WalError(
        "wal closed to appends: an earlier partial write could not be "
        "rolled back");
  if (seq <= last_seq_)
    throw WalError("non-monotonic wal seq " + std::to_string(seq) +
                   " (last " + std::to_string(last_seq_) + ")");
  if (fd_ >= 0 && active_bytes_ >= opts_.segment_max_bytes) {
    close_active_locked(/*fsync_it=*/opts_.fsync != FsyncPolicy::kNever);
    ++rotations_;
    ++rotations_total_;
  }
  if (fd_ < 0) open_segment_locked(seq, /*append_to_existing=*/false);

  write_all_locked(record);
  active_bytes_ += record.size();
  if (!active_has_records_) active_.first_seq = seq;
  active_has_records_ = true;
  active_.last_seq = seq;
  last_seq_ = seq;
  ++appended_;
  ++unsynced_;
  ++records_total_;
  bytes_total_ += static_cast<long long>(record.size());
}

void WriteAheadLog::policy_fsync_locked() {
  switch (opts_.fsync) {
    case FsyncPolicy::kAlways:
      if (unsynced_ > 0) fsync_active_locked();
      break;
    case FsyncPolicy::kEveryN:
      if (unsynced_ >= opts_.fsync_every) fsync_active_locked();
      break;
    case FsyncPolicy::kNever:
      break;
  }
}

void WriteAheadLog::append(std::uint64_t seq, const net::Bytes& payload) {
  obs::TimedScope timer(append_seconds_);
  std::lock_guard lock(mu_);
  append_one_locked(seq, payload);
  policy_fsync_locked();
}

void WriteAheadLog::append_batch(const std::vector<WalRecord>& records) {
  if (records.empty()) return;
  obs::TimedScope timer(append_seconds_);
  std::lock_guard lock(mu_);
  // All writes first, one policy fsync at the end: under kAlways a batch
  // of N records costs one fsync instead of N — the group-commit win.
  for (const WalRecord& r : records) append_one_locked(r.seq, r.payload);
  policy_fsync_locked();
}

void WriteAheadLog::sync() {
  std::lock_guard lock(mu_);
  if (fd_ >= 0 && unsynced_ > 0) fsync_active_locked();
}

std::size_t WriteAheadLog::truncate_through(std::uint64_t seq) {
  std::lock_guard lock(mu_);
  std::size_t removed = 0;
  for (auto it = sealed_.begin(); it != sealed_.end();) {
    if (it->last_seq <= seq && std::remove(it->path.c_str()) == 0) {
      ++removed;
      it = sealed_.erase(it);
    } else {
      ++it;
    }
  }
  if (removed > 0) fsync_dir();
  return removed;
}

std::uint64_t WriteAheadLog::last_seq() const {
  std::lock_guard lock(mu_);
  return last_seq_;
}

long long WriteAheadLog::appended_records() const {
  std::lock_guard lock(mu_);
  return appended_;
}

long long WriteAheadLog::fsyncs() const {
  std::lock_guard lock(mu_);
  return fsyncs_;
}

long long WriteAheadLog::rotations() const {
  std::lock_guard lock(mu_);
  return rotations_;
}

std::size_t WriteAheadLog::segment_count() const {
  std::lock_guard lock(mu_);
  return sealed_.size() + (fd_ >= 0 ? 1u : 0u);
}

}  // namespace crowdml::store
