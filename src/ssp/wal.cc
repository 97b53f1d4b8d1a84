#include "ssp/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/binary_io.h"

namespace sharoes::ssp {

namespace {

/// WAL metrics, shared by every Wal in the process (DESIGN.md §9 name
/// scheme; pointers resolved once, record path lock-free).
struct WalMetrics {
  obs::Counter* appends;
  obs::Counter* bytes;
  obs::Counter* fsyncs;
  obs::Counter* replayed;
  obs::Counter* compactions;
  obs::Counter* torn_tails;
  obs::Counter* commit_leads;
  obs::Counter* commit_piggybacks;
  obs::Histogram* append_us;
  obs::Histogram* fsync_us;

  WalMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    appends = reg.counter("ssp.wal.appends");
    bytes = reg.counter("ssp.wal.bytes");
    fsyncs = reg.counter("ssp.wal.fsyncs");
    replayed = reg.counter("ssp.wal.replayed");
    compactions = reg.counter("ssp.wal.compactions");
    torn_tails = reg.counter("ssp.wal.torn_tails");
    commit_leads = reg.counter("ssp.wal.commit_leads");
    commit_piggybacks = reg.counter("ssp.wal.commit_piggybacks");
    append_us = reg.histogram("ssp.wal.append_us");
    fsync_us = reg.histogram("ssp.wal.fsync_us");
  }
};

WalMetrics& Metrics() {
  static WalMetrics* metrics = new WalMetrics();  // Never dies.
  return *metrics;
}

uint64_t NowMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::string SegmentName(uint64_t base_seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(base_seq));
  return buf;
}

std::string JoinDir(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

/// Parses "wal-<digits>.log" into its base sequence.
bool ParseSegmentName(const std::string& name, uint64_t* base_seq) {
  if (name.size() != 4 + 20 + 4) return false;
  if (name.compare(0, 4, "wal-") != 0) return false;
  if (name.compare(24, 4, ".log") != 0) return false;
  uint64_t v = 0;
  for (size_t i = 4; i < 24; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *base_seq = v;
  return true;
}

Result<Bytes> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no " + path);
    return Status::IoError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  Bytes data;
  uint8_t buf[64 * 1024];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError("cannot read '" + path + "': " +
                             std::strerror(errno));
    }
    if (n == 0) break;
    data.insert(data.end(), buf, buf + n);
  }
  ::close(fd);
  return data;
}

Status WriteAll(int fd, const uint8_t* data, size_t len,
                const std::string& what) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("short write to " + what + ": " +
                             std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Best-effort directory fsync so creates/renames/unlinks are durable.
void SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

uint32_t ReadU32At(const Bytes& b, size_t off) {
  return static_cast<uint32_t>(b[off]) |
         (static_cast<uint32_t>(b[off + 1]) << 8) |
         (static_cast<uint32_t>(b[off + 2]) << 16) |
         (static_cast<uint32_t>(b[off + 3]) << 24);
}

uint64_t ReadU64At(const Bytes& b, size_t off) {
  return static_cast<uint64_t>(ReadU32At(b, off)) |
         (static_cast<uint64_t>(ReadU32At(b, off + 4)) << 32);
}

const uint32_t* Crc32Table() {
  static uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t WalCrc32(const uint8_t* data, size_t len) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

const char* WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kAlways:
      return "always";
    case WalSyncPolicy::kInterval:
      return "interval";
    case WalSyncPolicy::kOff:
      return "off";
  }
  return "unknown";
}

bool ParseWalSyncPolicy(std::string_view text, WalSyncPolicy* out) {
  if (text == "always") {
    *out = WalSyncPolicy::kAlways;
  } else if (text == "interval") {
    *out = WalSyncPolicy::kInterval;
  } else if (text == "off") {
    *out = WalSyncPolicy::kOff;
  } else {
    return false;
  }
  return true;
}

Bytes EncodeWalSegmentHeader(uint64_t base_seq) {
  BinaryWriter w;
  w.PutU32(kWalMagic);
  w.PutU32(kWalVersion);
  w.PutU64(base_seq);
  return w.Take();
}

Bytes EncodeWalRecord(uint64_t seq, const Bytes& payload) {
  BinaryWriter body;
  body.PutU64(seq);
  body.PutRaw(payload);
  const Bytes& b = body.data();
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(b.size()));
  w.PutU32(WalCrc32(b.data(), b.size()));
  w.PutRaw(b);
  return w.Take();
}

Status ApplyWalOp(const Request& op, ObjectStore* store) {
  // Repair/scrub mutations carry an explicit store generation as a
  // request extension; since Wal::Append logs op.Serialize(), the
  // generation rides into the log and replay re-applies it gen-gated,
  // exactly like the live apply. gen == 0 is the ordinary client path
  // (bump the local generation).
  const uint64_t gen = op.has_store_gen ? op.store_gen : 0;
  switch (VerbOf(op.op)) {
    case OpVerb::kPut:
      store->Put(*RefOf(op), op.payload, gen);
      return Status::OK();
    case OpVerb::kDelete:
      store->Delete(*RefOf(op), gen);
      return Status::OK();
    case OpVerb::kDeleteInode:
      store->DeleteInode(FamilyOf(op.op), op.inode);
      // An inode's split blocks go with its metadata: one sub-op, however
      // many users and groups the identity directory holds.
      if (op.op == OpCode::kDeleteInodeMetadata) {
        store->DeleteInode(ObjectFamily::kUserMetadata, op.inode);
      }
      return Status::OK();
    default:
      return Status::Corruption("non-mutating op in WAL record");
  }
}

Result<WalSegmentReplay> ReplayWalSegment(const Bytes& bytes,
                                          uint64_t applied_through,
                                          bool allow_torn_tail,
                                          ObjectStore* store) {
  WalSegmentReplay out;
  if (bytes.size() < kWalSegmentHeaderSize) {
    // A crash between segment creation and the header write leaves a
    // short (usually empty) file — a torn tail at offset zero.
    if (allow_torn_tail) {
      out.base_seq = applied_through;
      out.last_seq = applied_through;
      out.tail_truncated = true;
      out.valid_bytes = 0;
      return out;
    }
    return Status::Corruption("wal segment shorter than its header");
  }
  if (ReadU32At(bytes, 0) != kWalMagic) {
    return Status::Corruption("not a wal segment (bad magic)");
  }
  if (ReadU32At(bytes, 4) != kWalVersion) {
    return Status::Corruption("unsupported wal segment version");
  }
  out.base_seq = ReadU64At(bytes, 8);
  out.last_seq = out.base_seq;
  out.valid_bytes = kWalSegmentHeaderSize;

  size_t off = kWalSegmentHeaderSize;
  uint64_t expected_seq = out.base_seq;
  while (off < bytes.size()) {
    size_t remaining = bytes.size() - off;
    if (remaining < kWalRecordHeaderSize) {
      // Partial record header: only a torn append writes this.
      if (!allow_torn_tail) {
        return Status::Corruption("torn record header mid-log");
      }
      out.tail_truncated = true;
      break;
    }
    uint32_t len = ReadU32At(bytes, off);
    uint32_t crc = ReadU32At(bytes, off + 4);
    if (len < 8 || len > kMaxWalRecordLen) {
      // We never write such a length; the field itself is corrupt (a
      // "length lie"), whether or not it reaches end-of-file.
      return Status::Corruption("wal record length field corrupt");
    }
    if (len > remaining - kWalRecordHeaderSize) {
      // Record body runs past end-of-file: the classic torn append.
      if (!allow_torn_tail) {
        return Status::Corruption("truncated wal record mid-log");
      }
      out.tail_truncated = true;
      break;
    }
    const uint8_t* body = bytes.data() + off + kWalRecordHeaderSize;
    bool last_record = (off + kWalRecordHeaderSize + len == bytes.size());
    if (WalCrc32(body, len) != crc) {
      // A bad CRC on the final record is indistinguishable from a torn
      // payload write; anywhere else there are valid bytes *after* the
      // damage, which no torn append can produce.
      if (allow_torn_tail && last_record) {
        out.tail_truncated = true;
        break;
      }
      return Status::Corruption("wal record CRC mismatch mid-log");
    }
    uint64_t seq = ReadU64At(bytes, off + kWalRecordHeaderSize);
    if (seq != expected_seq + 1) {
      return Status::Corruption("wal sequence discontinuity");
    }
    Bytes payload(body + 8, body + len);
    auto op = Request::Deserialize(payload);
    if (!op.ok() || !IsMutatingOp(op->op)) {
      // The CRC vouched for these bytes, so this is not bit rot — the
      // record content itself is invalid. Never apply it.
      return Status::Corruption("wal record payload is not a mutating op");
    }
    if (seq > applied_through) {
      SHAROES_RETURN_IF_ERROR(ApplyWalOp(*op, store));
      ++out.applied;
    } else {
      ++out.skipped;
    }
    expected_seq = seq;
    out.last_seq = seq;
    off += kWalRecordHeaderSize + len;
    out.valid_bytes = off;
  }
  return out;
}

// --- Snapshot file ----------------------------------------------------
//
// `magic | version | covered_seq | crc(store bytes) | store bytes`.
// Written to snapshot.tmp, fsynced, renamed — so the `snapshot` name
// only ever points at a complete image; the CRC catches bit rot.

namespace {

constexpr const char* kSnapshotName = "snapshot";
constexpr const char* kSnapshotTmpName = "snapshot.tmp";
constexpr size_t kSnapshotHeaderSize = 20;

struct LoadedSnapshot {
  uint64_t covered_seq = 0;
  ObjectStore store;
};

Result<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(Bytes raw, ReadWholeFile(path));
  if (raw.size() < kSnapshotHeaderSize) {
    return Status::Corruption("wal snapshot shorter than its header");
  }
  if (ReadU32At(raw, 0) != kWalSnapshotMagic) {
    return Status::Corruption("not a wal snapshot (bad magic)");
  }
  if (ReadU32At(raw, 4) != kWalVersion) {
    return Status::Corruption("unsupported wal snapshot version");
  }
  LoadedSnapshot out;
  out.covered_seq = ReadU64At(raw, 8);
  uint32_t crc = ReadU32At(raw, 16);
  const uint8_t* body = raw.data() + kSnapshotHeaderSize;
  size_t body_len = raw.size() - kSnapshotHeaderSize;
  if (WalCrc32(body, body_len) != crc) {
    return Status::Corruption("wal snapshot CRC mismatch");
  }
  SHAROES_ASSIGN_OR_RETURN(
      out.store, ObjectStore::Deserialize(Bytes(body, body + body_len)));
  return out;
}

}  // namespace

// --- The live log -----------------------------------------------------

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       const WalOptions& options,
                                       ObjectStore* store) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create wal dir '" + dir + "': " +
                           std::strerror(errno));
  }
  std::unique_ptr<Wal> wal(new Wal(dir, options, store));

  // A crash mid-compaction may leave a half-written image; it was never
  // renamed into place, so it is garbage by construction.
  ::unlink(JoinDir(dir, kSnapshotTmpName).c_str());

  // 1. Snapshot.
  uint64_t applied_through = 0;
  auto snap = LoadSnapshot(JoinDir(dir, kSnapshotName));
  if (snap.ok()) {
    *store = std::move(snap->store);
    applied_through = snap->covered_seq;
    wal->recovery_.had_snapshot = true;
    wal->recovery_.snapshot_seq = snap->covered_seq;
  } else if (!snap.status().IsNotFound()) {
    return snap.status();
  }

  // 2. Segment chain, sorted by base sequence.
  std::vector<std::pair<uint64_t, std::string>> segments;
  {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      return Status::IoError("cannot list wal dir '" + dir + "'");
    }
    while (dirent* ent = ::readdir(d)) {
      uint64_t base = 0;
      if (ParseSegmentName(ent->d_name, &base)) {
        segments.emplace_back(base, ent->d_name);
      }
    }
    ::closedir(d);
  }
  std::sort(segments.begin(), segments.end());

  // 3. Chained replay. Only the final segment may have a torn tail; a
  // gap between the snapshot and the first segment, or between
  // consecutive segments, means acknowledged records are missing and
  // recovery must refuse.
  uint64_t last_seq = applied_through;
  size_t last_valid_bytes = 0;
  bool last_was_torn = false;
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [base, name] = segments[i];
    bool is_last = (i + 1 == segments.size());
    SHAROES_ASSIGN_OR_RETURN(Bytes raw, ReadWholeFile(JoinDir(dir, name)));
    auto replay = ReplayWalSegment(raw, applied_through, is_last, store);
    if (!replay.ok()) {
      return Status::Corruption("wal segment " + name + ": " +
                                replay.status().message());
    }
    if (raw.size() >= kWalSegmentHeaderSize && replay->base_seq != base) {
      return Status::Corruption("wal segment " + name +
                                ": header disagrees with filename");
    }
    // Chain check: this segment's records must pick up exactly where
    // recovery stands. (The first segment may begin below the snapshot;
    // those records are skipped, not reapplied.)
    if (replay->base_seq > last_seq) {
      return Status::Corruption("wal gap: segment " + name + " starts at " +
                                std::to_string(replay->base_seq) +
                                " but recovery is at " +
                                std::to_string(last_seq));
    }
    last_seq = std::max(last_seq, replay->last_seq);
    wal->recovery_.records_applied += replay->applied;
    wal->recovery_.records_skipped += replay->skipped;
    if (is_last) {
      last_valid_bytes = replay->valid_bytes;
      last_was_torn = replay->tail_truncated;
      wal->recovery_.tail_truncated = replay->tail_truncated;
    }
  }
  wal->recovery_.last_seq = last_seq;
  wal->seq_ = last_seq;
  // Everything recovery replayed was read back from disk, so the commit
  // frontier starts at the log head.
  wal->durable_seq_ = last_seq;
  Metrics().replayed->Add(wal->recovery_.records_applied);
  if (wal->recovery_.tail_truncated) Metrics().torn_tails->Increment();

  // 4. Arm the append path: continue the last segment (physically
  // truncating any torn tail) or start a fresh one.
  {
    std::lock_guard<std::mutex> lock(wal->mu_);
    if (segments.empty()) {
      SHAROES_RETURN_IF_ERROR(wal->OpenSegmentLocked(last_seq));
    } else if (last_valid_bytes < kWalSegmentHeaderSize) {
      // The final segment never got its header; rewrite it in place
      // under the base sequence recovery actually reached.
      std::string stale = JoinDir(dir, segments.back().second);
      ::unlink(stale.c_str());
      SHAROES_RETURN_IF_ERROR(wal->OpenSegmentLocked(last_seq));
    } else {
      wal->segment_base_ = segments.back().first;
      wal->segment_path_ = JoinDir(dir, segments.back().second);
      wal->fd_ = ::open(wal->segment_path_.c_str(), O_WRONLY | O_APPEND);
      if (wal->fd_ < 0) {
        return Status::IoError("cannot reopen wal segment '" +
                               wal->segment_path_ + "'");
      }
      if (last_was_torn) {
        if (::ftruncate(wal->fd_, static_cast<off_t>(last_valid_bytes)) !=
            0) {
          return Status::IoError("cannot truncate torn wal tail");
        }
        obs::Log(obs::Severity::kWarn, "wal.torn_tail_truncated",
                 {{"segment", wal->segment_path_},
                  {"valid_bytes", static_cast<uint64_t>(last_valid_bytes)}});
      }
      wal->segment_bytes_ = last_valid_bytes;
    }
  }
  wal->StartBackground();
  return wal;
}

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    stop_ = true;
  }
  bg_cv_.notify_all();
  if (background_.joinable()) background_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    if (dirty_) (void)::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Status Wal::OpenSegmentLocked(uint64_t base_seq) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  segment_path_ = JoinDir(dir_, SegmentName(base_seq));
  fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot create wal segment '" + segment_path_ +
                           "': " + std::strerror(errno));
  }
  Bytes header = EncodeWalSegmentHeader(base_seq);
  SHAROES_RETURN_IF_ERROR(
      WriteAll(fd_, header.data(), header.size(), segment_path_));
  if (opts_.sync == WalSyncPolicy::kAlways) {
    if (::fsync(fd_) != 0) {
      return Status::IoError("cannot sync new wal segment");
    }
    SyncDir(dir_);
  }
  segment_base_ = base_seq;
  segment_bytes_ = header.size();
  dirty_ = opts_.sync != WalSyncPolicy::kAlways;
  return Status::OK();
}

Status Wal::Append(const Request& op, uint64_t* seq_out) {
  if (!IsMutatingOp(op.op)) {
    return Status::InvalidArgument("only mutating ops are logged");
  }
  obs::PhaseScope append_phase(obs::Phase::kWalAppend);
  auto start = std::chrono::steady_clock::now();
  Bytes payload = op.Serialize();
  uint64_t appended_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0) return Status::FailedPrecondition("wal is closed");
    Bytes record = EncodeWalRecord(seq_ + 1, payload);
    SHAROES_RETURN_IF_ERROR(
        WriteAll(fd_, record.data(), record.size(), segment_path_));
    ++seq_;
    if (seq_out != nullptr) *seq_out = seq_;
    segment_bytes_ += record.size();
    appended_bytes = record.size();
    dirty_ = true;
  }
  WalMetrics& m = Metrics();
  m.appends->Increment();
  m.bytes->Add(appended_bytes);
  m.append_us->Record(NowMicros(start));
  if (opts_.compact_threshold_bytes > 0 &&
      segment_bytes() > opts_.compact_threshold_bytes) {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (!compact_requested_) {
      compact_requested_ = true;
      bg_cv_.notify_all();
    }
  }
  return Status::OK();
}

Status Wal::CommitThrough(uint64_t seq) {
  if (opts_.sync != WalSyncPolicy::kAlways) return Status::OK();
  // One phase for the whole durability point: leader fsync and follower
  // wait both read as "waiting for the group commit" in a span.
  obs::PhaseScope fsync_phase(obs::Phase::kFsyncWait);
  std::unique_lock<std::mutex> lock(commit_mu_);
  bool led = false;
  while (durable_seq_ < seq) {
    if (sync_in_flight_) {
      // Follower: a leader's fsync is underway; its frontier was taken
      // after our append iff we appended before its pickup — if not, we
      // re-check and the next round covers us.
      commit_cv_.wait(lock,
                      [this] { return !sync_in_flight_; });
      continue;
    }
    // Leader: optionally linger so concurrent appends join this sync,
    // then fsync once at whatever frontier the log has reached.
    sync_in_flight_ = true;
    led = true;
    lock.unlock();
    if (opts_.group_commit_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(opts_.group_commit_us));
    }
    uint64_t frontier = 0;
    Status synced;
    {
      std::lock_guard<std::mutex> mu_lock(mu_);
      frontier = seq_;
      synced = SyncLocked();
    }
    lock.lock();
    sync_in_flight_ = false;
    if (synced.ok() && frontier > durable_seq_) durable_seq_ = frontier;
    commit_cv_.notify_all();
    if (!synced.ok()) return synced;
  }
  WalMetrics& m = Metrics();
  (led ? m.commit_leads : m.commit_piggybacks)->Increment();
  return Status::OK();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::SyncLocked() {
  if (!dirty_ || fd_ < 0) return Status::OK();
  auto start = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0) {
    return Status::IoError("wal fsync failed: " +
                           std::string(std::strerror(errno)));
  }
  dirty_ = false;
  WalMetrics& m = Metrics();
  m.fsyncs->Increment();
  m.fsync_us->Record(NowMicros(start));
  return Status::OK();
}

Status Wal::Compact() {
  // Phase 1 — the cut. With the gate held exclusively no request is
  // between its Append and its store apply, so every op <= `cut` is
  // fully in the store and every later op lands in the new segment.
  uint64_t cut;
  Bytes store_bytes;
  {
    std::unique_lock<std::shared_mutex> exclusive(gate_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      cut = seq_;
      SHAROES_RETURN_IF_ERROR(SyncLocked());
      SHAROES_RETURN_IF_ERROR(OpenSegmentLocked(cut));
    }
    // Phase 2 — the image, still under the exclusive gate so it is
    // exactly the state at `cut`: replay of the new segment applies each
    // later op exactly once, which keeps per-entry generations identical
    // between the recovered and the live store. (Serving threads block
    // only for the in-memory Serialize; the disk write below happens
    // with serving live.)
    store_bytes = store_->Serialize();
  }
  SHAROES_RETURN_IF_ERROR(WriteSnapshot(cut, store_bytes));

  // Phase 3 — prune. Every record in a segment based below the cut is
  // covered by the image that is now durably in place.
  PruneSegmentsBelow(cut);
  compactions_.fetch_add(1);
  Metrics().compactions->Increment();
  obs::Log(obs::Severity::kInfo, "wal.compacted",
           {{"cut_seq", cut},
            {"snapshot_bytes", static_cast<uint64_t>(store_bytes.size())}});
  return Status::OK();
}

Status Wal::WriteSnapshot(uint64_t covered_seq, const Bytes& store_bytes) {
  BinaryWriter w;
  w.PutU32(kWalSnapshotMagic);
  w.PutU32(kWalVersion);
  w.PutU64(covered_seq);
  w.PutU32(WalCrc32(store_bytes.data(), store_bytes.size()));
  w.PutRaw(store_bytes);
  Bytes image = w.Take();

  std::string tmp = JoinDir(dir_, kSnapshotTmpName);
  std::string final_path = JoinDir(dir_, kSnapshotName);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create '" + tmp + "': " +
                           std::strerror(errno));
  }
  Status s = WriteAll(fd, image.data(), image.size(), tmp);
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::IoError("cannot sync wal snapshot");
  }
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("cannot publish wal snapshot: " +
                           std::string(std::strerror(errno)));
  }
  SyncDir(dir_);
  return Status::OK();
}

void Wal::PruneSegmentsBelow(uint64_t base_seq) {
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;
  std::vector<std::string> victims;
  while (dirent* ent = ::readdir(d)) {
    uint64_t base = 0;
    if (ParseSegmentName(ent->d_name, &base) && base < base_seq) {
      victims.push_back(ent->d_name);
    }
  }
  ::closedir(d);
  for (const std::string& name : victims) {
    ::unlink(JoinDir(dir_, name).c_str());
  }
  if (!victims.empty()) SyncDir(dir_);
}

uint64_t Wal::last_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

uint64_t Wal::durable_sequence() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return durable_seq_;
}

uint64_t Wal::segment_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_bytes_;
}

void Wal::StartBackground() {
  background_ = std::thread([this] { BackgroundLoop(); });
}

void Wal::BackgroundLoop() {
  for (;;) {
    bool do_compact = false;
    {
      std::unique_lock<std::mutex> lock(bg_mu_);
      auto wake = std::chrono::milliseconds(
          opts_.sync == WalSyncPolicy::kInterval
              ? std::max<uint32_t>(opts_.interval_ms, 1)
              : 1000);
      bg_cv_.wait_for(lock, wake,
                      [this] { return stop_ || compact_requested_; });
      if (stop_) return;
      do_compact = compact_requested_;
      compact_requested_ = false;
    }
    if (opts_.sync == WalSyncPolicy::kInterval) {
      Status s = Sync();
      if (!s.ok()) {
        obs::Log(obs::Severity::kError, "wal.interval_sync_failed",
                 {{"detail", s.ToString()}});
      }
    }
    if (do_compact) {
      Status s = Compact();
      if (!s.ok()) {
        obs::Log(obs::Severity::kError, "wal.compaction_failed",
                 {{"detail", s.ToString()}});
      }
    }
  }
}

}  // namespace sharoes::ssp
