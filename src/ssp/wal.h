// Durability for the SSP object store: a length-prefixed, CRC-framed
// write-ahead log plus snapshot compaction (DESIGN.md §10).
//
// The paper's SSP is "trusted to store and serve bytes" (§IV), which
// makes losing acknowledged writes a contract violation, not a
// degradation. The WAL closes that hole: every mutating op is framed and
// appended *before* the server acknowledges it, and startup recovery is
// snapshot-load + log-replay. The log stores serialized ssp::Request
// frames — the exact bytes the wire protocol already fuzzes — and replay
// applies them through the same code path the live server uses, so a
// replayed store is byte-identical (ObjectStore::Serialize) to one that
// never crashed.
//
// On-disk layout under the WAL directory:
//   snapshot             compacted store image (covers seqs <= its header)
//   wal-<base_seq>.log   append-only segments; records carry base_seq+1..
//   snapshot.tmp         in-flight compaction image (deleted at recovery)
//
// Torn-tail rule (crash-consistency contract): a record that runs past
// end-of-file, a partial header, or a bad CRC on the *final* record are
// all consistent with a torn append and are truncated silently. A bad
// CRC (or any structural violation) with valid bytes *after* it cannot
// be a torn append and is reported as Status::Corruption — recovery
// refuses to guess which half of a log to believe.

#ifndef SHAROES_SSP_WAL_H_
#define SHAROES_SSP_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>

#include "ssp/message.h"
#include "ssp/object_store.h"
#include "util/bytes.h"
#include "util/result.h"

namespace sharoes::ssp {

/// When an appended record becomes durable relative to its ack.
enum class WalSyncPolicy : uint8_t {
  kAlways,    // fsync before every acknowledgement; loses nothing.
  kInterval,  // background fsync every interval_ms; bounded loss window.
  kOff,       // never fsync; the OS flushes when it pleases.
};

const char* WalSyncPolicyName(WalSyncPolicy policy);
/// Parses "always" / "interval" / "off"; false on anything else.
bool ParseWalSyncPolicy(std::string_view text, WalSyncPolicy* out);

struct WalOptions {
  WalSyncPolicy sync = WalSyncPolicy::kAlways;
  /// Flush cadence for kInterval (ignored otherwise).
  uint32_t interval_ms = 50;
  /// Segment size that triggers background compaction; 0 disables the
  /// automatic trigger (Compact() can still be called explicitly).
  uint64_t compact_threshold_bytes = 64ull << 20;
  /// Group-commit window for kAlways: the commit leader waits this long
  /// before issuing the shared fsync so concurrent requests can pile
  /// their appends into it. 0 keeps pure piggybacking (followers share
  /// whatever sync is already in flight, the leader never dawdles).
  uint32_t group_commit_us = 0;
};

/// What startup recovery found (surfaced by the daemon's banner and the
/// recovery tests).
struct WalRecoveryInfo {
  bool had_snapshot = false;
  uint64_t snapshot_seq = 0;   // Highest seq the snapshot covers.
  uint64_t last_seq = 0;       // Highest seq recovered overall.
  uint64_t records_applied = 0;  // Log records replayed into the store.
  uint64_t records_skipped = 0;  // Valid records already in the snapshot.
  bool tail_truncated = false;   // A torn tail was cut from the last segment.
};

// --- Byte-level framing (exposed for the replay fuzz corpus) ----------

inline constexpr uint32_t kWalMagic = 0x314C5753;      // "SWL1".
inline constexpr uint32_t kWalSnapshotMagic = 0x314E5353;  // "SSN1".
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalSegmentHeaderSize = 16;  // magic+version+base.
inline constexpr size_t kWalRecordHeaderSize = 8;    // len + crc.
/// Upper bound on one record's framed body (seq + payload). A request
/// payload can never exceed the wire frame cap, so anything larger is a
/// length-field lie, not a big record.
inline constexpr uint32_t kMaxWalRecordLen = (64u << 20) + 64;

/// CRC-32 (IEEE 802.3, reflected) over `len` bytes. The WAL's record
/// checksum; exposed so tests can frame hostile records byte-for-byte.
uint32_t WalCrc32(const uint8_t* data, size_t len);

/// `magic | version | base_seq` — the first 16 bytes of a segment.
Bytes EncodeWalSegmentHeader(uint64_t base_seq);
/// `len | crc | seq | payload` with crc over (seq | payload).
Bytes EncodeWalRecord(uint64_t seq, const Bytes& payload);

/// True iff the opcode mutates the store (and therefore must be logged).
/// Declared in message.h as IsMutatingOp; re-exported here for locality.

/// Applies one logged op to the store. Returns Corruption for ops that
/// have no business in a log (reads, batch wrappers, stats).
Status ApplyWalOp(const Request& op, ObjectStore* store);

/// Outcome of replaying one segment's bytes.
struct WalSegmentReplay {
  uint64_t base_seq = 0;      // From the segment header.
  uint64_t last_seq = 0;      // base_seq + number of valid records.
  uint64_t applied = 0;       // Records applied (seq > applied_through).
  uint64_t skipped = 0;       // Valid records at or below applied_through.
  size_t valid_bytes = 0;     // Byte length of the valid prefix.
  bool tail_truncated = false;
};

/// Replays one serialized segment (header + records) into `store`.
/// Records with seq <= `applied_through` are validated but not applied
/// (their effects are already in the snapshot). With `allow_torn_tail`
/// (the final segment), a torn tail truncates at `valid_bytes`; without
/// it any violation is Corruption. Never applies a record whose CRC,
/// sequence, or payload fails validation; on a mid-log Corruption return
/// the store may hold the valid prefix (callers discard it).
Result<WalSegmentReplay> ReplayWalSegment(const Bytes& bytes,
                                          uint64_t applied_through,
                                          bool allow_torn_tail,
                                          ObjectStore* store);

/// The live log. Open() performs full recovery into `store` (snapshot
/// load + chained segment replay + torn-tail truncation), then arms the
/// append path and the background sync/compaction thread.
///
/// Thread safety: Append/CommitThrough/Sync/Compact are safe from any
/// number of threads. Serving threads must bracket each top-level request
/// in an OpGuard (see SspServer::Handle) — compaction uses the guard's
/// exclusive side to pick a cut sequence with no op half-applied.
class Wal {
 public:
  /// Recovers `dir` into `store` (which must be freshly constructed) and
  /// opens the log for appending. `store` must outlive the Wal.
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir,
                                           const WalOptions& options,
                                           ObjectStore* store);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Shared-side bracket around one top-level request (append + store
  /// apply). Compaction's cut takes the exclusive side, so a cut seq S
  /// implies every op <= S is fully applied to the store.
  class OpGuard {
   public:
    explicit OpGuard(std::shared_mutex& gate) : lock_(gate) {}

   private:
    std::shared_lock<std::shared_mutex> lock_;
  };
  OpGuard StartOp() { return OpGuard(gate_); }

  /// Assigns the next sequence number and appends one framed mutating
  /// op. Durability is governed by the sync policy — callers ack only
  /// after CommitThrough(seq) returns. `seq_out` (optional) receives the
  /// assigned sequence, the token a caller hands to CommitThrough.
  Status Append(const Request& op, uint64_t* seq_out = nullptr);

  /// The per-request durability point under kAlways: returns once every
  /// record up to `seq` is fsynced. Concurrent callers share one fsync
  /// via a leader/follower commit queue — the first uncovered caller
  /// becomes leader, optionally waits `group_commit_us` for more appends
  /// to pile in, and issues a single fsync whose frontier covers every
  /// follower that appended before it; followers just wait. This is how
  /// `ssp.wal.fsyncs` grows sublinearly in acked ops while
  /// acked-implies-durable holds verbatim. No-op under kInterval / kOff
  /// (their loss windows are unchanged).
  Status CommitThrough(uint64_t seq);

  /// Unconditional fsync of the current segment.
  Status Sync();

  /// Snapshot + rotate + prune: serializes the store (covering every op
  /// up to a cut sequence chosen with no op in flight), writes it
  /// atomically (tmp + rename), then deletes fully-covered segments.
  /// Serving continues during the snapshot write; only the cut itself
  /// briefly excludes appends.
  Status Compact();

  uint64_t last_sequence() const;
  /// Highest sequence CommitThrough has proven durable (kAlways).
  uint64_t durable_sequence() const;
  uint64_t segment_bytes() const;
  uint64_t compactions() const { return compactions_.load(); }
  const WalRecoveryInfo& recovery() const { return recovery_; }
  const WalOptions& options() const { return opts_; }
  const std::string& dir() const { return dir_; }

 private:
  Wal(std::string dir, const WalOptions& options, ObjectStore* store)
      : dir_(std::move(dir)), opts_(options), store_(store) {}

  Status OpenSegmentLocked(uint64_t base_seq);
  Status SyncLocked();
  Status WriteSnapshot(uint64_t covered_seq, const Bytes& store_bytes);
  void PruneSegmentsBelow(uint64_t base_seq);
  void BackgroundLoop();
  void StartBackground();

  const std::string dir_;
  const WalOptions opts_;
  ObjectStore* const store_;  // Not owned.
  WalRecoveryInfo recovery_;

  // Lock order: gate_ before mu_. gate_ is taken shared by serving
  // threads (OpGuard) and exclusive by Compact's cut; mu_ guards the
  // segment fd, sequence counter, and byte accounting.
  std::shared_mutex gate_;
  mutable std::mutex mu_;
  int fd_ = -1;
  std::string segment_path_;
  uint64_t segment_base_ = 0;
  uint64_t seq_ = 0;
  uint64_t segment_bytes_ = 0;
  bool dirty_ = false;  // Unsynced appended bytes exist.

  // Group-commit state (kAlways only). commit_mu_ is never held
  // together with mu_: the leader marks sync_in_flight_, drops
  // commit_mu_, takes mu_ for the shared fsync, then re-takes
  // commit_mu_ to publish the durable frontier.
  mutable std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  uint64_t durable_seq_ = 0;     // Every record <= this is fsynced.
  bool sync_in_flight_ = false;  // A leader is between pickup and publish.

  std::atomic<uint64_t> compactions_{0};

  // Background sync (kInterval) + size-triggered compaction.
  std::thread background_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool stop_ = false;
  bool compact_requested_ = false;
};

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_WAL_H_
