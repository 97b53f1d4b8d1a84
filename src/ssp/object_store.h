// The SSP's storage: one table of opaque encrypted blobs keyed by ObjectRef
// ("it simply maintains a large hashtable for encrypted metadata objects
// and encrypted data blocks", paper §IV). Includes fault injection used
// by the integrity tests and storage accounting used by the Scheme-1 /
// Scheme-2 cost ablation.
//
// Versioning: every entry carries a monotone per-key generation, bumped
// on each put or delete of that key. In cluster mode (tombstones
// enabled) a delete does not erase — it leaves a versioned tombstone, so
// a replica that was down through the delete can later be told, with a
// comparable generation, that the key is dead (DESIGN.md §16). Gen-gated
// variants of put/delete exist for read repair and the anti-entropy
// scrubber: they apply only if the explicit generation wins against the
// local entry (ties go to the tombstone), which is what makes repair
// convergent and resurrection-free. Single-daemon deployments leave
// tombstones disabled and get the classic erase semantics.
//
// Thread safety: the store is shard-striped. Keys are hash-partitioned
// over N shards (default 16), each guarded by its own std::shared_mutex;
// reads take shared locks, writes exclusive locks, and storage accounting
// lives in per-shard counters aggregated on Stats(). Each shard is one
// map keyed by ObjectRef, partitioned by the ref's k1 — the inode for the
// inode-scoped families — so the inode-ranged DeleteInode stays
// single-shard. No operation ever holds more
// than one shard lock, so there is no lock-order concern (see DESIGN.md
// §7).

#ifndef SHAROES_SSP_OBJECT_STORE_H_
#define SHAROES_SSP_OBJECT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "fs/types.h"
#include "ssp/message.h"
#include "util/binary_io.h"
#include "util/bytes.h"
#include "util/result.h"

namespace sharoes::ssp {

/// Storage accounting by object family. Byte counters cover live blobs
/// only; tombstones (empty blobs by construction) are counted separately
/// so GC progress is observable.
struct StorageStats {
  uint64_t superblock_bytes = 0;
  uint64_t metadata_bytes = 0;
  uint64_t user_metadata_bytes = 0;
  uint64_t data_bytes = 0;
  uint64_t group_key_bytes = 0;
  uint64_t object_count = 0;
  uint64_t tombstone_count = 0;

  uint64_t total_bytes() const {
    return superblock_bytes + metadata_bytes + user_metadata_bytes +
           data_bytes + group_key_bytes;
  }
};

/// One entry as seen by the scrubber's enumeration.
struct ObjectVersion {
  ObjectRef ref;
  uint64_t gen = 0;
  bool tombstone = false;
};

/// Pure key-value storage; no knowledge of plaintext structure.
/// Safe for concurrent use from any number of threads.
class ObjectStore {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// A versioned read result: live blob or tombstone, plus generation.
  struct Versioned {
    Bytes blob;  // Empty for tombstones.
    uint64_t gen = 0;
    bool tombstone = false;
  };

  /// `num_shards` == 1 degrades to a single global lock (the baseline
  /// measured by bench_concurrent_ssp).
  explicit ObjectStore(size_t num_shards = kDefaultShards);

  // Movable (needed by Result<ObjectStore>); not copyable. Moving is only
  // safe while no other thread is using either store.
  ObjectStore(ObjectStore&&) noexcept = default;
  ObjectStore& operator=(ObjectStore&&) noexcept = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Cluster mode switch: deletes leave versioned tombstones instead of
  /// erasing. Flip before the store starts serving (plain bool, not
  /// atomic: it is configuration, set once at daemon startup / test
  /// setup, never mid-traffic).
  void set_tombstones_enabled(bool on) { tombstones_enabled_ = on; }
  bool tombstones_enabled() const { return tombstones_enabled_; }

  // Puts and deletes take an optional explicit generation: gen == 0
  // means "bump the local generation", the normal client path. gen != 0
  // is the repair/scrub path: apply *at* that generation iff it beats
  // the local entry (put loses to a tombstone at the same gen; delete
  // wins the tie). The bool return says whether the op applied;
  // ordinary callers ignore it.
  bool Put(const ObjectRef& ref, Bytes blob, uint64_t gen = 0);
  bool Delete(const ObjectRef& ref, uint64_t gen = 0);
  /// Live blob, or nullopt if absent or a tombstone.
  std::optional<Bytes> Get(const ObjectRef& ref) const;
  /// The entry (tombstones included, with their generation), or nullopt
  /// if the key is absent entirely: the wire's want_version path and the
  /// scrubber.
  std::optional<Versioned> GetVersioned(const ObjectRef& ref) const;

  /// Ranged delete of every `family` object under `inode` (metadata
  /// replicas or data blocks). With tombstones on, each live entry
  /// becomes a tombstone at its own bumped generation; keys this node
  /// never stored get none — quorum intersection covers them: any
  /// quorum-acked write of a missing key shares at least one node with
  /// this delete's quorum (DESIGN.md §16).
  void DeleteInode(ObjectFamily family, fs::InodeNum inode);

  /// Every entry in the store, tombstones included, with generations.
  /// Snapshot-consistent per shard, not across shards — exactly what the
  /// scrubber needs for an anti-entropy pass (it re-checks each key
  /// against live replicas anyway).
  std::vector<ObjectVersion> ListVersions() const;

  /// Tombstone GC: removes the entry iff it is still a tombstone at
  /// exactly `gen` (a concurrent re-create or newer delete aborts the
  /// purge). Returns whether it was removed. Deliberately NOT WAL-logged
  /// by callers: replay may resurrect a purged tombstone, which is
  /// harmless — the next full-quorum scrub pass re-collects it.
  bool RemoveTombstone(const ObjectRef& ref, uint64_t gen);

  /// Aggregates the per-shard counters (shared-locking one shard at a
  /// time, so the result is a consistent per-shard but not cross-shard
  /// snapshot — fine for accounting).
  StorageStats Stats() const;

  size_t shard_count() const { return shards_.size(); }

  /// Whole-store snapshot/restore (the image inside the WAL's compacted
  /// snapshot). The store only ever holds ciphertext, so the snapshot is
  /// as opaque to its holder as the live store is to the SSP. The
  /// snapshot is byte-deterministic (globally key-sorted) regardless of
  /// shard count, and carries per-entry generations and tombstones.
  Bytes Serialize() const;
  static Result<ObjectStore> Deserialize(const Bytes& data);

  // --- Fault injection (the "malicious SSP" of the threat model) ---
  /// XORs `mask` into one byte (offset modulo size) of a stored blob.
  /// Returns false if absent or empty.
  bool Corrupt(const ObjectRef& ref, size_t offset, uint8_t mask = 0xFF);
  /// Replaces a live blob wholesale, generation untouched (rollback /
  /// substitution attack). Returns false if absent or a tombstone.
  bool Replace(const ObjectRef& ref, Bytes blob);

 private:
  /// One stored value is exactly what a versioned read returns.
  /// Tombstones keep an empty blob so the byte accounting needs no
  /// special cases.
  using Entry = Versioned;

  // One stripe of the store. The map and the accounting counters are
  // guarded by `mu` (no atomics needed).
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<ObjectRef, Entry> entries;
    StorageStats stats;
  };

  /// Every family partitions by k1, so an inode's objects share a shard.
  Shard& ShardFor(const ObjectRef& ref) const;
  /// Snapshot restore: inserts an entry with its exact generation and
  /// liveness (no bump, no gating).
  void RestoreEntry(const ObjectRef& ref, Entry e);

  std::vector<std::unique_ptr<Shard>> shards_;
  bool tombstones_enabled_ = false;
};

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_OBJECT_STORE_H_
