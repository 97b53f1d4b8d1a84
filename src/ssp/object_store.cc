#include "ssp/object_store.h"

#include <iterator>
#include <mutex>
#include <utility>

#include "obs/span.h"

namespace sharoes::ssp {

namespace {

// splitmix64 finalizer: cheap, well-distributed shard partitioning even
// for sequential inode / user ids.
uint64_t MixKey(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Shard lock helpers: time blocked acquiring the shard lock is charged
// to the kLockWait span phase (no-op without an active timeline); time
// spent *holding* it accrues to the enclosing phase, normally kStore.
// The PhaseScope outlives the return-value construction, so the scope
// brackets exactly the mutex acquisition.
std::unique_lock<std::shared_mutex> AcquireUnique(std::shared_mutex& mu) {
  obs::PhaseScope wait(obs::Phase::kLockWait);
  return std::unique_lock<std::shared_mutex>(mu);
}

std::shared_lock<std::shared_mutex> AcquireShared(std::shared_mutex& mu) {
  obs::PhaseScope wait(obs::Phase::kLockWait);
  return std::shared_lock<std::shared_mutex>(mu);
}

// Live-byte counter of each family's StorageStats field.
constexpr uint64_t StorageStats::*kFamilyBytes[kNumObjectFamilies] = {
    &StorageStats::superblock_bytes, &StorageStats::metadata_bytes,
    &StorageStats::user_metadata_bytes, &StorageStats::data_bytes,
    &StorageStats::group_key_bytes};

uint64_t& FamilyBytes(StorageStats& st, ObjectFamily family) {
  return st.*kFamilyBytes[static_cast<size_t>(family)];
}

// Turns a live entry into a tombstone, keeping the accounting. The
// caller sets the generation.
void Bury(ObjectStore::Versioned& e, uint64_t& family_bytes,
          StorageStats& st) {
  family_bytes -= e.blob.size();
  --st.object_count;
  ++st.tombstone_count;
  e.blob = Bytes();
  e.tombstone = true;
}

}  // namespace

ObjectStore::ObjectStore(size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ObjectStore::Shard& ObjectStore::ShardFor(const ObjectRef& ref) const {
  return *shards_[MixKey(ref.k1) % shards_.size()];
}

bool ObjectStore::Put(const ObjectRef& ref, Bytes blob, uint64_t gen) {
  // Applies at `gen` (0 = bump the local generation). Returns false only
  // on a gen-gated loss: the local entry is newer, or is a tombstone at
  // the same generation (ties go to the tombstone — the property that
  // keeps repair from resurrecting a freshly-deleted key).
  Shard& s = ShardFor(ref);
  auto lock = AcquireUnique(s.mu);
  uint64_t& family_bytes = FamilyBytes(s.stats, ref.family);
  auto [it, inserted] = s.entries.try_emplace(ref);
  Entry& e = it->second;
  uint64_t new_gen;
  if (inserted) {
    new_gen = (gen == 0) ? 1 : gen;
    ++s.stats.object_count;
  } else {
    if (gen == 0) {
      // A local-bump put that changes nothing is a no-op: replaying an
      // already-applied op (client retry, WAL replay) must leave the
      // store — generations included — byte-identical.
      if (!e.tombstone && e.blob == blob) return true;
      new_gen = e.gen + 1;
    } else {
      bool wins = e.tombstone ? (gen > e.gen) : (gen >= e.gen);
      if (!wins) return false;
      new_gen = gen;
    }
    if (e.tombstone) {
      --s.stats.tombstone_count;
      ++s.stats.object_count;
    } else {
      family_bytes -= e.blob.size();
    }
  }
  family_bytes += blob.size();
  e.blob = std::move(blob);
  e.gen = new_gen;
  e.tombstone = false;
  return true;
}

bool ObjectStore::Delete(const ObjectRef& ref, uint64_t gen) {
  // Applies at `gen` (0 = bump). With tombstones off this is the classic
  // erase; with them on, the entry becomes (or stays) a tombstone
  // carrying the winning generation. Returns false only on a gen-gated
  // loss (the local entry is strictly newer — a delete wins its tie, the
  // mirror of Put).
  Shard& s = ShardFor(ref);
  auto lock = AcquireUnique(s.mu);
  uint64_t& family_bytes = FamilyBytes(s.stats, ref.family);
  auto it = s.entries.find(ref);
  if (it == s.entries.end()) {
    if (tombstones_enabled_) {
      // Deleting an absent key still records the death: a gen-gated
      // repair delete must land even on a replica that never saw the
      // value, or the scrubber could not converge the quorum.
      s.entries.emplace(ref, Entry{Bytes(), (gen == 0) ? 1 : gen, true});
      ++s.stats.tombstone_count;
    }
    return true;
  }
  Entry& e = it->second;
  if (gen != 0 && gen < e.gen) return false;
  if (!tombstones_enabled_) {
    if (e.tombstone) {
      --s.stats.tombstone_count;
    } else {
      family_bytes -= e.blob.size();
      --s.stats.object_count;
    }
    s.entries.erase(it);
    return true;
  }
  uint64_t new_gen = (gen == 0) ? (e.tombstone ? e.gen : e.gen + 1) : gen;
  if (!e.tombstone) Bury(e, family_bytes, s.stats);
  e.gen = new_gen;
  return true;
}

std::optional<Bytes> ObjectStore::Get(const ObjectRef& ref) const {
  Shard& s = ShardFor(ref);
  auto lock = AcquireShared(s.mu);
  auto it = s.entries.find(ref);
  if (it == s.entries.end() || it->second.tombstone) return std::nullopt;
  return it->second.blob;
}

std::optional<ObjectStore::Versioned> ObjectStore::GetVersioned(
    const ObjectRef& ref) const {
  Shard& s = ShardFor(ref);
  auto lock = AcquireShared(s.mu);
  auto it = s.entries.find(ref);
  if (it == s.entries.end()) return std::nullopt;
  return it->second;
}

void ObjectStore::DeleteInode(ObjectFamily family, fs::InodeNum inode) {
  const ObjectRef first{family, inode, 0};
  Shard& s = ShardFor(first);
  auto lock = AcquireUnique(s.mu);
  uint64_t& family_bytes = FamilyBytes(s.stats, family);
  auto it = s.entries.lower_bound(first);
  while (it != s.entries.end() && it->first.family == family &&
         it->first.k1 == inode) {
    Entry& e = it->second;
    if (tombstones_enabled_) {
      // Existing tombstones are left untouched.
      if (!e.tombstone) {
        Bury(e, family_bytes, s.stats);
        ++e.gen;
      }
      ++it;
    } else {
      family_bytes -= e.blob.size();
      --s.stats.object_count;
      it = s.entries.erase(it);
    }
  }
}

std::vector<ObjectVersion> ObjectStore::ListVersions() const {
  std::vector<ObjectVersion> out;
  for (const auto& shard : shards_) {
    auto lock = AcquireShared(shard->mu);
    for (const auto& [ref, e] : shard->entries) {
      out.push_back({ref, e.gen, e.tombstone});
    }
  }
  return out;
}

bool ObjectStore::RemoveTombstone(const ObjectRef& ref, uint64_t gen) {
  Shard& s = ShardFor(ref);
  auto lock = AcquireUnique(s.mu);
  auto it = s.entries.find(ref);
  if (it == s.entries.end() || !it->second.tombstone ||
      it->second.gen != gen) {
    return false;
  }
  --s.stats.tombstone_count;
  s.entries.erase(it);
  return true;
}

StorageStats ObjectStore::Stats() const {
  StorageStats total;
  for (const auto& shard : shards_) {
    auto lock = AcquireShared(shard->mu);
    const StorageStats& s = shard->stats;
    total.superblock_bytes += s.superblock_bytes;
    total.metadata_bytes += s.metadata_bytes;
    total.user_metadata_bytes += s.user_metadata_bytes;
    total.data_bytes += s.data_bytes;
    total.group_key_bytes += s.group_key_bytes;
    total.object_count += s.object_count;
    total.tombstone_count += s.tombstone_count;
  }
  return total;
}

namespace {

// An "SSP2" snapshot lays the families out in ObjectFamily order, each
// as a u32 entry count followed by its entries in key order; a
// superblock's key is its u32 user, every other family's key is
// (u64 k1, u64 k2). Each entry carries a u64 generation and a u8
// tombstone flag, so tombstones and version history survive a daemon
// restart / WAL compaction.
constexpr uint32_t kStoreMagicV2 = 0x53535032;  // "SSP2".

}  // namespace

Bytes ObjectStore::Serialize() const {
  std::map<ObjectRef, Entry> all;
  for (const auto& shard : shards_) {
    auto lock = AcquireShared(shard->mu);
    all.insert(shard->entries.begin(), shard->entries.end());
  }

  BinaryWriter w;
  w.PutU32(kStoreMagicV2);
  auto it = all.begin();
  for (size_t f = 0; f < kNumObjectFamilies; ++f) {
    const auto family = static_cast<ObjectFamily>(f);
    auto end = it;
    while (end != all.end() && end->first.family == family) ++end;
    w.PutU32(static_cast<uint32_t>(std::distance(it, end)));
    for (; it != end; ++it) {
      const auto& [ref, e] = *it;
      if (family == ObjectFamily::kSuperblock) {
        w.PutU32(static_cast<uint32_t>(ref.k1));
      } else {
        w.PutU64(ref.k1);
        w.PutU64(ref.k2);
      }
      w.PutU64(e.gen);
      w.PutU8(e.tombstone ? 1 : 0);
      w.PutBytes(e.blob);
    }
  }
  return w.Take();
}

void ObjectStore::RestoreEntry(const ObjectRef& ref, Entry e) {
  Shard& s = ShardFor(ref);
  auto lock = AcquireUnique(s.mu);
  if (e.tombstone) {
    ++s.stats.tombstone_count;
  } else {
    ++s.stats.object_count;
    FamilyBytes(s.stats, ref.family) += e.blob.size();
  }
  s.entries[ref] = std::move(e);
}

Result<ObjectStore> ObjectStore::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  if (r.GetU32() != kStoreMagicV2) {
    return Status::Corruption("not an SSP store snapshot");
  }
  ObjectStore store;
  for (size_t f = 0; f < kNumObjectFamilies; ++f) {
    const auto family = static_cast<ObjectFamily>(f);
    uint32_t n = r.GetU32();
    if (!r.ok() || n > r.remaining()) {
      return Status::Corruption("truncated store snapshot");
    }
    for (uint32_t i = 0; i < n; ++i) {
      ObjectRef ref{family, 0, 0};
      if (family == ObjectFamily::kSuperblock) {
        ref.k1 = r.GetU32();
      } else {
        ref.k1 = r.GetU64();
        ref.k2 = r.GetU64();
      }
      Entry e;
      e.gen = r.GetU64();
      e.tombstone = r.GetU8() != 0;
      e.blob = r.GetBytes();
      // Narrow the keys to the family's Request field widths.
      store.RestoreEntry(*RefOf(Request::Get(ref)), std::move(e));
    }
  }
  SHAROES_RETURN_IF_ERROR(r.Finish("store snapshot"));
  return store;
}

bool ObjectStore::Corrupt(const ObjectRef& ref, size_t offset,
                          uint8_t mask) {
  Shard& s = ShardFor(ref);
  auto lock = AcquireUnique(s.mu);
  auto it = s.entries.find(ref);
  if (it == s.entries.end() || it->second.blob.empty()) return false;
  it->second.blob[offset % it->second.blob.size()] ^= mask;
  return true;
}

bool ObjectStore::Replace(const ObjectRef& ref, Bytes blob) {
  Shard& s = ShardFor(ref);
  auto lock = AcquireUnique(s.mu);
  auto it = s.entries.find(ref);
  if (it == s.entries.end() || it->second.tombstone) return false;
  uint64_t& family_bytes = FamilyBytes(s.stats, ref.family);
  family_bytes -= it->second.blob.size();
  family_bytes += blob.size();
  it->second.blob = std::move(blob);
  return true;
}

}  // namespace sharoes::ssp
