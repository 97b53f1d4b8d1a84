// Concurrency tests for the shard-striped ObjectStore: mixed put/get/
// delete from many threads, cross-family traffic, ranged deletes racing
// point writes, stats aggregation and snapshotting under load. Run under
// -DSHAROES_SANITIZE=thread to prove the locking discipline race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "ssp/object_store.h"
#include "testing/stress.h"
#include "util/random.h"

namespace sharoes::ssp {
namespace {

using testing::RunThreads;
using testing::StressThreads;

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 400;

Bytes PayloadFor(int thread, int i) {
  return Bytes{static_cast<uint8_t>(thread), static_cast<uint8_t>(i & 0xFF),
               static_cast<uint8_t>(i >> 8)};
}

TEST(ObjectStoreConcurrencyTest, DisjointKeyWritesAllLand) {
  ObjectStore store;
  StressThreads(kThreads, [&](int t) -> Status {
    for (int i = 0; i < kOpsPerThread; ++i) {
      fs::InodeNum inode = static_cast<fs::InodeNum>(t) * 100000 + i;
      store.Put(ObjectRef::Metadata(inode, 0), PayloadFor(t, i));
      auto got = store.Get(ObjectRef::Metadata(inode, 0));
      if (!got.has_value() || *got != PayloadFor(t, i)) {
        return Status::Internal("metadata readback mismatch");
      }
    }
    return Status::OK();
  });
  StorageStats stats = store.Stats();
  EXPECT_EQ(stats.object_count,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.metadata_bytes,
            static_cast<uint64_t>(kThreads) * kOpsPerThread * 3);
}

TEST(ObjectStoreConcurrencyTest, MixedFamiliesMixedOps) {
  // Every thread hammers all five object families over a small shared key
  // space, so the same shards see concurrent readers, writers, and
  // deleters. Correctness of individual values cannot be asserted (they
  // race by design); the store must stay consistent and TSan-clean.
  ObjectStore store;
  StressThreads(kThreads, [&](int t) -> Status {
    Rng rng(static_cast<uint64_t>(1000 + t));
    for (int i = 0; i < kOpsPerThread; ++i) {
      uint32_t key = static_cast<uint32_t>(rng.NextU64() % 64);
      fs::InodeNum inode = key;
      switch (rng.NextU64() % 10) {
        case 0: store.Put(ObjectRef::Superblock(key), PayloadFor(t, i)); break;
        case 1: (void)store.Get(ObjectRef::Superblock(key)); break;
        case 2:
          store.Put(ObjectRef::Metadata(inode, key % 4), PayloadFor(t, i));
          break;
        case 3: (void)store.Get(ObjectRef::Metadata(inode, key % 4)); break;
        case 4:
          store.Put(ObjectRef::UserMetadata(inode, key), PayloadFor(t, i));
          break;
        case 5:
          store.Put(ObjectRef::Data(inode, key % 8), PayloadFor(t, i));
          break;
        case 6: (void)store.Get(ObjectRef::Data(inode, key % 8)); break;
        case 7:
          store.Put(ObjectRef::GroupKey(key, key + 1), PayloadFor(t, i));
          break;
        case 8: store.Delete(ObjectRef::Metadata(inode, key % 4)); break;
        case 9: store.Delete(ObjectRef::Superblock(key)); break;
      }
    }
    return Status::OK();
  });
  // Stats must be internally consistent after the dust settles: re-derive
  // byte totals by walking every surviving key.
  StorageStats stats = store.Stats();
  uint64_t rederived = 0, count = 0;
  for (uint32_t key = 0; key < 64; ++key) {
    fs::InodeNum inode = key;
    if (auto b = store.Get(ObjectRef::Superblock(key))) {
      rederived += b->size();
      ++count;
    }
    for (uint64_t sel = 0; sel < 4; ++sel) {
      if (auto b = store.Get(ObjectRef::Metadata(inode, sel))) {
        rederived += b->size();
        ++count;
      }
    }
    if (auto b = store.Get(ObjectRef::UserMetadata(inode, key))) {
      rederived += b->size();
      ++count;
    }
    for (uint32_t blk = 0; blk < 8; ++blk) {
      if (auto b = store.Get(ObjectRef::Data(inode, blk))) {
        rederived += b->size();
        ++count;
      }
    }
    if (auto b = store.Get(ObjectRef::GroupKey(key, key + 1))) {
      rederived += b->size();
      ++count;
    }
  }
  EXPECT_EQ(stats.total_bytes(), rederived);
  EXPECT_EQ(stats.object_count, count);
}

TEST(ObjectStoreConcurrencyTest, RangedDeleteRacesPointWrites) {
  // Half the threads blast per-inode replicas/blocks, half issue the
  // ranged DeleteInodeMetadata/DeleteInodeData over the same inodes.
  ObjectStore store;
  constexpr fs::InodeNum kInodes = 16;
  StressThreads(kThreads, [&](int t) -> Status {
    for (int i = 0; i < kOpsPerThread; ++i) {
      fs::InodeNum inode = static_cast<fs::InodeNum>(i) % kInodes;
      if (t % 2 == 0) {
        store.Put(ObjectRef::Metadata(inode, static_cast<Selector>(t)),
                  PayloadFor(t, i));
        store.Put(ObjectRef::Data(inode, static_cast<uint32_t>(t)),
                  PayloadFor(t, i));
        (void)store.Get(ObjectRef::Metadata(inode, 0));
      } else {
        store.DeleteInode(ObjectFamily::kMetadata, inode);
        store.DeleteInode(ObjectFamily::kData, inode);
      }
    }
    return Status::OK();
  });
  // Quiesced: replica counts and stats agree.
  uint64_t replicas = 0;
  for (const ObjectVersion& v : store.ListVersions()) {
    replicas += v.ref.family == ObjectFamily::kMetadata && !v.tombstone;
  }
  StorageStats stats = store.Stats();
  EXPECT_EQ(stats.metadata_bytes, replicas * 3);
}

TEST(ObjectStoreConcurrencyTest, SnapshotWhileWriting) {
  // Serialize() and Stats() run concurrently with writers; each must see
  // a per-shard-consistent view and produce a loadable snapshot.
  ObjectStore store;
  std::atomic<bool> done{false};
  StressThreads(kThreads, [&](int t) -> Status {
    if (t == 0) {
      // Snapshot thread.
      while (!done.load()) {
        Bytes snap = store.Serialize();
        auto back = ObjectStore::Deserialize(snap);
        if (!back.ok()) return back.status();
        StorageStats reloaded = back->Stats();
        StorageStats direct = store.Stats();
        (void)reloaded;
        (void)direct;
      }
      return Status::OK();
    }
    for (int i = 0; i < kOpsPerThread; ++i) {
      fs::InodeNum inode = static_cast<fs::InodeNum>(t) * 1000 + i;
      store.Put(ObjectRef::Data(inode, 0), PayloadFor(t, i));
      store.Put(ObjectRef::Metadata(inode, 1), PayloadFor(t, i));
    }
    if (t == 1) done.store(true);  // Writers finishing ends the snapshots.
    return Status::OK();
  });
  // Final snapshot round-trips exactly.
  auto back = ObjectStore::Deserialize(store.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Stats().object_count, store.Stats().object_count);
  EXPECT_EQ(back->Serialize(), store.Serialize());
}

TEST(ObjectStoreConcurrencyTest, FaultInjectionRacesReaders) {
  // The "malicious SSP" mutators take exclusive shard locks; readers must
  // see either the original or corrupted byte, never torn state.
  ObjectStore store;
  constexpr fs::InodeNum kInode = 7;
  store.Put(ObjectRef::Data(kInode, 0), Bytes(64, 0xAA));
  store.Put(ObjectRef::Metadata(kInode, 0), Bytes(64, 0xBB));
  StressThreads(kThreads, [&](int t) -> Status {
    for (int i = 0; i < kOpsPerThread; ++i) {
      if (t % 2 == 0) {
        store.Corrupt(ObjectRef::Data(kInode, 0), static_cast<size_t>(i));
        store.Corrupt(ObjectRef::Metadata(kInode, 0), static_cast<size_t>(i));
      } else {
        auto d = store.Get(ObjectRef::Data(kInode, 0));
        if (!d.has_value() || d->size() != 64) {
          return Status::Internal("torn data read");
        }
        auto m = store.Get(ObjectRef::Metadata(kInode, 0));
        if (!m.has_value() || m->size() != 64) {
          return Status::Internal("torn metadata read");
        }
      }
    }
    return Status::OK();
  });
}

TEST(ObjectStoreConcurrencyTest, ReplaceDataKeepsStatsConsistent) {
  ObjectStore store;
  constexpr fs::InodeNum kInode = 3;
  store.Put(ObjectRef::Data(kInode, 0), Bytes(10, 1));
  StressThreads(kThreads, [&](int t) -> Status {
    for (int i = 0; i < kOpsPerThread; ++i) {
      // Replacement blobs of varying size exercise the byte accounting.
      size_t size = 1 + static_cast<size_t>((t * kOpsPerThread + i) % 100);
      if (!store.Replace(ObjectRef::Data(kInode, 0), Bytes(size, 2))) {
        return Status::Internal("block vanished during replace");
      }
      if (!store.Get(ObjectRef::Data(kInode, 0)).has_value()) {
        return Status::Internal("block unreadable during replace");
      }
    }
    return Status::OK();
  });
  auto final_blob = store.Get(ObjectRef::Data(kInode, 0));
  ASSERT_TRUE(final_blob.has_value());
  EXPECT_EQ(store.Stats().data_bytes, final_blob->size());
  EXPECT_EQ(store.Stats().object_count, 1u);
}

TEST(ObjectStoreConcurrencyTest, SingleShardStoreIsStillSafe) {
  // The single-lock baseline configuration must be just as correct.
  ObjectStore store(/*num_shards=*/1);
  EXPECT_EQ(store.shard_count(), 1u);
  StressThreads(kThreads, [&](int t) -> Status {
    for (int i = 0; i < kOpsPerThread; ++i) {
      fs::InodeNum inode = static_cast<fs::InodeNum>(t) * 100000 + i;
      store.Put(ObjectRef::Data(inode, 0), PayloadFor(t, i));
      if (!store.Get(ObjectRef::Data(inode, 0)).has_value()) {
        return Status::Internal("single-shard readback failed");
      }
    }
    return Status::OK();
  });
  EXPECT_EQ(store.Stats().object_count,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

}  // namespace
}  // namespace sharoes::ssp
