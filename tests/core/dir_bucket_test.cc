// Directory tables in hashed buckets (DESIGN.md §18): a create or unlink
// rewrites one bucket per copy that has rows, a reader whose cached head
// predates a resize re-fetches it, a damaged table is Corruption, and two
// writers whose names land in different buckets both keep their entries.
// Also the constant-size unlink, the fresh create that ships no data
// delete, and a descent that does not depend on the cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "testing/world.h"

namespace sharoes {
namespace {

using core::CreateOptions;
using core::LocalNode;
using testing::kAlice;
using testing::kBob;
using testing::kEng;
using testing::World;

/// Records every mutating sub-op a client ships.
class RecordingChannel : public ssp::SspChannel {
 public:
  explicit RecordingChannel(ssp::SspChannel* inner) : inner_(inner) {}

  Result<ssp::Response> Call(const ssp::Request& req) override {
    if (req.op == ssp::OpCode::kBatch) {
      for (const ssp::Request& sub : req.batch) Note(sub);
    } else {
      Note(req);
    }
    return inner_->Call(req);
  }

  std::vector<ssp::OpCode> Take() { return std::exchange(ops_, {}); }

 private:
  void Note(const ssp::Request& r) {
    if (ssp::IsMutatingOp(r.op)) ops_.push_back(r.op);
  }

  ssp::SspChannel* inner_;  // Not owned.
  std::vector<ssp::OpCode> ops_;
};

/// A client for `uid` over a recording channel into `world`'s server.
struct RecordedClient {
  RecordedClient(World* world, fs::UserId uid, size_t write_batch_ops = 0)
      : transport(&world->clock(), net::NetworkModel::Zero()),
        conn(&world->server(), &transport),
        recorder(&conn) {
    crypto::CryptoEngineOptions eng;
    eng.cost_model = crypto::CryptoCostModel::Zero();
    eng.rng_seed = 77 + uid;
    engine = std::make_unique<crypto::CryptoEngine>(&world->clock(), eng);
    core::ClientOptions opts;
    opts.default_group = world->DefaultGroupOf(uid);
    opts.write_batch_ops = write_batch_ops;
    client = std::make_unique<core::SharoesClient>(
        uid, world->user_key(uid), &world->identity(), &recorder,
        engine.get(), opts);
  }

  net::Transport transport;
  ssp::SspConnection conn;
  RecordingChannel recorder;
  std::unique_ptr<crypto::CryptoEngine> engine;
  std::unique_ptr<core::SharoesClient> client;
};

/// "/" (alice, rwxr-xr-x) holding directory "d" (alice:eng, `d_mode`)
/// with `files` files f0, f1, ... and an empty directory "e" (rwxrwx---).
LocalNode TreeWith(int files, const char* d_mode = "rwxrwx---") {
  LocalNode root =
      LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  LocalNode d = LocalNode::Dir("d", kAlice, kEng, World::ParseMode(d_mode));
  for (int i = 0; i < files; ++i) {
    d.children.push_back(LocalNode::File("f" + std::to_string(i), kAlice,
                                         kEng, World::ParseMode("rw-rw----"),
                                         ToBytes("x")));
  }
  root.children.push_back(std::move(d));
  root.children.push_back(
      LocalNode::Dir("e", kAlice, kEng, World::ParseMode("rwxrwx---")));
  return root;
}

fs::InodeNum InodeOf(World& world, const std::string& path) {
  auto attrs = world.client(kAlice).Getattr(path);
  EXPECT_TRUE(attrs.ok()) << attrs.status();
  return attrs.ok() ? attrs->inode : fs::kInvalidInode;
}

/// The stored table objects of directory `inode`: heads or buckets. The
/// master's head has every selector bit set, the bucket flag included.
size_t CountTableObjects(World& world, fs::InodeNum inode, bool buckets) {
  size_t n = 0;
  for (const ssp::ObjectVersion& v : world.server().store().ListVersions()) {
    if (v.tombstone || v.ref.family != ssp::ObjectFamily::kMetadata ||
        v.ref.k1 != inode || (v.ref.k2 & core::kTableSelectorFlag) == 0) {
      continue;
    }
    bool bucket = (v.ref.k2 & core::kBucketSelectorFlag) != 0 &&
                  v.ref.k2 != core::kMasterSelector;
    if (bucket == buckets) ++n;
  }
  return n;
}

TEST(DirBucketTest, MigrationRendersBucketsAtTheFreshDepth) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(40)).ok());
  fs::InodeNum d = InodeOf(world, "/d");
  // Heads and 2^3 buckets each for the owner and group copies (rwx) and
  // the master; the other copy (---) is kNone and has neither.
  EXPECT_EQ(CountTableObjects(world, d, /*buckets=*/false), 3u);
  EXPECT_EQ(CountTableObjects(world, d, /*buckets=*/true), 3u * 8u);
  auto names = world.client(kBob).Readdir("/d");
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(names->size(), 40u);
}

TEST(DirBucketTest, CreateAndUnlinkRewriteOneBucketPerCopyWithRows) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(20)).ok());
  RecordedClient alice(&world, kAlice);
  ASSERT_TRUE(alice.client->Mount().ok());
  CreateOptions opts;
  opts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.client->Create("/d/new", opts).ok());
  std::vector<ssp::OpCode> ops = alice.recorder.Take();
  // The new file's three metadata replicas, then one bucket each in the
  // owner copy, the group copy and the master: no head, no kNone copy.
  EXPECT_EQ(std::count(ops.begin(), ops.end(), ssp::OpCode::kPutMetadata),
            3 + 3);
  ASSERT_TRUE(alice.client->Unlink("/d/new").ok());
  ops = alice.recorder.Take();
  EXPECT_EQ(ops, (std::vector<ssp::OpCode>{
                     ssp::OpCode::kPutMetadata, ssp::OpCode::kPutMetadata,
                     ssp::OpCode::kPutMetadata,
                     ssp::OpCode::kDeleteInodeMetadata,
                     ssp::OpCode::kDeleteInodeData}));
}

TEST(DirBucketTest, UnlinkSubOpsDoNotGrowWithTheIdentityDirectory) {
  auto unlink_ops = [](int extra_users) {
    World world;
    for (int i = 0; i < extra_users; ++i) {
      world.AddUser(300 + i, "u" + std::to_string(i));
    }
    EXPECT_TRUE(world.MigrateAndMountAll(TreeWith(4)).ok());
    RecordedClient alice(&world, kAlice);
    EXPECT_TRUE(alice.client->Mount().ok());
    EXPECT_TRUE(alice.client->Unlink("/d/f1").ok());
    return alice.recorder.Take().size();
  };
  size_t few = unlink_ops(0);
  EXPECT_EQ(unlink_ops(30), few);
  EXPECT_LE(few, 6u);
}

TEST(DirBucketTest, UnlinkTakesTheChildsSplitBlocks) {
  // dave joins eng, so the group copy of /d is read by bob and dave. A
  // file bob creates there is a split row of that copy: bob resolves to
  // its owner class, dave to its group class (paper §III-D.2).
  World world;
  world.AddUser(200, "dave");
  ASSERT_TRUE(world.provisioner().AddGroupMember(kEng, 200).ok());
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(2)).ok());
  CreateOptions opts;
  opts.mode = World::ParseMode("rw-r-----");
  ASSERT_TRUE(world.client(kBob).Create("/d/bobs", opts).ok());
  ASSERT_TRUE(world.client(kBob).WriteFile("/d/bobs", ToBytes("b")).ok());
  // A chmod of the directory re-renders every row, split blocks included.
  ASSERT_TRUE(
      world.client(kAlice).Chmod("/d", World::ParseMode("rwxrwx--x")).ok());
  world.client(kBob).DropCaches();
  fs::InodeNum child = world.client(kBob).Getattr("/d/bobs")->inode;
  auto split_blocks = [&] {
    size_t n = 0;
    for (const auto& v : world.server().store().ListVersions()) {
      if (!v.tombstone && v.ref.family == ssp::ObjectFamily::kUserMetadata &&
          v.ref.k1 == child) {
        ++n;
      }
    }
    return n;
  };
  ASSERT_GT(split_blocks(), 0u);
  ASSERT_TRUE(world.client(kBob).Unlink("/d/bobs").ok());
  EXPECT_EQ(split_blocks(), 0u);
}

TEST(DirBucketTest, FreshCreateShipsNoDataDelete) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(2)).ok());
  RecordedClient alice(&world, kAlice);
  ASSERT_TRUE(alice.client->Mount().ok());
  CreateOptions opts;
  opts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.client->Create("/d/fresh", opts).ok());
  ASSERT_TRUE(alice.client->WriteFile("/d/fresh", ToBytes("v1")).ok());
  auto deletes = [&] {
    std::vector<ssp::OpCode> ops = alice.recorder.Take();
    return std::count(ops.begin(), ops.end(), ssp::OpCode::kDeleteInodeData);
  };
  EXPECT_EQ(deletes(), 0);
  // A rewrite without a diff basis (a shorter file) still deletes first.
  alice.client->DropCaches();
  ASSERT_TRUE(alice.client->WriteFile("/d/fresh", ToBytes("v")).ok());
  EXPECT_EQ(deletes(), 1);
  auto back = world.client(kBob).Read("/d/fresh");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(ToString(*back), "v");
}

TEST(DirBucketTest, DescentWithoutACacheIsOneRoundTripPerLevel) {
  // The head and buckets a level's batch fetched go straight to the
  // lookup, so a client whose cache keeps nothing still resolves each
  // level in one round trip: /, /home, /home/alice, then the file's view
  // and data.
  World::Options opts;
  opts.cache_bytes = 0;
  World world(opts);
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  uint64_t before = world.transport(kAlice).counters().round_trips;
  auto read = world.client(kAlice).Read("/home/alice/notes.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "alice's notes");
  EXPECT_EQ(world.transport(kAlice).counters().round_trips - before, 4u);
}

/// Grows or shrinks /d under a reader whose cached head predates it; the
/// reader resolves every name that survives without a Corruption.
void ResizeUnderAReader(bool grow) {
  World world;
  // 40 entries: depth 3, deeper than the probe window, so bob's cold
  // lookup caches the head and only buckets 0..3 of its copy.
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(40)).ok());
  ASSERT_TRUE(world.client(kBob).Getattr("/d/f0").ok());
  CreateOptions opts;
  opts.mode = World::ParseMode("rw-rw----");
  int first = 0;
  if (grow) {
    // 80 entries: depth 4.
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          world.client(kAlice).Create("/d/g" + std::to_string(i), opts).ok());
    }
  } else {
    // 10 entries: depth 1, and the buckets past it are deleted.
    for (; first < 30; ++first) {
      ASSERT_TRUE(
          world.client(kAlice).Unlink("/d/f" + std::to_string(first)).ok());
    }
  }
  uint64_t trips = world.transport(kBob).counters().round_trips;
  for (int i = first; i < 40; ++i) {
    std::string path = "/d/f" + std::to_string(i);
    auto attrs = world.client(kBob).Getattr(path);
    EXPECT_TRUE(attrs.ok()) << path << ": " << attrs.status();
  }
  // Names in the uncached buckets took the stale-head path.
  EXPECT_GT(world.transport(kBob).counters().round_trips, trips);
  auto names = world.client(kBob).Readdir("/d");
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(names->size(), grow ? 80u : 10u);
}

TEST(DirBucketTest, StaleHeadAfterGrowIsRefetched) { ResizeUnderAReader(true); }

TEST(DirBucketTest, StaleHeadAfterShrinkIsRefetched) {
  ResizeUnderAReader(false);
}

/// bob holds /d's master from before alice resizes /d; then bob creates
/// (after a grow) or unlinks (after a shrink) a name, rendering one bucket
/// at the depth he remembers. That may lose updates, never the table:
/// fresh readers list /d, every name listed resolves or is not-found (an
/// unlink whose bucket went astray leaves its entry), and a fresh writer's
/// create lands.
void ResizeUnderAWriter(bool grow) {
  World world;
  // grow: 12 entries (depth 1) -> 17 (depth 2). shrink: 17 (depth 2) ->
  // 7 (depth 0).
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(grow ? 12 : 17)).ok());
  auto& alice = world.client(kAlice);
  auto& bob = world.client(kBob);
  ASSERT_TRUE(bob.RefreshDir("/d").ok());  // Loads bob's master.
  CreateOptions opts;
  opts.mode = World::ParseMode("rw-rw----");
  if (grow) {
    // bob's bucket, at depth 1, is one a depth-2 reader reads.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(alice.Create("/d/g" + std::to_string(i), opts).ok());
    }
    ASSERT_TRUE(bob.Create("/d/bobs", opts).ok());
  } else {
    // bob unlinks a name in bucket 0 of the master at depth 2: the one
    // bucket a depth-0 reader reads.
    fs::InodeNum d = InodeOf(world, "/d");
    auto view = alice.cache().Get<core::MetadataView>(
        "m|" + std::to_string(d) + "|" + std::to_string(core::kOwnerSelector));
    ASSERT_NE(view, nullptr);
    const crypto::SymmetricKey& key =
        view->table_keys.at(core::kMasterSelector);
    int target = 0;
    while (target < 17 &&
           core::ObjectCodec::BucketOf(key, "f" + std::to_string(target),
                                       2) != 0) {
      ++target;
    }
    ASSERT_LT(target, 17);
    for (int i = 0, gone = 0; gone < 10; ++i) {
      if (i == target) continue;
      ASSERT_TRUE(alice.Unlink("/d/f" + std::to_string(i)).ok());
      ++gone;
    }
    ASSERT_TRUE(bob.Unlink("/d/f" + std::to_string(target)).ok());
  }
  for (fs::UserId uid : {kAlice, kBob}) {
    world.client(uid).DropCaches();
    auto names = world.client(uid).Readdir("/d");
    ASSERT_TRUE(names.ok()) << names.status();
    EXPECT_FALSE(names->empty());
    for (const std::string& name : *names) {
      auto attrs = world.client(uid).Getattr("/d/" + name);
      EXPECT_TRUE(attrs.ok() || attrs.status().IsNotFound())
          << name << ": " << attrs.status();
    }
  }
  ASSERT_TRUE(alice.Create("/d/after", opts).ok());
  bob.DropCaches();
  auto names = bob.Readdir("/d");
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_NE(std::find(names->begin(), names->end(), "after"), names->end());
  EXPECT_TRUE(bob.Getattr("/d/after").ok());
}

TEST(DirBucketTest, StaleDepthWriterAfterGrowLeavesAReadableTable) {
  ResizeUnderAWriter(true);
}

TEST(DirBucketTest, StaleDepthWriterAfterShrinkLeavesAReadableTable) {
  ResizeUnderAWriter(false);
}

TEST(DirBucketTest, WarmHeadReadsBucketsAWideningChmodRerendered) {
  // /d is rwxr-----: bob's group copy is names-only. His cold lookup
  // caches its head (depth 3) and buckets 0..3 before the exec check
  // denies it; alice then widens the group to r-x, which re-renders every
  // bucket full without rotating keys. bob's listing reads buckets 4..7
  // in the new view under his cached head.
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(40, "rwxr-----")).ok());
  auto& bob = world.client(kBob);
  EXPECT_TRUE(bob.Getattr("/d/f0").status().IsPermissionDenied());
  ASSERT_TRUE(
      world.client(kAlice).Chmod("/d", World::ParseMode("rwxr-x---")).ok());
  auto names = bob.Readdir("/d");
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(names->size(), 40u);
  bob.DropCaches();
  EXPECT_TRUE(bob.Getattr("/d/f0").ok());
}

/// Moves the stored object at `from` over `to`.
void Swap(World& world, const ssp::ObjectRef& from, const ssp::ObjectRef& to) {
  auto blob = world.server().store().Get(from);
  ASSERT_TRUE(blob.has_value());
  world.server().store().Put(to, *blob);
}

TEST(DirBucketTest, DamagedTablesAreCorruption) {
  const core::Selector group = core::kGroupSelector;  // bob's copy of /d.
  auto bucket = [](fs::InodeNum inode, core::Selector sel, uint32_t b) {
    return ssp::ObjectRef::Metadata(inode, core::BucketSelector(sel, b));
  };
  auto head = [](fs::InodeNum inode, core::Selector sel) {
    return ssp::ObjectRef::Metadata(inode, core::TableSelector(sel));
  };
  auto listing = [](World& world) {
    world.client(kBob).DropCaches();
    return world.client(kBob).Readdir("/d").status();
  };
  {
    SCOPED_TRACE("bucket missing at the head's depth");
    World world;
    ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(40)).ok());
    world.server().store().Delete(bucket(InodeOf(world, "/d"), group, 5));
    EXPECT_TRUE(listing(world).IsCorruption()) << listing(world);
  }
  {
    SCOPED_TRACE("bucket swapped in from another index");
    World world;
    ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(40)).ok());
    fs::InodeNum d = InodeOf(world, "/d");
    Swap(world, bucket(d, group, 2), bucket(d, group, 1));
    EXPECT_TRUE(listing(world).IsCorruption()) << listing(world);
  }
  {
    SCOPED_TRACE("bucket swapped in from another copy");
    World world;
    ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(40)).ok());
    fs::InodeNum d = InodeOf(world, "/d");
    Swap(world, bucket(d, core::kOwnerSelector, 1), bucket(d, group, 1));
    EXPECT_TRUE(listing(world).IsCorruption()) << listing(world);
  }
  {
    SCOPED_TRACE("bucket and head swapped in from another directory");
    World world;
    ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(6)).ok());
    fs::InodeNum d = InodeOf(world, "/d");
    fs::InodeNum e = InodeOf(world, "/e");
    Swap(world, bucket(e, group, 0), bucket(d, group, 0));
    EXPECT_TRUE(listing(world).IsCorruption()) << listing(world);
    World again;
    ASSERT_TRUE(again.MigrateAndMountAll(TreeWith(6)).ok());
    Swap(again, head(InodeOf(again, "/e"), group),
         head(InodeOf(again, "/d"), group));
    EXPECT_TRUE(listing(again).IsCorruption()) << listing(again);
  }
  {
    SCOPED_TRACE("a master bucket missing");
    World world;
    ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(40)).ok());
    world.server().store().Delete(
        bucket(InodeOf(world, "/d"), core::kMasterSelector, 3));
    world.client(kAlice).DropCaches();
    CreateOptions opts;
    Status s = world.client(kAlice).Create("/d/new", opts);
    EXPECT_TRUE(s.IsCorruption()) << s;
  }
}

TEST(DirBucketTest, WritersOfDifferentBucketsBothLand) {
  // 12 entries: depth 1. alice (owner copy) and bob (group copy) both
  // hold /d's master; then each creates one name, from a master that
  // lacks the other's. The names are picked to fall in different buckets
  // of the master and of both copies with rows, so neither writer
  // re-renders the bucket that holds the other's entry.
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWith(12)).ok());
  auto& alice = world.client(kAlice);
  auto& bob = world.client(kBob);
  ASSERT_TRUE(bob.RefreshDir("/d").ok());  // Loads bob's master.
  fs::InodeNum d = InodeOf(world, "/d");
  auto view = alice.cache().Get<core::MetadataView>(
      "m|" + std::to_string(d) + "|" + std::to_string(core::kOwnerSelector));
  ASSERT_NE(view, nullptr);
  const auto& keys = view->table_keys;
  core::ObjectCodec codec(&world.engine(kAlice), &world.identity(),
                          core::Scheme::kScheme2);
  auto buckets_of = [&](const std::string& name) {
    std::vector<uint32_t> out;
    for (core::Selector sel : {core::kOwnerSelector, core::kGroupSelector,
                               core::kMasterSelector}) {
      out.push_back(codec.BucketOf(keys.at(sel), name, 1));
    }
    return out;
  };
  const std::string mine = "alices";
  std::string theirs;
  for (int i = 0; theirs.empty(); ++i) {
    std::string candidate = "bobs" + std::to_string(i);
    std::vector<uint32_t> a = buckets_of(mine), b = buckets_of(candidate);
    bool apart = true;
    for (size_t k = 0; k < a.size(); ++k) apart = apart && a[k] != b[k];
    if (apart) theirs = candidate;
  }
  CreateOptions opts;
  opts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.Create("/d/" + mine, opts).ok());
  ASSERT_TRUE(bob.Create("/d/" + theirs, opts).ok());
  for (fs::UserId uid : {kAlice, kBob}) {
    world.client(uid).DropCaches();
    auto names = world.client(uid).Readdir("/d");
    ASSERT_TRUE(names.ok()) << names.status();
    EXPECT_EQ(names->size(), 14u);
    EXPECT_NE(std::find(names->begin(), names->end(), mine), names->end());
    EXPECT_NE(std::find(names->begin(), names->end(), theirs), names->end());
  }
}

}  // namespace
}  // namespace sharoes
