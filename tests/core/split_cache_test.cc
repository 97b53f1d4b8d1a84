// Split-point ref caching (paper §III-D.2): the unwrapped ref of a split
// row is part of the parent's row and lives as long as the parent's table
// in the client cache. Re-opening a split-point file after EvictPath
// therefore costs what re-opening a plain-row file costs, with no RSA
// private-key operation; changes made through the parent, revocation and
// DropCaches behave as they do for plain rows.

#include <gtest/gtest.h>

#include "testing/fault.h"
#include "testing/world.h"

namespace sharoes {
namespace {

using testing::kBob;
using testing::World;

constexpr fs::UserId kDave = 200;  // A second eng member besides bob.

/// The cross-owned fixture of acl_split_test: eng = {alice, bob, dave}.
/// /shared (alice:eng rwxrwx---) is read through its group copy by bob and
/// dave. Alice's /shared/plan.md resolves to the group class for both, so
/// its row is plain. A file bob creates there is owner class for bob and
/// group class for dave: a split row, served to bob by a per-user block
/// and to dave by the eng group block.
class SplitCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_.AddUser(kDave, "dave");
    ASSERT_TRUE(world_.provisioner().AddGroupMember(testing::kEng, kDave).ok());
    ASSERT_TRUE(world_.MigrateAndMountAll(World::DefaultTree()).ok());
    CreateAs(kBob, "/shared/bob.txt", "bob's draft");
  }

  void CreateAs(fs::UserId uid, const std::string& path,
                const std::string& content,
                const core::CreateOptions& opts = GroupReadable()) {
    ASSERT_TRUE(world_.client(uid).Create(path, opts).ok());
    ASSERT_TRUE(world_.client(uid).WriteFile(path, ToBytes(content)).ok());
  }

  static core::CreateOptions GroupReadable() {
    core::CreateOptions opts;
    opts.mode = World::ParseMode("rw-r-----");
    return opts;
  }

  /// Reads `path` as `uid` and returns its content ("<error>" on failure).
  std::string ReadAs(fs::UserId uid, const std::string& path) {
    auto r = world_.client(uid).Read(path);
    return r.ok() ? ToString(*r) : "<" + r.status().ToString() + ">";
  }

  struct Cost {
    uint64_t round_trips = 0;
    uint64_t pk_decrypt_blocks = 0;
  };

  /// Evicts `path` from `uid`'s cache, then reads it and counts the read.
  Cost ReopenCost(fs::UserId uid, const std::string& path) {
    core::SharoesClient& c = world_.client(uid);
    EXPECT_TRUE(c.EvictPath(path).ok());
    uint64_t trips = world_.transport(uid).counters().round_trips;
    world_.engine(uid).ResetOpCounts();
    EXPECT_TRUE(c.Read(path).ok());
    return Cost{world_.transport(uid).counters().round_trips - trips,
                world_.engine(uid).op_counts().pk_decrypt_blocks};
  }

  World world_;
};

TEST_F(SplitCacheTest, ReopenOfSplitFileCostsAsMuchAsPlainFile) {
  for (fs::UserId uid : {kBob, kDave}) {
    ASSERT_EQ(ReadAs(uid, "/shared/bob.txt"), "bob's draft");
    ASSERT_EQ(ReadAs(uid, "/shared/plan.md"), "Q3 plan");
    Cost split = ReopenCost(uid, "/shared/bob.txt");
    Cost plain = ReopenCost(uid, "/shared/plan.md");
    EXPECT_EQ(split.round_trips, plain.round_trips) << "uid " << uid;
    EXPECT_EQ(split.pk_decrypt_blocks, 0u) << "uid " << uid;
    EXPECT_EQ(plain.pk_decrypt_blocks, 0u) << "uid " << uid;
  }
}

TEST_F(SplitCacheTest, RenameThroughParent) {
  ASSERT_EQ(ReadAs(kDave, "/shared/bob.txt"), "bob's draft");
  ASSERT_TRUE(world_.client(kBob).Rename("/shared/bob.txt",
                                         "/shared/moved.txt").ok());
  // The writer sees the new row at once.
  EXPECT_EQ(ReadAs(kBob, "/shared/moved.txt"), "bob's draft");
  EXPECT_FALSE(world_.client(kBob).Read("/shared/bob.txt").ok());
  // A reader sees it once it re-reads the parent, as for plain rows.
  ASSERT_TRUE(world_.client(kDave).EvictPath("/shared").ok());
  EXPECT_EQ(ReadAs(kDave, "/shared/moved.txt"), "bob's draft");
  EXPECT_TRUE(world_.client(kDave).Read("/shared/bob.txt").status()
                  .IsNotFound());
}

TEST_F(SplitCacheTest, CrossDirectoryRenameThroughParents) {
  // The destination is bob's, so its row in /shared is a split row too.
  core::CreateOptions dir;
  dir.mode = World::ParseMode("rwxrwx---");
  ASSERT_TRUE(world_.client(kBob).Mkdir("/shared/sub", dir).ok());
  ASSERT_EQ(ReadAs(kDave, "/shared/bob.txt"), "bob's draft");
  ASSERT_TRUE(world_.client(kBob).Rename("/shared/bob.txt",
                                         "/shared/sub/bob.txt").ok());
  EXPECT_EQ(ReadAs(kBob, "/shared/sub/bob.txt"), "bob's draft");
  ASSERT_TRUE(world_.client(kDave).EvictPath("/shared").ok());
  EXPECT_EQ(ReadAs(kDave, "/shared/sub/bob.txt"), "bob's draft");
}

TEST_F(SplitCacheTest, UnlinkAndRecreateThroughParent) {
  ASSERT_EQ(ReadAs(kDave, "/shared/bob.txt"), "bob's draft");
  ASSERT_TRUE(world_.client(kBob).Unlink("/shared/bob.txt").ok());
  CreateAs(kBob, "/shared/bob.txt", "bob's final");
  EXPECT_EQ(ReadAs(kBob, "/shared/bob.txt"), "bob's final");
  ASSERT_TRUE(world_.client(kDave).EvictPath("/shared").ok());
  EXPECT_EQ(ReadAs(kDave, "/shared/bob.txt"), "bob's final");
}

TEST_F(SplitCacheTest, NamedUserAclThroughParent) {
  // bob re-creates his file private to himself, so dave is denied; then
  // grants dave a named-user ACL entry on a fresh copy of it.
  ASSERT_EQ(ReadAs(kDave, "/shared/bob.txt"), "bob's draft");
  ASSERT_TRUE(world_.client(kBob).Unlink("/shared/bob.txt").ok());
  core::CreateOptions priv;
  priv.mode = World::ParseMode("rw-------");
  CreateAs(kBob, "/shared/bob.txt", "private", priv);
  ASSERT_TRUE(world_.client(kDave).EvictPath("/shared").ok());
  EXPECT_TRUE(world_.client(kDave).Read("/shared/bob.txt").status()
                  .IsPermissionDenied());

  ASSERT_TRUE(world_.client(kBob).Unlink("/shared/bob.txt").ok());
  core::CreateOptions acl = priv;
  acl.acl.push_back(fs::AclEntry{fs::AclEntry::Kind::kUser, kDave, 4});
  CreateAs(kBob, "/shared/bob.txt", "for dave", acl);
  EXPECT_EQ(ReadAs(kBob, "/shared/bob.txt"), "for dave");
  ASSERT_TRUE(world_.client(kDave).EvictPath("/shared").ok());
  EXPECT_EQ(ReadAs(kDave, "/shared/bob.txt"), "for dave");
}

TEST_F(SplitCacheTest, ImmediateRevocationDeniesCachedSplitRef) {
  // dave holds bob.txt's unwrapped split ref; bob's chmod (immediate
  // revocation) rotates the data key, and dave's re-open is denied.
  ASSERT_EQ(ReadAs(kDave, "/shared/bob.txt"), "bob's draft");
  ASSERT_TRUE(world_.client(kBob).Chmod("/shared/bob.txt",
                                        World::ParseMode("rw-------")).ok());
  ASSERT_TRUE(world_.client(kDave).EvictPath("/shared/bob.txt").ok());
  Status s = world_.client(kDave).Read("/shared/bob.txt").status();
  EXPECT_TRUE(s.IsPermissionDenied()) << s;
  // The owner still reads through the owner's (unchanged) split ref.
  EXPECT_EQ(ReadAs(kBob, "/shared/bob.txt"), "bob's draft");
}

TEST_F(SplitCacheTest, DropCachesRepaysTheRsaOp) {
  // After DropCaches the plain row costs no RSA op and the split row
  // unwraps its block again (which also shows the fixture's row kinds).
  for (fs::UserId uid : {kBob, kDave}) {
    ASSERT_EQ(ReadAs(uid, "/shared/bob.txt"), "bob's draft");
    world_.client(uid).DropCaches();
    world_.engine(uid).ResetOpCounts();
    ASSERT_EQ(ReadAs(uid, "/shared/plan.md"), "Q3 plan");
    EXPECT_EQ(world_.engine(uid).op_counts().pk_decrypt_blocks, 0u)
        << "uid " << uid;
    ASSERT_EQ(ReadAs(uid, "/shared/bob.txt"), "bob's draft");
    EXPECT_GE(world_.engine(uid).op_counts().pk_decrypt_blocks, 1u)
        << "uid " << uid;
  }
}

TEST_F(SplitCacheTest, TransientFaultOnOwnSplitBlockIsUnavailable) {
  // Regression: a transient kError on bob's per-user split block once
  // sent him to the eng group block. His read "succeeded" through the
  // group CAP, and his writes to his own file failed PermissionDenied for
  // as long as /shared's row stayed cached. Only a per-user block the SSP
  // does not hold may fall back to the group block.
  core::SharoesClient& bob = world_.client(kBob);
  ASSERT_TRUE(bob.EvictPath("/shared").ok());
  ASSERT_TRUE(bob.Readdir("/shared").ok());
  testing::ScriptedInjector fail_one(
      {testing::Fault(ssp::FaultAction::Kind::kFailRequest)});
  world_.server().set_fault_injector(&fail_one);
  Status s = bob.Read("/shared/bob.txt").status();
  world_.server().set_fault_injector(nullptr);
  EXPECT_TRUE(s.IsUnavailable()) << s;
  Status w = bob.WriteFile("/shared/bob.txt", ToBytes("bob's edit"));
  EXPECT_TRUE(w.ok()) << w;
  EXPECT_EQ(ReadAs(kBob, "/shared/bob.txt"), "bob's edit");
}

}  // namespace
}  // namespace sharoes
