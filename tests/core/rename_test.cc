// rename(2) tests: same-directory renames and cross-directory moves.
// Because CAP replica selectors and MEKs are parent-independent, a move
// only rewrites the two parents' tables — the child's key material and
// data are untouched (verified via the SSP store).

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/world.h"

namespace sharoes {
namespace {

using core::CreateOptions;
using testing::kAlice;
using testing::kBob;
using testing::kCarol;
using testing::kEng;
using testing::World;

class RenameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<World>();
    ASSERT_TRUE(world_->MigrateAndMountAll(World::DefaultTree()).ok());
  }
  std::unique_ptr<World> world_;
};

TEST_F(RenameTest, SameDirectoryRename) {
  auto& alice = world_->client(kAlice);
  ASSERT_TRUE(
      alice.Rename("/home/alice/notes.txt", "/home/alice/journal.txt").ok());
  EXPECT_FALSE(alice.Exists("/home/alice/notes.txt"));
  auto read = alice.Read("/home/alice/journal.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "alice's notes");
  // Permissions travel with the file: bob (group r) still reads.
  world_->client(kBob).DropCaches();
  EXPECT_TRUE(world_->client(kBob).Read("/home/alice/journal.txt").ok());
}

TEST_F(RenameTest, CrossDirectoryMovePreservesDataAndKeys) {
  auto& alice = world_->client(kAlice);
  auto before = alice.Getattr("/home/alice/public.txt");
  ASSERT_TRUE(before.ok());
  auto data_before =
      world_->server().store().Get(ssp::ObjectRef::Data(before->inode, 0));
  ASSERT_TRUE(data_before.has_value());

  ASSERT_TRUE(
      alice.Rename("/home/alice/public.txt", "/shared/public.txt").ok());
  EXPECT_FALSE(alice.Exists("/home/alice/public.txt"));
  auto after = alice.Getattr("/shared/public.txt");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->inode, before->inode);  // Same object.
  // The stored ciphertext was not rewritten (no re-encryption on move).
  auto data_after = world_->server().store().Get(
      ssp::ObjectRef::Data(after->inode, 0));
  ASSERT_TRUE(data_after.has_value());
  EXPECT_EQ(*data_after, *data_before);

  auto read = alice.Read("/shared/public.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(*read), "hello world");
  // /shared is rwxrwx---: carol (who could read it before via 'others')
  // can no longer traverse to it.
  world_->client(kCarol).DropCaches();
  EXPECT_FALSE(world_->client(kCarol).Read("/shared/public.txt").ok());
  // bob (group) can.
  world_->client(kBob).DropCaches();
  EXPECT_TRUE(world_->client(kBob).Read("/shared/public.txt").ok());
}

TEST_F(RenameTest, MoveDirectoryWithContents) {
  auto& alice = world_->client(kAlice);
  CreateOptions dopts;
  dopts.mode = World::ParseMode("rwxr-xr-x");
  ASSERT_TRUE(alice.Mkdir("/home/proj", dopts).ok());
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-r--r--");
  ASSERT_TRUE(alice.Create("/home/proj/readme", fopts).ok());
  ASSERT_TRUE(alice.WriteFile("/home/proj/readme", ToBytes("docs")).ok());

  ASSERT_TRUE(alice.Rename("/home/proj", "/shared/proj").ok());
  auto read = alice.Read("/shared/proj/readme");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "docs");
  EXPECT_FALSE(alice.Exists("/home/proj"));
}

TEST_F(RenameTest, ErrorCases) {
  auto& alice = world_->client(kAlice);
  // Target exists.
  EXPECT_EQ(alice.Rename("/home/alice/notes.txt", "/home/alice/public.txt")
                .code(),
            StatusCode::kAlreadyExists);
  // Source missing.
  EXPECT_TRUE(alice.Rename("/home/alice/ghost", "/home/alice/g2")
                  .IsNotFound());
  // Move a directory into itself.
  EXPECT_EQ(alice.Rename("/home", "/home/sub").code(),
            StatusCode::kInvalidArgument);
  // No write permission on the source parent (bob on /home/alice).
  Status s = world_->client(kBob).Rename("/home/alice/notes.txt",
                                         "/shared/stolen.txt");
  EXPECT_TRUE(s.IsPermissionDenied()) << s;
  // Rename to self is a no-op.
  EXPECT_TRUE(alice.Rename("/home/alice/notes.txt",
                           "/home/alice/notes.txt").ok());
}

TEST_F(RenameTest, BufferedWritesFollowTheRename) {
  auto& alice = world_->client(kAlice);
  ASSERT_TRUE(alice.Write("/home/alice/notes.txt", ToBytes("draft")).ok());
  ASSERT_TRUE(
      alice.Rename("/home/alice/notes.txt", "/home/alice/draft.txt").ok());
  ASSERT_TRUE(alice.Close("/home/alice/draft.txt").ok());
  alice.DropCaches();
  auto read = alice.Read("/home/alice/draft.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(*read), "draft");
}

TEST_F(RenameTest, GroupWriterCanRenameInSharedDir) {
  auto& bob = world_->client(kBob);
  ASSERT_TRUE(bob.Rename("/shared/plan.md", "/shared/plan-v2.md").ok());
  auto read = world_->client(kAlice).Read("/shared/plan-v2.md");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "Q3 plan");
}

// Evicting a directory drops its master table too: bob's rename must
// re-render /shared from the master as it is now, with the /shared/sub
// alice created after bob's last write there, not from the one bob
// cached at that write.
TEST_F(RenameTest, RenameAfterEvictKeepsAnotherWritersEntry) {
  auto& bob = world_->client(kBob);
  CreateOptions file_opts;
  file_opts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(bob.Create("/shared/bob.txt", file_opts).ok());
  CreateOptions dir_opts;
  dir_opts.mode = World::ParseMode("rwxrwx---");
  ASSERT_TRUE(world_->client(kAlice).Mkdir("/shared/sub", dir_opts).ok());
  ASSERT_TRUE(bob.EvictPath("/shared").ok());
  ASSERT_TRUE(bob.Rename("/shared/bob.txt", "/shared/sub/bob.txt").ok());

  ASSERT_TRUE(world_->Mount(kAlice).ok());  // A fresh client.
  auto& fresh = world_->client(kAlice);
  auto names = fresh.Readdir("/shared");
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_NE(std::find(names->begin(), names->end(), "sub"), names->end());
  EXPECT_TRUE(fresh.Exists("/shared/sub/bob.txt"));
  EXPECT_FALSE(fresh.Exists("/shared/bob.txt"));
}

}  // namespace
}  // namespace sharoes
