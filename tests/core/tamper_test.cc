// Malicious-SSP tests: the threat model of §VII. The SSP stores and
// serves blobs but is not trusted; any modification, substitution or
// forged write must be detected by the client's verification chain.

#include <gtest/gtest.h>

#include "testing/world.h"

namespace sharoes {
namespace {

using core::CreateOptions;
using testing::kAlice;
using testing::kBob;
using testing::kEng;
using testing::World;

class TamperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<World>();
    core::LocalNode root =
        core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
    root.children.push_back(core::LocalNode::File(
        "doc.txt", kAlice, kEng, World::ParseMode("rw-r--r--"),
        ToBytes("authentic content")));
    ASSERT_TRUE(world_->MigrateAndMountAll(root).ok());
    // Locate the file's inode via a stat.
    auto attrs = world_->client(kAlice).Getattr("/doc.txt");
    ASSERT_TRUE(attrs.ok());
    inode_ = attrs->inode;
  }
  std::unique_ptr<World> world_;
  fs::InodeNum inode_ = 0;
};

TEST_F(TamperTest, CorruptedDataBlockDetected) {
  ASSERT_TRUE(world_->server().store().Corrupt(
      ssp::ObjectRef::Data(inode_, 0), 40));
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/doc.txt");
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(TamperTest, CorruptedMetadataDetected) {
  // Corrupt every replica of the file (selectors 0..2).
  bool corrupted = false;
  for (uint64_t sel = 0; sel < 3; ++sel) {
    corrupted |= world_->server().store().Corrupt(
        ssp::ObjectRef::Metadata(inode_, sel), 13);
  }
  ASSERT_TRUE(corrupted);
  world_->client(kBob).DropCaches();
  auto r = world_->client(kBob).Getattr("/doc.txt");
  EXPECT_FALSE(r.ok());
}

TEST_F(TamperTest, SubstitutedDataBlockDetected) {
  // Substitution with *another* valid-looking blob (here: random bytes
  // shaped like an envelope) must fail verification.
  Rng rng(5);
  ASSERT_TRUE(
      world_->server().store().Replace(
          ssp::ObjectRef::Data(inode_, 0), rng.NextBytes(128)));
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/doc.txt");
  EXPECT_FALSE(read.ok());
}

TEST_F(TamperTest, CrossFileBlockSwapDetected) {
  // The SSP serves file B's (validly signed) block for file A: the
  // signature binds the inode, so this must fail.
  CreateOptions opts;
  opts.mode = World::ParseMode("rw-r--r--");
  ASSERT_TRUE(world_->client(kAlice).Create("/other.txt", opts).ok());
  ASSERT_TRUE(world_->client(kAlice)
                  .WriteFile("/other.txt", ToBytes("other file content"))
                  .ok());
  auto other_attrs = world_->client(kAlice).Getattr("/other.txt");
  ASSERT_TRUE(other_attrs.ok());
  auto other_block = world_->server().store().Get(
      ssp::ObjectRef::Data(other_attrs->inode, 0));
  ASSERT_TRUE(other_block.has_value());
  ASSERT_TRUE(
      world_->server().store().Replace(
          ssp::ObjectRef::Data(inode_, 0), *other_block));
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/doc.txt");
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(TamperTest, ForgedWriteByReaderDetected) {
  // The paper's motivating attack for DSK/DVK: a reader holds the DEK
  // (symmetric), so they can *produce* a well-formed ciphertext — but
  // they cannot sign it. Model a malicious reader (bob) writing directly
  // to the SSP, bypassing his client's permission checks.
  world_->client(kBob).DropCaches();
  ASSERT_TRUE(world_->client(kBob).Read("/doc.txt").ok());  // Has DEK.
  // Bob forges a blob and stores it at the SSP (the SSP does not verify).
  Rng rng(6);
  world_->server().store().Put(
      ssp::ObjectRef::Data(inode_, 0), rng.NextBytes(200));
  // Alice's next read detects the forgery instead of accepting it.
  world_->client(kAlice).DropCaches();
  auto read = world_->client(kAlice).Read("/doc.txt");
  EXPECT_FALSE(read.ok());
}

TEST_F(TamperTest, CorruptedSuperblockDetected) {
  auto sb = world_->server().store().Get(ssp::ObjectRef::Superblock(kBob));
  ASSERT_TRUE(sb.has_value());
  Bytes bad = *sb;
  bad[bad.size() / 2] ^= 0xFF;
  world_->server().store().Put(ssp::ObjectRef::Superblock(kBob), bad);
  // A fresh mount fails cleanly (RSA decryption/parse fails) rather than
  // accepting a corrupted root reference.
  EXPECT_FALSE(world_->Mount(kBob).ok());
}

TEST_F(TamperTest, CorruptedTableCopyDetected) {
  // Corrupt the root directory's table copies; traversal must fail, not
  // return attacker-controlled rows.
  for (uint64_t sel = 0; sel < 3; ++sel) {
    world_->server().store().Corrupt(
        ssp::ObjectRef::Metadata(fs::kRootInode, core::TableSelector(sel)), 21);
  }
  world_->client(kBob).DropCaches();
  auto r = world_->client(kBob).Getattr("/doc.txt");
  EXPECT_FALSE(r.ok());
}

TEST_F(TamperTest, TruncatedBlobFailsCleanly) {
  auto blob = world_->server().store().Get(ssp::ObjectRef::Data(inode_, 0));
  ASSERT_TRUE(blob.has_value());
  Bytes tiny(blob->begin(), blob->begin() + 3);
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 0), tiny);
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/doc.txt");
  EXPECT_FALSE(read.ok());  // Corruption or integrity error; never UB.
}

}  // namespace
}  // namespace sharoes
