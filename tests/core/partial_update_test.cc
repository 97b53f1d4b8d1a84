// Block-level update tests (paper §II-B): "larger files are divided into
// multiple blocks and each block is encrypted separately. This helps
// accommodate updates efficiently by avoiding re-encrypting entire files
// after a write."

#include <gtest/gtest.h>

#include "testing/world.h"

namespace sharoes {
namespace {

using testing::kAlice;
using testing::kBob;
using testing::kEng;
using testing::World;

class PartialUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<World>();
    core::LocalNode root =
        core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
    // A 5-chunk file (4 KiB chunks) in blocks 1..5 after the descriptor.
    base_ = Bytes(18000, 'a');
    root.children.push_back(core::LocalNode::File(
        "big.bin", kAlice, kEng, World::ParseMode("rw-rw-r--"), base_));
    ASSERT_TRUE(world_->MigrateAndMountAll(root).ok());
    auto attrs = world_->client(kAlice).Getattr("/big.bin");
    ASSERT_TRUE(attrs.ok());
    inode_ = attrs->inode;
  }

  /// Raw stored blocks at the SSP (to see which were rewritten).
  std::map<uint32_t, Bytes> StoredBlocks() {
    std::map<uint32_t, Bytes> out;
    for (uint32_t i = 0; i < 16; ++i) {
      auto blob = world_->server().store().Get(ssp::ObjectRef::Data(inode_, i));
      if (blob.has_value()) out[i] = *blob;
    }
    return out;
  }

  std::unique_ptr<World> world_;
  Bytes base_;
  fs::InodeNum inode_ = 0;
};

TEST_F(PartialUpdateTest, SingleBlockEditRewritesOnlyThatBlockAndDesc) {
  auto& alice = world_->client(kAlice);
  ASSERT_TRUE(alice.Read("/big.bin").ok());  // Warm the block cache.
  std::map<uint32_t, Bytes> before = StoredBlocks();
  ASSERT_EQ(before.size(), 6u);

  // Flip bytes inside chunk 2 only (offsets within [2bs, 3bs)): block 3.
  Bytes edited = base_;
  for (size_t i = 9000; i < 9100; ++i) edited[i] = 'Z';
  ASSERT_TRUE(alice.WriteFile("/big.bin", edited).ok());

  std::map<uint32_t, Bytes> after = StoredBlocks();
  ASSERT_EQ(after.size(), 6u);
  EXPECT_NE(after[0], before[0]);  // Descriptor block always rewritten.
  EXPECT_EQ(after[1], before[1]);  // Untouched blocks keep old ciphertext.
  EXPECT_EQ(after[2], before[2]);
  EXPECT_NE(after[3], before[3]);  // The edited block was re-encrypted.
  EXPECT_EQ(after[4], before[4]);
  EXPECT_EQ(after[5], before[5]);

  // And the mixed-generation file reads back correctly everywhere.
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/big.bin");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, edited);
}

TEST_F(PartialUpdateTest, AppendWritesOnlyNewAndLastBlocks) {
  auto& alice = world_->client(kAlice);
  ASSERT_TRUE(alice.Read("/big.bin").ok());
  std::map<uint32_t, Bytes> before = StoredBlocks();

  Bytes extra(6000, 'x');
  ASSERT_TRUE(alice.Append("/big.bin", extra).ok());
  ASSERT_TRUE(alice.Close("/big.bin").ok());

  std::map<uint32_t, Bytes> after = StoredBlocks();
  EXPECT_EQ(after.size(), 7u);  // 24000 bytes => descriptor + 6 chunks.
  EXPECT_EQ(after[1], before[1]);  // Early blocks untouched.
  EXPECT_EQ(after[2], before[2]);
  EXPECT_EQ(after[3], before[3]);
  EXPECT_EQ(after[4], before[4]);
  // Block 5 (was the partial last chunk) changed; block 6 is new.
  EXPECT_NE(after[5], before[5]);
  EXPECT_TRUE(after.count(6));

  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/big.bin");
  ASSERT_TRUE(read.ok()) << read.status();
  Bytes expected = base_;
  expected.insert(expected.end(), extra.begin(), extra.end());
  EXPECT_EQ(*read, expected);
}

TEST_F(PartialUpdateTest, AppendShipsOnlyItsOwnBytes) {
  // The last chunk holds 4000 B. A warm owner's 300 B append seals one
  // short chunk of its own bytes (DESIGN.md §13) instead of sealing and
  // shipping the 4000 B chunk again.
  const size_t bs = core::kBlockSize;
  auto& alice = world_->client(kAlice);
  Bytes content(2 * bs + 4000, 'a');
  ASSERT_TRUE(alice.WriteFile("/big.bin", content).ok());
  std::map<uint32_t, Bytes> before = StoredBlocks();
  ASSERT_EQ(before.size(), 4u);

  net::Transport& link = world_->transport(kAlice);
  link.ResetCounters();
  world_->engine(kAlice).ResetOpCounts();
  Bytes extra(300, 'x');
  ASSERT_TRUE(alice.Append("/big.bin", extra).ok());
  ASSERT_TRUE(alice.Close("/big.bin").ok());
  EXPECT_EQ(link.counters().round_trips, 1u);
  EXPECT_EQ(world_->engine(kAlice).op_counts().sym_encrypt, 1u);
  EXPECT_EQ(world_->engine(kAlice).op_counts().sign, 1u);
  EXPECT_LT(link.counters().bytes_up, 300u + 700u);

  std::map<uint32_t, Bytes> after = StoredBlocks();
  EXPECT_EQ(after.size(), 5u);
  for (uint32_t i = 1; i <= 3; ++i) EXPECT_EQ(after[i], before[i]) << i;
  content.insert(content.end(), extra.begin(), extra.end());
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/big.bin");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, content);
}

TEST_F(PartialUpdateTest, ShrinkFallsBackToFullRewrite) {
  auto& alice = world_->client(kAlice);
  ASSERT_TRUE(alice.Read("/big.bin").ok());
  ASSERT_TRUE(alice.WriteFile("/big.bin", ToBytes("tiny now")).ok());
  std::map<uint32_t, Bytes> after = StoredBlocks();
  EXPECT_EQ(after.size(), 2u);  // Old chunk blocks past the one left deleted.
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/big.bin");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(*read), "tiny now");
}

TEST_F(PartialUpdateTest, ColdWriterDoesFullRewrite) {
  // Without the previous version cached there is no diff basis; the
  // flush rewrites everything and the result is still correct.
  auto& alice = world_->client(kAlice);
  alice.DropCaches();
  Bytes v2(18000, 'b');
  ASSERT_TRUE(alice.WriteFile("/big.bin", v2).ok());
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/big.bin");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, v2);
}

TEST_F(PartialUpdateTest, StaleBlockFromOldGenerationDetected) {
  // After a partial update, the SSP re-serves the OLD version of the
  // edited block (whose signature is valid for the old generation): the
  // descriptor's per-block generation vector catches it.
  auto& alice = world_->client(kAlice);
  ASSERT_TRUE(alice.Read("/big.bin").ok());
  std::map<uint32_t, Bytes> before = StoredBlocks();
  Bytes edited = base_;
  edited[9000] = 'Z';
  ASSERT_TRUE(alice.WriteFile("/big.bin", edited).ok());
  // Malicious SSP: restore the pre-edit block 3 (chunk 2).
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 3), before[3]);
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/big.bin");
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(PartialUpdateTest, PartialUpdateShipsFewerBytes) {
  // The efficiency claim itself: an in-place one-block edit of a warm
  // file must ship far less than a full rewrite.
  auto& alice = world_->client(kAlice);
  ASSERT_TRUE(alice.Read("/big.bin").ok());
  Bytes edited = base_;
  edited[9000] = 'Q';

  // Count upload bytes via the SSP store delta: compare total stored
  // bytes rewritten (2 blocks ~ 8 KiB) against the file size (18 KB).
  // We measure through virtual network accounting instead: zero-cost
  // model in tests, so use block counts.
  std::map<uint32_t, Bytes> before = StoredBlocks();
  ASSERT_TRUE(alice.WriteFile("/big.bin", edited).ok());
  std::map<uint32_t, Bytes> after = StoredBlocks();
  int rewritten = 0;
  for (const auto& [idx, blob] : after) {
    if (!before.count(idx) || before.at(idx) != blob) ++rewritten;
  }
  EXPECT_EQ(rewritten, 2);  // Descriptor block + the edited block.
}

}  // namespace
}  // namespace sharoes
