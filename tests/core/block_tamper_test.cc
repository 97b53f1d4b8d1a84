// Block-level tamper fuzzing for the per-block AEAD + Merkle-root data
// path (DESIGN.md §13). A malicious SSP may rewrite any byte of any
// stored block, swap blocks within or across files, or serve stale
// block sets; every such presentation must surface as Status::Corruption
// (key_gen flips may also surface as PermissionDenied — the reader
// simply lacks a key for the forged generation). No case may ever
// return plaintext.

#include <gtest/gtest.h>

#include "core/object_codec.h"
#include "testing/world.h"

namespace sharoes {
namespace {

using core::ObjectCodec;
using testing::kAlice;
using testing::kBob;
using testing::kEng;
using testing::World;

class BlockTamperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<World>();
    core::LocalNode root =
        core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
    root.children.push_back(core::LocalNode::File(
        "doc.txt", kAlice, kEng, World::ParseMode("rw-rw-r--"), Bytes()));
    ASSERT_TRUE(world_->MigrateAndMountAll(root).ok());
    auto attrs = world_->client(kAlice).Getattr("/doc.txt");
    ASSERT_TRUE(attrs.ok());
    inode_ = attrs->inode;
  }

  /// Writes `content` as alice and returns a snapshot of the stored
  /// block wires.
  std::map<uint32_t, Bytes> WriteAndSnapshot(const Bytes& content) {
    EXPECT_TRUE(world_->client(kAlice).WriteFile("/doc.txt", content).ok());
    std::map<uint32_t, Bytes> out;
    for (uint32_t i = 0; i < 16; ++i) {
      auto blob = world_->server().store().Get(ssp::ObjectRef::Data(inode_, i));
      if (blob.has_value()) out[i] = *blob;
    }
    return out;
  }

  /// A cold read of the file as bob; never returns plaintext on error.
  Result<Bytes> ColdRead() {
    world_->client(kBob).DropCaches();
    return world_->client(kBob).Read("/doc.txt");
  }

  /// Byte content that differs at every block: "aaa...", "bbb...", etc.
  static Bytes Content(size_t size) {
    Bytes b(size);
    for (size_t i = 0; i < size; ++i) {
      b[i] = static_cast<uint8_t>('a' + (i / 4096) % 26);
    }
    return b;
  }

  /// Asserts the read fails closed after flipping bit 0 of byte `pos` in
  /// block `blk`. key_gen bytes (wire offsets 0..3) may also surface as
  /// PermissionDenied; everything else must be Corruption.
  void ExpectFailClosedAt(uint32_t blk, size_t pos, const Bytes& authentic) {
    Bytes bad = authentic;
    bad[pos] ^= 0x01;
    world_->server().store().Put(ssp::ObjectRef::Data(inode_, blk), bad);
    auto read = ColdRead();
    ASSERT_FALSE(read.ok()) << "block " << blk << " byte " << pos;
    if (pos < 4) {
      EXPECT_TRUE(read.status().IsCorruption() ||
                  read.status().IsPermissionDenied())
          << "block " << blk << " byte " << pos << ": " << read.status();
    } else {
      EXPECT_TRUE(read.status().IsCorruption())
          << "block " << blk << " byte " << pos << ": " << read.status();
    }
    world_->server().store().Put(ssp::ObjectRef::Data(inode_, blk), authentic);
  }

  std::unique_ptr<World> world_;
  fs::InodeNum inode_ = 0;
};

TEST_F(BlockTamperTest, EveryByteOfTailBlockFailsClosed) {
  // A small tail (60 bytes) keeps the wire short enough to sweep every
  // byte: header (key_gen, write_gen), nonce, length-prefixed
  // ciphertext, tag, and the (empty) signature field.
  auto blocks = WriteAndSnapshot(Content(4096 + 60));
  ASSERT_EQ(blocks.size(), 3u);
  ASSERT_TRUE(ColdRead().ok());
  for (size_t pos = 0; pos < blocks[2].size(); ++pos) {
    ExpectFailClosedAt(2, pos, blocks[2]);
  }
  auto restored = ColdRead();
  ASSERT_TRUE(restored.ok()) << restored.status();
}

TEST_F(BlockTamperTest, EveryByteOfDescriptorFailsClosed) {
  // Block 0 is the signed descriptor alone (about 150 bytes), so every
  // byte is swept: header (key_gen, write_gen), size, block count, the
  // generation vector, the tag root and the signature.
  auto blocks = WriteAndSnapshot(Content(4096 + 60));
  ASSERT_EQ(blocks.size(), 3u);
  ASSERT_TRUE(ColdRead().ok());
  const Bytes& wire = blocks[0];
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    ExpectFailClosedAt(0, pos, wire);
  }
  ASSERT_TRUE(ColdRead().ok());
}

TEST_F(BlockTamperTest, DescriptorFromAnotherInodeDetected) {
  // A validly signed descriptor of another file at the same write
  // generation, served as this file's block 0: the signature binds the
  // inode (and each file has its own DSK).
  auto blocks = WriteAndSnapshot(Content(4096 + 100));
  auto doc_gen = ObjectCodec::PeekDataHeader(blocks[0]);
  ASSERT_TRUE(doc_gen.ok());
  core::CreateOptions opts;
  opts.mode = World::ParseMode("rw-rw-r--");
  auto& alice = world_->client(kAlice);
  ASSERT_TRUE(alice.Create("/other.txt", opts).ok());
  auto other_attrs = alice.Getattr("/other.txt");
  ASSERT_TRUE(other_attrs.ok());
  // Migration wrote doc.txt at generation 1 and the write above at 2;
  // two writes bring other.txt to the same generation.
  ASSERT_TRUE(alice.WriteFile("/other.txt", Content(4096 + 100)).ok());
  ASSERT_TRUE(alice.WriteFile("/other.txt", Content(4096 + 100)).ok());
  auto other_desc = world_->server().store().Get(
      ssp::ObjectRef::Data(other_attrs->inode, 0));
  ASSERT_TRUE(other_desc.has_value());
  ASSERT_EQ(ObjectCodec::PeekDataHeader(*other_desc)->write_gen,
            doc_gen->write_gen);
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 0), *other_desc);
  auto read = ColdRead();
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(BlockTamperTest, OlderDescriptorToClientWithHistoryDetected) {
  // Bob has read the current version. The SSP then serves the previous
  // write's validly signed descriptor: bob's freshness record rejects
  // it, whatever chunks come with it.
  auto v2 = WriteAndSnapshot(Content(4096 * 2 + 100));
  Bytes v3_content = Content(4096 * 2 + 100);
  v3_content.back() ^= 0x5A;  // Only the last chunk changes.
  auto v3 = WriteAndSnapshot(v3_content);
  ASSERT_NE(v2[0], v3[0]);
  ASSERT_EQ(v2[1], v3[1]);  // The unchanged chunk was kept.
  auto read = ColdRead();
  ASSERT_TRUE(read.ok()) << read.status();
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 0), v2[0]);
  read = ColdRead();
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
  EXPECT_NE(read.status().message().find("rollback"), std::string::npos)
      << read.status();
}

TEST_F(BlockTamperTest, IntraFileBlockSwapDetected) {
  // Two validly sealed tails of the same file and generation, served at
  // each other's indices: the AEAD associated data binds the block
  // number, so both decodes fail closed.
  auto blocks = WriteAndSnapshot(Content(4096 * 2 + 100));
  ASSERT_EQ(blocks.size(), 4u);
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 2), blocks[3]);
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 3), blocks[2]);
  auto read = ColdRead();
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(BlockTamperTest, CrossFileSameIndexSwapDetected) {
  // A validly sealed block of *another* file served at the same index:
  // the associated data binds the inode.
  auto blocks = WriteAndSnapshot(Content(4096 + 100));
  ASSERT_EQ(blocks.size(), 3u);
  core::CreateOptions opts;
  opts.mode = World::ParseMode("rw-rw-r--");
  ASSERT_TRUE(world_->client(kAlice).Create("/other.txt", opts).ok());
  ASSERT_TRUE(world_->client(kAlice)
                  .WriteFile("/other.txt", Content(4096 + 100))
                  .ok());
  auto other_attrs = world_->client(kAlice).Getattr("/other.txt");
  ASSERT_TRUE(other_attrs.ok());
  auto other_tail = world_->server().store().Get(
      ssp::ObjectRef::Data(other_attrs->inode, 2));
  ASSERT_TRUE(other_tail.has_value());
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 2), *other_tail);
  auto read = ColdRead();
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(BlockTamperTest, StaleTailSetUnderCurrentDescriptorDetected) {
  // The SSP serves the *current* signed block 0 but the previous write's
  // tails — an internally consistent stale set. The descriptor's
  // generations and Merkle root both disagree with the stale tails.
  auto v2 = WriteAndSnapshot(Content(4096 * 2 + 100));
  Bytes v3_content = Content(4096 * 2 + 100);
  for (auto& b : v3_content) b ^= 0x5A;  // Rewrite every block.
  auto v3 = WriteAndSnapshot(v3_content);
  ASSERT_EQ(v3.size(), 4u);
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 2), v2[2]);
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 3), v2[3]);
  auto read = ColdRead();
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(BlockTamperTest, ForgedTailBlockByDekHolderDetected) {
  // The attack the Merkle root exists for: a *reader* holds the DEK
  // (symmetric), so they can mint a tail block whose AEAD tag verifies
  // and whose header matches the current generations exactly. Tail
  // blocks carry no signature — only the root inside the DSK-signed
  // block 0 can reject the forgery.
  auto blocks = WriteAndSnapshot(Content(4096 + 60));
  ASSERT_EQ(blocks.size(), 3u);
  ASSERT_TRUE(ColdRead().ok());

  // Replay the read chain with standalone machinery (the malicious
  // reader bypasses their client): superblock -> root dir metadata ->
  // table copy -> file metadata -> DEK.
  SimClock clock;
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.rng_seed = 0xF06;
  crypto::CryptoEngine eng(&clock, eng_opts);
  ObjectCodec codec(&eng, &world_->identity(), core::Scheme::kScheme2);

  auto sb_wire = world_->server().store().Get(
      ssp::ObjectRef::Superblock(kAlice));
  ASSERT_TRUE(sb_wire.has_value());
  auto sb = codec.DecodeSuperblock(world_->user_key(kAlice), *sb_wire);
  ASSERT_TRUE(sb.ok()) << sb.status();
  const core::PlainRef& root_ref = sb->root_ref;

  auto root_meta_wire =
      world_->server().store().Get(
          ssp::ObjectRef::Metadata(root_ref.inode, root_ref.selector));
  ASSERT_TRUE(root_meta_wire.has_value());
  auto root_view = codec.DecodeMetadataReplica(
      root_ref.inode, root_ref.selector, *root_meta_wire, root_ref.mek,
      root_ref.mvk);
  ASSERT_TRUE(root_view.ok()) << root_view.status();
  ASSERT_TRUE(root_view->dek.has_value() && root_view->dvk.has_value());

  auto head_wire = world_->server().store().Get(ssp::ObjectRef::Metadata(
      root_ref.inode, core::TableSelector(root_ref.selector)));
  ASSERT_TRUE(head_wire.has_value());
  auto head = codec.DecodeTableHead(root_ref.inode, root_ref.selector,
                                    *head_wire, *root_view->dek,
                                    *root_view->dvk);
  ASSERT_TRUE(head.ok()) << head.status();
  uint32_t bucket =
      codec.BucketOf(*root_view->dek, "doc.txt", head->depth);
  auto table_wire = world_->server().store().Get(ssp::ObjectRef::Metadata(
      root_ref.inode, core::BucketSelector(root_ref.selector, bucket)));
  ASSERT_TRUE(table_wire.has_value());
  auto table = codec.DecodeTableBucket(root_ref.inode, root_ref.selector,
                                       head->depth, bucket, *table_wire,
                                       *root_view->dek, *root_view->dvk);
  ASSERT_TRUE(table.ok()) << table.status();
  auto row = table->refs.find("doc.txt");
  ASSERT_NE(row, table->refs.end());
  ASSERT_EQ(row->second.kind, core::RowRef::Kind::kPlain);
  const core::PlainRef& file_ref = row->second.plain;

  auto file_meta_wire =
      world_->server().store().Get(
          ssp::ObjectRef::Metadata(file_ref.inode, file_ref.selector));
  ASSERT_TRUE(file_meta_wire.has_value());
  auto file_view = codec.DecodeMetadataReplica(
      file_ref.inode, file_ref.selector, *file_meta_wire, file_ref.mek,
      file_ref.mvk);
  ASSERT_TRUE(file_view.ok()) << file_view.status();
  ASSERT_TRUE(file_view->dek.has_value());

  // Mint a tail block: same inode/block/generations, bogus plaintext,
  // honest AEAD seal under the real DEK. (No DSK needed — chunk blocks
  // are unsigned.)
  auto header = ObjectCodec::PeekDataHeader(blocks[2]);
  ASSERT_TRUE(header.ok());
  Bytes bogus(60, '!');
  Bytes forged =
      codec.EncodeDataBlock(inode_, 2, *header, bogus, *file_view->dek);

  // Sanity: the forged block *is* cryptographically valid in isolation.
  ASSERT_TRUE(ObjectCodec::PeekDataTag(forged).ok());

  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 2), forged);
  auto read = ColdRead();
  ASSERT_FALSE(read.ok()) << "forged tail block was accepted";
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
  EXPECT_NE(read.status().message().find("tag root"), std::string::npos)
      << read.status();
}

}  // namespace
}  // namespace sharoes
