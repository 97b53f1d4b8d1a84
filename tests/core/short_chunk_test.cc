// Short chunks (DESIGN.md §13): an append to a warm file keeps every
// stored chunk and seals only the appended bytes, as chunks of their own,
// while the file's chunk count stays within the cold first read window.
// These tests pin the edges of that layout: tampering with a short chunk,
// the re-pack past the window and the tail it picks (RepackTail),
// shrinking, and revalidation after an append.

#include <gtest/gtest.h>

#include "core/object_codec.h"
#include "crypto/aead.h"
#include "obs/metrics.h"
#include "testing/world.h"

namespace sharoes {
namespace {

using core::kBlockSize;
using testing::kAlice;
using testing::kBob;
using testing::kEng;
using testing::World;

/// `n` bytes of `c`.
Bytes Fill(size_t n, char c) { return Bytes(n, static_cast<uint8_t>(c)); }

class ShortChunkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<World>();
    core::LocalNode root =
        core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
    root.children.push_back(core::LocalNode::File(
        "doc.txt", kAlice, kEng, World::ParseMode("rw-rw-r--"), Bytes()));
    ASSERT_TRUE(world_->MigrateAndMountAll(root).ok());
    auto attrs = alice().Getattr("/doc.txt");
    ASSERT_TRUE(attrs.ok());
    inode_ = attrs->inode;
  }

  core::SharoesClient& alice() { return world_->client(kAlice); }
  core::SharoesClient& bob() { return world_->client(kBob); }
  ssp::ObjectStore& store() { return world_->server().store(); }

  /// Alice's whole-file write, remembered as the expected content.
  void Write(const Bytes& content) {
    ASSERT_TRUE(alice().WriteFile("/doc.txt", content).ok());
    content_ = content;
  }
  /// Alice's append and close.
  void Append(const Bytes& extra) {
    ASSERT_TRUE(alice().Append("/doc.txt", extra).ok());
    ASSERT_TRUE(alice().Close("/doc.txt").ok());
    content_.insert(content_.end(), extra.begin(), extra.end());
  }

  /// The stored data blocks, by index.
  std::map<uint32_t, Bytes> Stored() {
    std::map<uint32_t, Bytes> out;
    for (uint32_t i = 0; i < 32; ++i) {
      auto blob = store().Get(ssp::ObjectRef::Data(inode_, i));
      if (blob.has_value()) out[i] = *blob;
    }
    return out;
  }
  /// The descriptor of alice's last write, from her cache.
  uint32_t BlockCount() {
    auto desc = alice().cache().Get<core::DataDescriptor>(
        "d|" + std::to_string(inode_) + "|0");
    return desc == nullptr ? 0 : desc->block_count;
  }
  /// The length of each stored chunk, in block order: a chunk block's
  /// wire is key_gen u32 | write_gen u64 | nonce | u32 length | ciphertext
  /// | tag | u32 0, and GCM ciphertext is as long as the chunk.
  std::vector<size_t> ChunkSizes() {
    std::vector<size_t> sizes;
    for (const auto& [idx, wire] : Stored()) {
      if (idx == 0) continue;
      BinaryReader r(wire);
      r.GetU32();
      r.GetU64();
      r.GetRaw(crypto::kAeadNonceSize);
      sizes.push_back(r.GetU32());
    }
    return sizes;
  }
  /// The store holds exactly blocks 0..BlockCount()-1.
  void ExpectNoBlockPastTheEnd() {
    std::map<uint32_t, Bytes> stored = Stored();
    ASSERT_FALSE(stored.empty());
    EXPECT_EQ(stored.size(), BlockCount());
    EXPECT_EQ(stored.rbegin()->first + 1, BlockCount());
  }

  Result<Bytes> ColdReadAsBob() {
    bob().DropCaches();
    return bob().Read("/doc.txt");
  }
  void ExpectCorruption() {
    auto read = ColdReadAsBob();
    ASSERT_FALSE(read.ok()) << "tampered file read as plaintext";
    EXPECT_TRUE(read.status().IsCorruption()) << read.status();
  }

  std::unique_ptr<World> world_;
  fs::InodeNum inode_ = 0;
  Bytes content_;
};

TEST_F(ShortChunkTest, AppendAddsAChunkOfItsOwnBytes) {
  Write(Fill(4000, 'a'));
  Append(Fill(300, 'b'));
  Append(Fill(200, 'c'));
  EXPECT_EQ(ChunkSizes(), (std::vector<size_t>{4000, 300, 200}));
  auto read = ColdReadAsBob();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, content_);
}

TEST_F(ShortChunkTest, SwappedDroppedOrStaleShortChunkIsCorruption) {
  Write(Fill(4000, 'a'));
  Append(Fill(300, 'b'));
  Append(Fill(300, 'c'));  // Same length as block 2: a swap keeps the size.
  std::map<uint32_t, Bytes> v1 = Stored();
  ASSERT_EQ(v1.size(), 4u);

  // Swapped: the two short chunks trade places.
  store().Put(ssp::ObjectRef::Data(inode_, 2), v1[3]);
  store().Put(ssp::ObjectRef::Data(inode_, 3), v1[2]);
  ExpectCorruption();
  store().Put(ssp::ObjectRef::Data(inode_, 2), v1[2]);
  store().Put(ssp::ObjectRef::Data(inode_, 3), v1[3]);
  auto read = ColdReadAsBob();
  ASSERT_TRUE(read.ok()) << read.status();

  // Dropped: the last short chunk is gone; the descriptor still counts it.
  store().Delete(ssp::ObjectRef::Data(inode_, 3));
  ExpectCorruption();
  store().Put(ssp::ObjectRef::Data(inode_, 3), v1[3]);

  // Stale: alice rewrites the last short chunk in place, and the SSP
  // serves its previous, validly sealed version under the new descriptor.
  Bytes edited = content_;
  edited.back() = 'Z';
  Write(edited);
  std::map<uint32_t, Bytes> v2 = Stored();
  ASSERT_EQ(v2.size(), 4u);
  EXPECT_EQ(v2[1], v1[1]);
  EXPECT_EQ(v2[2], v1[2]);
  EXPECT_NE(v2[3], v1[3]);
  store().Put(ssp::ObjectRef::Data(inode_, 3), v1[3]);
  ExpectCorruption();
}

TEST_F(ShortChunkTest, AppendsPastTheWindowRepackAndEachColdReadIsOneTrip) {
  // Bob's path is warm; each of his re-opens then costs the view, block 0
  // and the first window in one batch.
  Write(Fill(100, 'a'));
  ASSERT_TRUE(bob().Read("/doc.txt").ok());
  for (int i = 0; i < 9; ++i) {
    SCOPED_TRACE(i);
    Append(Fill(100, static_cast<char>('b' + i)));
    // Never more chunks than the cold first window holds, and no block
    // left past the descriptor's count.
    EXPECT_LE(BlockCount(), 1u + 4u);
    ExpectNoBlockPastTheEnd();
    ASSERT_TRUE(bob().EvictPath("/doc.txt").ok());
    world_->transport(kBob).ResetCounters();
    auto read = bob().Read("/doc.txt");
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, content_);
    EXPECT_EQ(world_->transport(kBob).counters().round_trips, 1u);
  }
  // Three short appends fill the window of four; the next re-packs into
  // one chunk (deleting blocks 2..4), and the run starts again. At 900 B
  // the cheapest tail keeps the 500 B chunk and re-packs the 400 B after
  // it; the ninth append's 100 follows.
  EXPECT_EQ(ChunkSizes(), (std::vector<size_t>{500, 400, 100}));
}

TEST_F(ShortChunkTest, RepackPastTheWindowKeepsFullChunksAndDeletesTheRest) {
  Write(Fill(2 * kBlockSize, 'a'));
  Append(Fill(100, 'b'));
  Append(Fill(100, 'c'));
  EXPECT_EQ(ChunkSizes(),
            (std::vector<size_t>{kBlockSize, kBlockSize, 100, 100}));
  std::map<uint32_t, Bytes> before = Stored();
  Append(Fill(100, 'd'));  // A fifth chunk: past the window of four.
  std::map<uint32_t, Bytes> after = Stored();
  EXPECT_EQ(ChunkSizes(), (std::vector<size_t>{kBlockSize, kBlockSize, 300}));
  ASSERT_EQ(after.size(), 4u);  // Block 4 was deleted in the same batch.
  ExpectNoBlockPastTheEnd();
  EXPECT_EQ(after[1], before[1]);
  EXPECT_EQ(after[2], before[2]);
  auto read = ColdReadAsBob();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, content_);
}

TEST_F(ShortChunkTest, ShrinkOfAShortChunkedFileLeavesNoBlockPastTheEnd) {
  Write(Fill(4000, 'a'));
  Append(Fill(300, 'b'));
  Append(Fill(200, 'c'));
  ASSERT_EQ(Stored().size(), 4u);
  Write(Fill(1000, 'x'));
  EXPECT_EQ(Stored().size(), 2u);
  ExpectNoBlockPastTheEnd();
  auto read = ColdReadAsBob();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, content_);
}

TEST_F(ShortChunkTest, WriterWithoutTheChunksCachedRewritesPacked) {
  Write(Fill(4000, 'a'));
  Append(Fill(300, 'b'));
  // Bob writes (the group may) with a cache that never saw the chunks.
  bob().DropCaches();
  ASSERT_TRUE(bob().Append("/doc.txt", Fill(50, 'q')).ok());
  ASSERT_TRUE(bob().Close("/doc.txt").ok());
  content_.insert(content_.end(), 50, 'q');
  auto read = ColdReadAsBob();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, content_);
  alice().DropCaches();
  read = alice().Read("/doc.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, content_);
}

TEST_F(ShortChunkTest, ReopenAfterAnAppendDownloadsOnlyTheNewChunk) {
  Write(Fill(4000, 'a'));
  ASSERT_TRUE(bob().Read("/doc.txt").ok());
  Append(Fill(300, 'b'));
  ASSERT_TRUE(bob().EvictPath("/doc.txt").ok());
  auto* not_modified = obs::MetricsRegistry::Global().counter(
      "ssp.responses.kNotModified");
  const uint64_t nm = not_modified->Value();
  net::Transport& link = world_->transport(kBob);
  link.ResetCounters();
  auto read = bob().Read("/doc.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, content_);
  EXPECT_EQ(not_modified->Value() - nm, 2u);  // The view, the 4000 B chunk.
  EXPECT_EQ(link.counters().round_trips, 1u);
  EXPECT_LT(link.counters().bytes_down, 300u + 1000u);
}

TEST_F(ShortChunkTest, RewriteToTheBaseKeepsEveryBaseChunk) {
  // A base of three chunks (4096, 4096, 808), seven short appends, then
  // the owner's rewrite to the base: the base's chunks are never
  // re-sealed, so the store holds their first blobs, and a reader who
  // read the base re-opens without downloading a chunk.
  Bytes base(2 * kBlockSize + 808);
  for (size_t i = 0; i < base.size(); ++i) base[i] = static_cast<uint8_t>(i);
  Write(base);
  ASSERT_TRUE(bob().Read("/doc.txt").ok());
  std::map<uint32_t, Bytes> first = Stored();
  ASSERT_EQ(first.size(), 4u);
  for (size_t n : {64, 100, 128, 90, 80, 120, 110}) {
    Append(Fill(n, 'x'));
    std::map<uint32_t, Bytes> now = Stored();
    for (uint32_t i = 1; i <= 3; ++i) EXPECT_EQ(now[i], first[i]) << i;
  }
  Write(base);
  std::map<uint32_t, Bytes> after = Stored();
  ASSERT_EQ(after.size(), 4u);
  for (uint32_t i = 1; i <= 3; ++i) EXPECT_EQ(after[i], first[i]) << i;

  ASSERT_TRUE(bob().EvictPath("/doc.txt").ok());
  auto* not_modified = obs::MetricsRegistry::Global().counter(
      "ssp.responses.kNotModified");
  const uint64_t nm = not_modified->Value();
  net::Transport& link = world_->transport(kBob);
  link.ResetCounters();
  auto read = bob().Read("/doc.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, base);
  EXPECT_EQ(not_modified->Value() - nm, 4u);  // The view and three chunks.
  EXPECT_EQ(link.counters().round_trips, 1u);
  EXPECT_LT(link.counters().bytes_down, 808u) << "a chunk was downloaded";
}

TEST_F(ShortChunkTest, GrowingFileUploadStaysBounded) {
  // The case the amortized score can lose: a small file that keeps
  // growing re-packs now and then. Each append still uploads at most one
  // chunk's worth beyond its own bytes, and every re-open stays one trip.
  // The framing covers the descriptor block, the batch envelope and the
  // per-block wire of a re-pack (headers, nonces, tags, deletes).
  constexpr size_t kFraming = 1024;
  Write(Fill(500, 'a'));
  ASSERT_TRUE(bob().Read("/doc.txt").ok());
  net::Transport& up = world_->transport(kAlice);
  for (size_t i = 0; i < 40; ++i) {
    SCOPED_TRACE(i);
    const size_t n = 64 + (i * 197) % 449;  // 64..512 B.
    up.ResetCounters();
    Append(Fill(n, static_cast<char>('b' + i % 24)));
    EXPECT_LE(up.counters().bytes_up, kBlockSize + n + kFraming);
    EXPECT_LE(BlockCount(), 1u + 4u);
    ExpectNoBlockPastTheEnd();
    ASSERT_TRUE(bob().EvictPath("/doc.txt").ok());
    world_->transport(kBob).ResetCounters();
    auto read = bob().Read("/doc.txt");
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, content_);
    EXPECT_EQ(world_->transport(kBob).counters().round_trips, 1u);
  }
}

/// RepackTail from `old_ends` after one append per entry of `appends`,
/// under the bound a writer uses, max(4, ChunkCount(size)).
std::vector<std::vector<size_t>> Grow(std::vector<size_t> ends,
                                      const std::vector<size_t>& appends) {
  std::vector<std::vector<size_t>> layouts;
  for (size_t n : appends) {
    const size_t size = (ends.empty() ? 0 : ends.back()) + n;
    ends = core::RepackTail(ends, size,
                            std::max<size_t>(4, core::ChunkCount(size)));
    layouts.push_back(ends);
  }
  return layouts;
}

TEST(RepackTailTest, PicksTheTailWithTheFewestBytesPerAppend) {
  struct Case {
    const char* name;
    std::vector<size_t> old_ends;
    size_t size;
    size_t bound;
    std::vector<size_t> want;
  };
  const std::vector<Case> cases = {
      {"within the bound the new bytes are a chunk of their own",
       {4096, 8192, 9000}, 9064, 4, {4096, 8192, 9000, 9064}},
      {"a base's short chunk outlives small appends",
       {4096, 8192, 9000, 9064}, 9164, 4, {4096, 8192, 9000, 9164}},
      {"appends that outweigh it re-pack it: room for two more",
       {4096, 8192, 9000, 9500}, 9900, 4, {4096, 8192, 9900}},
      {"four short chunks re-pack whole",
       {100, 200, 300, 400}, 500, 4, {500}},
      {"a small file keeps its first chunk",
       {500, 600, 700, 800}, 900, 4, {500, 900}},
      {"full chunks stay, the short ones re-pack",
       {4096, 8192, 8292, 8392}, 8492, 4, {4096, 8192, 8492}},
      {"no tail fits: packed",
       {100, 4196, 8292, 12388, 16484}, 16584, 5,
       core::PackedChunkEnds(16584)},
      {"an empty file", {}, 9000, 4, {4096, 8192, 9000}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(core::RepackTail(c.old_ends, c.size, c.bound), c.want)
        << c.name;
  }
}

TEST(RepackTailTest, BaseChunksSurviveSevenAppends) {
  // The appends add up to less than the base's 808 B chunk, so each
  // re-pack takes only the appended bytes (see the table's crossover).
  const std::vector<size_t> base = {4096, 8192, 9000};
  const auto layouts = Grow(base, {64, 100, 128, 90, 80, 120, 110});
  for (const auto& ends : layouts) {
    ASSERT_GE(ends.size(), 3u);
    EXPECT_EQ(std::vector<size_t>(ends.begin(), ends.begin() + 3), base);
    EXPECT_LE(ends.size(), 4u);
  }
  EXPECT_EQ(layouts.back(), (std::vector<size_t>{4096, 8192, 9000, 9692}));
}

TEST(RepackTailTest, SmallFilesThatKeepGrowing) {
  // The AppendsPastTheWindow... scenario: 100 B, then 100 B appends.
  auto layouts = Grow({100}, std::vector<size_t>(9, 100));
  EXPECT_EQ(layouts[3], (std::vector<size_t>{500}));
  EXPECT_EQ(layouts[7], (std::vector<size_t>{500, 900}));
  EXPECT_EQ(layouts.back(), (std::vector<size_t>{500, 900, 1000}));
  // 500 B, then 100 B appends: each re-pack keeps the chunks before it.
  layouts = Grow({500}, std::vector<size_t>(8, 100));
  EXPECT_EQ(layouts.back(), (std::vector<size_t>{500, 900, 1200, 1300}));
  for (const auto& ends : layouts) EXPECT_LE(ends.size(), 4u);
}

}  // namespace
}  // namespace sharoes
