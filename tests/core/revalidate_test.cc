// Close-to-open revalidation (DESIGN.md §19): a re-open (EvictPath) keeps
// the chunk blocks the reader opened from fetched wire as candidates, and
// the next read asks for each by digest in the batch that carries block
// 0. Unchanged chunks come back as kNotModified, with no bytes; a changed,
// tampered or falsely "not modified" chunk never reads as stale content.

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "testing/world.h"

namespace sharoes {
namespace {

using testing::kAlice;
using testing::kBob;
using testing::kEng;
using testing::World;

constexpr size_t kBlock = 4096;

/// Content of `chunks` full blocks, each a different byte from `seed`.
Bytes Blocks(size_t chunks, uint8_t seed) {
  Bytes b;
  for (size_t i = 0; i < chunks; ++i) {
    b.insert(b.end(), kBlock, static_cast<uint8_t>(seed + i));
  }
  return b;
}

/// Forwards to a real in-process connection, but answers every
/// conditional data get kNotModified, whatever the SSP holds: a faulty
/// SSP claiming a changed chunk is unchanged.
class NotModifiedLiar : public ssp::SspChannel {
 public:
  explicit NotModifiedLiar(ssp::SspChannel* inner) : inner_(inner) {}

  Result<ssp::Response> Call(const ssp::Request& req) override {
    SHAROES_ASSIGN_OR_RETURN(ssp::Response resp, inner_->Call(req));
    if (req.op != ssp::OpCode::kBatch) {
      Lie(req, &resp);
    } else if (resp.batch.size() == req.batch.size()) {
      for (size_t i = 0; i < req.batch.size(); ++i) {
        Lie(req.batch[i], &resp.batch[i]);
      }
    }
    return resp;
  }

  int lies() const { return lies_; }

 private:
  void Lie(const ssp::Request& req, ssp::Response* resp) {
    if (req.op == ssp::OpCode::kGetData && !req.payload.empty() &&
        resp->status == ssp::RespStatus::kOk) {
      *resp = ssp::Response::NotModified();
      ++lies_;
    }
  }

  ssp::SspChannel* inner_;  // Not owned.
  int lies_ = 0;
};

class RevalidateTest : public ::testing::Test {
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

  core::SharoesClient& alice() { return world_->client(kAlice); }
  core::SharoesClient& bob() { return world_->client(kBob); }

  uint64_t NotModifiedReplies() {
    return obs::MetricsRegistry::Global()
        .counter("ssp.not_modified")
        ->Value();
  }

  /// Bob's re-open and read of /doc.txt, with the wire it cost him.
  struct Reread {
    Result<Bytes> content = Bytes();
    uint64_t round_trips = 0;
    uint64_t bytes_down = 0;
    uint64_t not_modified = 0;
  };
  Reread ReopenAsBob() {
    EXPECT_TRUE(bob().EvictPath("/doc.txt").ok());
    net::Transport& link = world_->transport(kBob);
    link.ResetCounters();
    const uint64_t nm = NotModifiedReplies();
    Reread r;
    r.content = bob().Read("/doc.txt");
    r.round_trips = link.counters().round_trips;
    r.bytes_down = link.counters().bytes_down;
    r.not_modified = NotModifiedReplies() - nm;
    return r;
  }

  /// A second client of Bob's whose SSP replies go through `liar_`.
  std::unique_ptr<core::SharoesClient> LiedToBob() {
    crypto::CryptoEngineOptions eng_opts;
    eng_opts.cost_model = crypto::CryptoCostModel::Zero();
    eng_opts.signing_key_bits = 512;
    eng_opts.rng_seed = 0xB0B;
    engine_ = std::make_unique<crypto::CryptoEngine>(&world_->clock(),
                                                     eng_opts);
    transport_ = std::make_unique<net::Transport>(&world_->clock(),
                                                  net::NetworkModel::Zero());
    real_ = std::make_unique<ssp::SspConnection>(&world_->server(),
                                                 transport_.get());
    liar_ = std::make_unique<NotModifiedLiar>(real_.get());
    core::ClientOptions copts;
    copts.default_group = kEng;
    auto bob = std::make_unique<core::SharoesClient>(
        kBob, world_->user_key(kBob), &world_->identity(), liar_.get(),
        engine_.get(), copts);
    EXPECT_TRUE(bob->Mount().ok());
    return bob;
  }

  std::unique_ptr<World> world_;
  fs::InodeNum inode_ = 0;
  std::unique_ptr<crypto::CryptoEngine> engine_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<ssp::SspConnection> real_;
  std::unique_ptr<NotModifiedLiar> liar_;
};

TEST_F(RevalidateTest, ReopenOfAnUnchangedFileDownloadsNoChunk) {
  const Bytes content = Blocks(3, 'a');
  ASSERT_TRUE(alice().WriteFile("/doc.txt", content).ok());
  ASSERT_TRUE(bob().Read("/doc.txt").ok());

  Reread again = ReopenAsBob();
  ASSERT_TRUE(again.content.ok()) << again.content.status();
  EXPECT_EQ(*again.content, content);
  EXPECT_EQ(again.not_modified, 3u);
  // One batch: the metadata replica, block 0 and three conditional gets.
  EXPECT_EQ(again.round_trips, 1u);
  EXPECT_LT(again.bytes_down, kBlock) << "a chunk was downloaded again";

  // The reference: alice's re-open of her own write holds no candidate
  // and downloads every chunk, in as many round trips.
  ASSERT_TRUE(alice().EvictPath("/doc.txt").ok());
  world_->transport(kAlice).ResetCounters();
  ASSERT_TRUE(alice().Read("/doc.txt").ok());
  EXPECT_EQ(world_->transport(kAlice).counters().round_trips, 1u);
  EXPECT_GT(world_->transport(kAlice).counters().bytes_down, 3 * kBlock);
}

TEST_F(RevalidateTest, RemoteRewriteOfOneChunkDownloadsOnlyThatChunk) {
  ASSERT_TRUE(alice().WriteFile("/doc.txt", Blocks(3, 'a')).ok());
  ASSERT_TRUE(bob().Read("/doc.txt").ok());
  Bytes next = Blocks(3, 'a');
  next[kBlock + 7] = 'Z';  // Chunk 2 (block 2) changes; 1 and 3 keep.
  ASSERT_TRUE(alice().WriteFile("/doc.txt", next).ok());

  Reread again = ReopenAsBob();
  ASSERT_TRUE(again.content.ok()) << again.content.status();
  EXPECT_EQ(*again.content, next);
  EXPECT_EQ(again.not_modified, 2u);
  EXPECT_EQ(again.round_trips, 1u);
  EXPECT_GT(again.bytes_down, kBlock);
  EXPECT_LT(again.bytes_down, 2 * kBlock);
}

TEST_F(RevalidateTest, BlocksTheReaderSealedItselfAreNotCandidates) {
  // Alice reads back her own write: her blocks carry no digest, so her
  // re-open downloads them as before and asks nothing conditionally.
  const Bytes content = Blocks(2, 'k');
  ASSERT_TRUE(alice().WriteFile("/doc.txt", content).ok());
  ASSERT_TRUE(alice().EvictPath("/doc.txt").ok());
  const uint64_t nm = NotModifiedReplies();
  auto read = alice().Read("/doc.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, content);
  EXPECT_EQ(NotModifiedReplies(), nm);
}

TEST_F(RevalidateTest, FalseNotModifiedForAChangedChunkNeverReadsStale) {
  // 2 chunks sit in the first data window; 7 run past it, into the
  // strict path's readahead windows.
  for (size_t chunks : {2, 7}) {
    SCOPED_TRACE(chunks);
    ASSERT_TRUE(alice().WriteFile("/doc.txt", Blocks(chunks, 'a')).ok());
    auto lied_to = LiedToBob();
    ASSERT_TRUE(lied_to->Read("/doc.txt").ok());
    // Every chunk changes; the faulty SSP claims each is unchanged.
    const Bytes next = Blocks(chunks, 'q');
    ASSERT_TRUE(alice().WriteFile("/doc.txt", next).ok());
    ASSERT_TRUE(lied_to->EvictPath("/doc.txt").ok());
    const int lies = liar_->lies();
    auto read = lied_to->Read("/doc.txt");
    EXPECT_EQ(liar_->lies() - lies, static_cast<int>(chunks));
    // The candidates fail the new descriptor's write generations and are
    // fetched again without a digest: the current content.
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, next);
  }
}

TEST_F(RevalidateTest, TamperedStoredChunkIsStillCorruption) {
  ASSERT_TRUE(alice().WriteFile("/doc.txt", Blocks(2, 'a')).ok());
  ASSERT_TRUE(bob().Read("/doc.txt").ok());
  auto& store = world_->server().store();
  auto blob = store.Get(ssp::ObjectRef::Data(inode_, 2));
  ASSERT_TRUE(blob.has_value());
  (*blob)[blob->size() / 2] ^= 0x01;
  store.Put(ssp::ObjectRef::Data(inode_, 2), *blob);

  Reread again = ReopenAsBob();
  EXPECT_EQ(again.not_modified, 1u);  // Block 1 is untouched.
  ASSERT_FALSE(again.content.ok());
  EXPECT_TRUE(again.content.status().IsCorruption()) << again.content.status();
}

TEST_F(RevalidateTest, DropCachesKeepsNoCandidate) {
  ASSERT_TRUE(alice().WriteFile("/doc.txt", Blocks(2, 'a')).ok());
  ASSERT_TRUE(bob().Read("/doc.txt").ok());
  ASSERT_TRUE(bob().EvictPath("/doc.txt").ok());
  bob().DropCaches();
  const uint64_t nm = NotModifiedReplies();
  auto read = bob().Read("/doc.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(NotModifiedReplies(), nm);
}

// Regression: a reader whose cache lost a file's descriptor (block 0) but
// kept its chunks read a remote rewrite as a tag-root mismatch. The LRU
// drops the descriptor first, since a read touches it before the chunks.
TEST_F(RevalidateTest, LostDescriptorWithCachedChunksReadsTheRewrite) {
  ASSERT_TRUE(alice().WriteFile("/doc.txt", Blocks(2, 'a')).ok());
  ASSERT_TRUE(bob().Read("/doc.txt").ok());
  const Bytes next = Blocks(2, 'n');
  ASSERT_TRUE(alice().WriteFile("/doc.txt", next).ok());
  bob().cache().Erase("d|" + std::to_string(inode_) + "|0");
  auto read = bob().Read("/doc.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, next);
}

}  // namespace
}  // namespace sharoes
