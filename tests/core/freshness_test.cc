// Freshness / rollback-detection tests (the paper's §VIII future work:
// "we plan to implement integrity mechanisms for SHAROES, leveraging
// some of the related work [SUNDR]").
//
// Every file carries a monotonically increasing, signature-covered write
// generation. A client remembers the highest generation it has observed
// per inode; a malicious SSP serving an older (validly signed) version —
// a rollback/replay attack — is detected. Mixing blocks across
// generations is detected too.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "testing/world.h"

namespace sharoes {
namespace {

using testing::kAlice;
using testing::kBob;
using testing::kEng;
using testing::World;

/// Forwards to a real in-process connection. Armed by LoseNextWriteAck,
/// the next mutating batch is applied and its reply lost: the call
/// returns Unavailable, as when the link dies after the SSP acted. Armed
/// by RejectNextWrite, the mutating batch after `pass` others is not
/// applied, and the call returns `status`.
class LostAckChannel : public ssp::SspChannel {
 public:
  explicit LostAckChannel(ssp::SspChannel* inner) : inner_(inner) {}

  void LoseNextWriteAck() { armed_ = true; }
  void RejectNextWrite(Status status, int pass = 0) {
    reject_ = std::move(status);
    reject_after_ = pass;
  }

  Result<ssp::Response> Call(const ssp::Request& req) override {
    bool mutates = ssp::IsMutatingOp(req.op);
    for (const ssp::Request& sub : req.batch) {
      mutates = mutates || ssp::IsMutatingOp(sub.op);
    }
    if (mutates && !reject_.ok() && reject_after_-- == 0) {
      return std::exchange(reject_, Status::OK());
    }
    Result<ssp::Response> resp = inner_->Call(req);
    if (armed_ && mutates && resp.ok() && resp->ok()) {
      armed_ = false;
      return Status::Unavailable("reply lost after the batch applied");
    }
    return resp;
  }

 private:
  ssp::SspChannel* inner_;  // Not owned.
  bool armed_ = false;
  Status reject_;  // OK: not armed.
  int reject_after_ = 0;
};

class FreshnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<World>();
    core::LocalNode root =
        core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
    root.children.push_back(core::LocalNode::File(
        "log.txt", kAlice, kEng, World::ParseMode("rw-rw-r--"),
        ToBytes("v1")));
    ASSERT_TRUE(world_->MigrateAndMountAll(root).ok());
    auto attrs = world_->client(kAlice).Getattr("/log.txt");
    ASSERT_TRUE(attrs.ok());
    inode_ = attrs->inode;
  }

  /// Snapshots the file's current blocks (a malicious SSP's "backup").
  std::map<uint32_t, Bytes> SnapshotBlocks() {
    std::map<uint32_t, Bytes> out;
    for (uint32_t i = 0; i < 16; ++i) {
      auto blob = world_->server().store().Get(ssp::ObjectRef::Data(inode_, i));
      if (blob.has_value()) out[i] = *blob;
    }
    return out;
  }

  void RestoreBlocks(const std::map<uint32_t, Bytes>& blocks) {
    world_->server().store().DeleteInode(ssp::ObjectFamily::kData, inode_);
    for (const auto& [idx, blob] : blocks) {
      world_->server().store().Put(ssp::ObjectRef::Data(inode_, idx), blob);
    }
  }

  /// A second client of Alice's whose SSP replies go through `lossy_`,
  /// staging `write_batch_ops` sub-ops per flush (0 = no staging).
  std::unique_ptr<core::SharoesClient> LossyAlice(size_t write_batch_ops) {
    crypto::CryptoEngineOptions eng_opts;
    eng_opts.cost_model = crypto::CryptoCostModel::Zero();
    eng_opts.rng_seed = 0xFE5C;
    engine_ = std::make_unique<crypto::CryptoEngine>(&world_->clock(),
                                                     eng_opts);
    transport_ = std::make_unique<net::Transport>(&world_->clock(),
                                                  net::NetworkModel::Zero());
    real_ = std::make_unique<ssp::SspConnection>(&world_->server(),
                                                 transport_.get());
    lossy_ = std::make_unique<LostAckChannel>(real_.get());
    core::ClientOptions copts;
    copts.default_group = kEng;
    copts.write_batch_ops = write_batch_ops;
    auto alice = std::make_unique<core::SharoesClient>(
        kAlice, world_->user_key(kAlice), &world_->identity(), lossy_.get(),
        engine_.get(), copts);
    EXPECT_TRUE(alice->Mount().ok());
    return alice;
  }

  /// Alice commits v2, then v3 whose batch applies but whose reply is
  /// lost; Bob reads v3. Alice's next write must take a generation past
  /// v3's, or Bob sees two contents under one generation.
  void RewriteAfterLostAck(size_t write_batch_ops) {
    auto alice = LossyAlice(write_batch_ops);
    auto& bob = world_->client(kBob);
    ASSERT_TRUE(alice->WriteFile("/log.txt", ToBytes("v2")).ok());
    lossy_->LoseNextWriteAck();
    Status lost = alice->WriteFile("/log.txt", ToBytes("v3, reply lost"));
    ASSERT_TRUE(lost.IsUnavailable()) << lost;
    bob.DropCaches();
    auto seen = bob.Read("/log.txt");
    ASSERT_TRUE(seen.ok()) << seen.status();
    EXPECT_EQ(ToString(*seen), "v3, reply lost");

    ASSERT_TRUE(alice->WriteFile("/log.txt", ToBytes("v4")).ok());
    bob.DropCaches();
    auto read = bob.Read("/log.txt");
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(ToString(*read), "v4");
  }

  /// Alice writes v2 and Close's flush fails transiently, unapplied: the
  /// stage and the pending version are kept, so her cached read still
  /// shows v2 (read-your-writes).
  std::unique_ptr<core::SharoesClient> WriteAcrossATransientFailure() {
    auto alice = LossyAlice(/*write_batch_ops=*/64);
    lossy_->RejectNextWrite(Status::Unavailable("link down"));
    Status s = alice->WriteFile("/log.txt", ToBytes("v2, staged"));
    EXPECT_TRUE(s.IsUnavailable()) << s;
    auto cached = alice->Read("/log.txt");
    EXPECT_TRUE(cached.ok()) << cached.status();
    if (cached.ok()) {
      EXPECT_EQ(ToString(*cached), "v2, staged");
    }
    return alice;
  }

  std::unique_ptr<World> world_;
  fs::InodeNum inode_ = 0;
  std::unique_ptr<crypto::CryptoEngine> engine_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<ssp::SspConnection> real_;
  std::unique_ptr<LostAckChannel> lossy_;
};

TEST_F(FreshnessTest, GenerationsIncreaseAcrossWrites) {
  auto& alice = world_->client(kAlice);
  auto gen_of = [&] {
    auto blob = world_->server().store().Get(ssp::ObjectRef::Data(inode_, 0));
    EXPECT_TRUE(blob.has_value());
    auto header = core::ObjectCodec::PeekDataHeader(*blob);
    EXPECT_TRUE(header.ok());
    return header->write_gen;
  };
  EXPECT_EQ(gen_of(), 1u);  // Migration wrote generation 1.
  ASSERT_TRUE(alice.WriteFile("/log.txt", ToBytes("v2")).ok());
  EXPECT_EQ(gen_of(), 2u);
  ASSERT_TRUE(alice.WriteFile("/log.txt", ToBytes("v3")).ok());
  EXPECT_EQ(gen_of(), 3u);
}

TEST_F(FreshnessTest, RollbackDetectedByClientWithHistory) {
  auto& alice = world_->client(kAlice);
  auto& bob = world_->client(kBob);

  // Bob reads v1 (observes generation 1), alice writes v2, bob reads v2
  // (observes generation 2).
  ASSERT_TRUE(bob.Read("/log.txt").ok());
  std::map<uint32_t, Bytes> old_blocks = SnapshotBlocks();
  ASSERT_TRUE(alice.WriteFile("/log.txt", ToBytes("v2 content")).ok());
  bob.DropCaches();
  auto v2 = bob.Read("/log.txt");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(ToString(*v2), "v2 content");

  // The malicious SSP now rolls the file back to the validly-signed v1.
  RestoreBlocks(old_blocks);
  bob.DropCaches();
  auto rolled = bob.Read("/log.txt");
  EXPECT_FALSE(rolled.ok());
  EXPECT_TRUE(rolled.status().IsCorruption()) << rolled.status();
  EXPECT_NE(rolled.status().message().find("rollback"), std::string::npos);
}

TEST_F(FreshnessTest, FreshClientCannotDetectRollback) {
  // The documented limitation (same as SUNDR's fork consistency): a
  // client with no history accepts the rolled-back version.
  auto& alice = world_->client(kAlice);
  std::map<uint32_t, Bytes> old_blocks = SnapshotBlocks();
  ASSERT_TRUE(alice.WriteFile("/log.txt", ToBytes("v2 content")).ok());
  RestoreBlocks(old_blocks);
  ASSERT_TRUE(world_->Mount(kBob).ok());  // Fresh client, no memory.
  auto read = world_->client(kBob).Read("/log.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "v1");
}

TEST_F(FreshnessTest, MixedGenerationBlocksDetected) {
  auto& alice = world_->client(kAlice);
  // Write a multi-block v2, snapshot, then write multi-block v3.
  Bytes v2(9000, 'b');
  ASSERT_TRUE(alice.WriteFile("/log.txt", v2).ok());
  std::map<uint32_t, Bytes> v2_blocks = SnapshotBlocks();
  Bytes v3(9000, 'c');
  ASSERT_TRUE(alice.WriteFile("/log.txt", v3).ok());
  // The SSP serves v3's block 0 but v2's tail blocks.
  world_->server().store().Put(ssp::ObjectRef::Data(inode_, 1), v2_blocks[1]);
  world_->client(kBob).DropCaches();
  auto read = world_->client(kBob).Read("/log.txt");
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(FreshnessTest, WriterWithoutHistoryContinuesSequence) {
  // Bob overwrites a file he never read: his client peeks the stored
  // generation so other clients' freshness memory stays consistent.
  auto& alice = world_->client(kAlice);
  auto& bob = world_->client(kBob);
  ASSERT_TRUE(alice.Read("/log.txt").ok());  // alice remembers gen 1.
  ASSERT_TRUE(bob.WriteFile("/log.txt", ToBytes("bob's rewrite")).ok());
  alice.DropCaches();
  auto read = alice.Read("/log.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "bob's rewrite");
}

TEST_F(FreshnessTest, ImmediateRevocationAdvancesGeneration) {
  auto& alice = world_->client(kAlice);
  ASSERT_TRUE(alice.Read("/log.txt").ok());
  std::map<uint32_t, Bytes> old_blocks = SnapshotBlocks();
  // chmod with revocation rewrites the data; a later SSP rollback to the
  // pre-revocation ciphertext must be detected by knowing clients.
  ASSERT_TRUE(alice.Chmod("/log.txt", World::ParseMode("rw-rw----")).ok());
  RestoreBlocks(old_blocks);
  alice.DropCaches();
  auto read = alice.Read("/log.txt");
  EXPECT_FALSE(read.ok());
}

TEST_F(FreshnessTest, DroppedDataDoesNotReadAsEmpty) {
  // Bob has seen generation 1. An SSP that then drops the file's data
  // blocks (but keeps its metadata) must not make it read as empty.
  auto& bob = world_->client(kBob);
  ASSERT_TRUE(bob.Read("/log.txt").ok());
  world_->server().store().DeleteInode(ssp::ObjectFamily::kData, inode_);
  ASSERT_TRUE(bob.EvictPath("/log.txt").ok());
  auto read = bob.Read("/log.txt");
  EXPECT_FALSE(read.ok()) << "read " << read->size() << " bytes";
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(FreshnessTest, DataGoneWithItsMetadataIsNotFound) {
  // A file Bob has seen written loses its data to a legitimate unlink:
  // the metadata goes too, and the read says NotFound, not Corruption.
  auto& bob = world_->client(kBob);
  ASSERT_TRUE(bob.Read("/log.txt").ok());
  // Bob keeps the view but not the data (a Getattr after an evict), so
  // the read below resolves the file and then finds no block 0.
  ASSERT_TRUE(bob.EvictPath("/log.txt").ok());
  ASSERT_TRUE(bob.Getattr("/log.txt").ok());
  ASSERT_TRUE(world_->client(kAlice).Unlink("/log.txt").ok());
  auto read = bob.Read("/log.txt");
  EXPECT_FALSE(read.ok()) << "read " << read->size() << " bytes";
  EXPECT_TRUE(read.status().IsNotFound()) << read.status();
}

TEST_F(FreshnessTest, LostCommitReplyDoesNotReuseTheGeneration) {
  RewriteAfterLostAck(/*write_batch_ops=*/0);
}

TEST_F(FreshnessTest, LostFlushReplyDoesNotReuseTheGeneration) {
  // Staging on, a flush at every batch: the failed threshold flush keeps
  // its stage, and Close replays it.
  RewriteAfterLostAck(/*write_batch_ops=*/1);
}

TEST_F(FreshnessTest, FailedCommitKeepsTheRollbackFloor) {
  // After a failed commit the writer still knows the generation it
  // committed before: an SSP serving an older block 0 is a rollback.
  auto alice = LossyAlice(/*write_batch_ops=*/0);
  std::map<uint32_t, Bytes> v1_blocks = SnapshotBlocks();
  ASSERT_TRUE(alice->WriteFile("/log.txt", ToBytes("v2")).ok());
  lossy_->LoseNextWriteAck();
  ASSERT_FALSE(alice->WriteFile("/log.txt", ToBytes("v3")).ok());
  RestoreBlocks(v1_blocks);
  auto read = alice->Read("/log.txt");
  EXPECT_FALSE(read.ok()) << "read " << ToString(*read);
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

TEST_F(FreshnessTest, RejectedFlushLeavesTheStoredVersion) {
  // A staged write counts only once the SSP acknowledges it. The flush
  // carrying v2 is rejected unapplied, so neither the writer's cache nor
  // its rollback floor may keep v2: both reads return the stored v1.
  auto alice = LossyAlice(/*write_batch_ops=*/64);
  lossy_->RejectNextWrite(Status::IoError("batch rejected"));
  Status s = alice->WriteFile("/log.txt", ToBytes("v2, never stored"));
  ASSERT_TRUE(s.IsIoError()) << s;
  for (bool drop_caches : {false, true}) {
    if (drop_caches) alice->DropCaches();
    auto read = alice->Read("/log.txt");
    ASSERT_TRUE(read.ok()) << "drop_caches=" << drop_caches << ": "
                           << read.status();
    EXPECT_EQ(ToString(*read), "v1") << "drop_caches=" << drop_caches;
  }
  ASSERT_TRUE(alice->WriteFile("/log.txt", ToBytes("v3")).ok());
  auto seen = world_->client(kBob).Read("/log.txt");
  ASSERT_TRUE(seen.ok()) << seen.status();
  EXPECT_EQ(ToString(*seen), "v3");
}

TEST_F(FreshnessTest, TransientFailureThenRejectedReplayReadsV1) {
  auto alice = WriteAcrossATransientFailure();
  lossy_->RejectNextWrite(Status::IoError("batch rejected"));
  Status s = alice->Fsync();
  ASSERT_TRUE(s.IsIoError()) << s;
  alice->DropCaches();
  auto read = alice->Read("/log.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "v1");
}

TEST_F(FreshnessTest, TransientFailureThenReplayRaisesTheRollbackFloor) {
  std::map<uint32_t, Bytes> v1_blocks = SnapshotBlocks();
  auto alice = WriteAcrossATransientFailure();
  ASSERT_TRUE(alice->Fsync().ok());
  RestoreBlocks(v1_blocks);
  alice->DropCaches();
  auto read = alice->Read("/log.txt");
  EXPECT_FALSE(read.ok()) << "read " << ToString(*read);
  EXPECT_TRUE(read.status().IsCorruption()) << read.status();
}

/// A mutation whose batch the SSP rejects leaves no phantom state behind,
/// with staging off (the immediate batch fails) and on (the flush fails).
class FailedMutationTest : public FreshnessTest,
                           public ::testing::WithParamInterface<size_t> {
 protected:
  /// Runs `op` with the batch that carries it rejected (with staging off,
  /// after `pass` earlier batches of the op went through); a staged op's
  /// error surfaces at the Fsync.
  template <typename Op>
  void Reject(core::SharoesClient* client, int pass, Op op) {
    lossy_->RejectNextWrite(Status::IoError("batch rejected"),
                            GetParam() == 0 ? pass : 0);
    Status s = op();
    if (s.ok()) s = client->Fsync();
    ASSERT_TRUE(s.IsIoError()) << s;
  }
};

TEST_P(FailedMutationTest, RejectedCreateLeavesNoPhantom) {
  auto alice = LossyAlice(GetParam());
  core::CreateOptions fmode;
  fmode.mode = World::ParseMode("rw-rw-r--");
  // Staging off: the child's metadata is stored, the parent's tables
  // (the second batch) are rejected.
  ASSERT_NO_FATAL_FAILURE(Reject(alice.get(), /*pass=*/1, [&] {
    return alice->Create("/new.txt", fmode);
  }));
  auto attrs = alice->Getattr("/new.txt");
  EXPECT_TRUE(attrs.status().IsNotFound()) << attrs.status();
  auto names = alice->Readdir("/");
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(std::count(names->begin(), names->end(), "new.txt"), 0);
  Status again = alice->Create("/new.txt", fmode);
  ASSERT_TRUE(again.ok()) << again;
  ASSERT_TRUE(alice->WriteFile("/new.txt", ToBytes("created twice")).ok());
  auto seen = world_->client(kBob).Read("/new.txt");
  ASSERT_TRUE(seen.ok()) << seen.status();
  EXPECT_EQ(ToString(*seen), "created twice");
}

TEST_P(FailedMutationTest, RejectedUnlinkKeepsTheFile) {
  auto alice = LossyAlice(GetParam());
  ASSERT_NO_FATAL_FAILURE(Reject(alice.get(), /*pass=*/0, [&] {
    return alice->Unlink("/log.txt");
  }));
  auto read = alice->Read("/log.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "v1");
}

TEST_F(FreshnessTest, UnlinkWithATransientFlushErrorStaysStaged) {
  // Staging on, an Unlink ends at a flush point. A transient error there
  // keeps the stage: the Unlink reports the error, yet the removal is
  // still staged and applies at the next flush point.
  auto alice = LossyAlice(core::ClientOptions{}.write_batch_ops);
  lossy_->RejectNextWrite(Status::Unavailable("link down"));
  Status s = alice->Unlink("/log.txt");
  ASSERT_TRUE(s.IsUnavailable()) << s;
  EXPECT_FALSE(SnapshotBlocks().empty()) << "the rejected batch applied";
  // The writer's cached master already lacks the name.
  EXPECT_TRUE(alice->Unlink("/log.txt").IsNotFound());
  ASSERT_TRUE(alice->Fsync().ok());
  EXPECT_TRUE(SnapshotBlocks().empty());
  auto attrs = world_->client(kBob).Getattr("/log.txt");
  EXPECT_TRUE(attrs.status().IsNotFound()) << attrs.status();
}

INSTANTIATE_TEST_SUITE_P(WriteBatchOps, FailedMutationTest,
                         ::testing::Values(size_t{0}, size_t{64}));

}  // namespace
}  // namespace sharoes
