// Conditional gets (DESIGN.md §19): a get that carries the digest of a
// blob the reader holds is answered kNotModified, with no bytes, exactly
// when the live blob has that digest. Covered here at the wire (over TCP),
// in the freshness and repair rules, and through a sharded channel over a
// cluster with a stale replica.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "core/sharded_channel.h"
#include "obs/metrics.h"
#include "ssp/tcp_service.h"
#include "testing/cluster.h"

namespace sharoes::ssp {
namespace {

using testing::TestCluster;

Request ConditionalGet(fs::InodeNum inode, uint32_t block,
                       const Bytes& held) {
  Request get = Request::GetData(inode, block);
  get.payload = BlobDigest(held);
  return get;
}

TEST(ConditionalGetTest, OverTcpNotModifiedOnlyForTheIdenticalBlob) {
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(channel.ok()) << channel.status();
  const Bytes blob{1, 2, 3, 4, 5};
  ASSERT_TRUE((*channel)->Call(Request::PutData(7, 1, blob))->ok());

  // The identical blob: no bytes come back.
  auto same = (*channel)->Call(ConditionalGet(7, 1, blob));
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_EQ(same->status, RespStatus::kNotModified);
  EXPECT_TRUE(same->payload.empty());

  // One byte off: the whole blob comes back, as for a plain get.
  auto other = (*channel)->Call(ConditionalGet(7, 1, Bytes{1, 2, 3, 4, 6}));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->status, RespStatus::kOk);
  EXPECT_EQ(other->payload, blob);

  // Inside a batch, beside an absent block and a plain get.
  auto batch = (*channel)->Call(Request::Batch(
      {ConditionalGet(7, 1, blob), ConditionalGet(7, 2, blob),
       Request::GetData(7, 1)}));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->batch.size(), 3u);
  EXPECT_EQ(batch->batch[0].status, RespStatus::kNotModified);
  EXPECT_EQ(batch->batch[1].status, RespStatus::kNotFound);
  EXPECT_EQ(batch->batch[2].payload, blob);

  // A versioned read carries the generation, as kDeleted does.
  Request versioned = ConditionalGet(7, 1, blob);
  versioned.want_version = true;
  auto v = (*channel)->Call(versioned);
  ASSERT_TRUE(v.ok());
  auto decoded = DecodeVersioned(*v);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, RespStatus::kNotModified);
  EXPECT_EQ(decoded->gen, 1u);
  EXPECT_TRUE(decoded->payload.empty());

  // After a rewrite the old digest no longer matches.
  ASSERT_TRUE((*channel)->Call(Request::PutData(7, 1, Bytes{9}))->ok());
  auto changed = (*channel)->Call(ConditionalGet(7, 1, blob));
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(changed->status, RespStatus::kOk);
  EXPECT_EQ(changed->payload, Bytes{9});

  // A get payload that is not a digest is rejected.
  Request bad = Request::GetData(7, 1);
  bad.payload = Bytes(5, 0);
  auto rejected = (*channel)->Call(bad);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, RespStatus::kBadRequest);
  (*daemon)->Shutdown();
}

TEST(ConditionalGetTest, FreshnessTreatsNotModifiedAsTheAskedBytes) {
  const Bytes held{4, 5, 6};
  const Bytes asked = BlobDigest(held);
  auto ok = [](Bytes b, uint64_t gen) {
    return std::optional<VersionedReply>(
        VersionedReply{RespStatus::kOk, std::move(b), gen});
  };
  auto not_modified = [](uint64_t gen) {
    return std::optional<VersionedReply>(
        VersionedReply{RespStatus::kNotModified, {}, gen});
  };
  // Agrees with a kOk reply of the asked bytes at the same generation.
  Freshest f = SettleFreshest({not_modified(3), ok(held, 3)}, asked);
  ASSERT_TRUE(f.live.has_value());
  EXPECT_EQ(*f.live, 0u);
  // Diverges from a kOk reply of other bytes at the same generation.
  f = SettleFreshest({not_modified(3), ok({7}, 3)}, asked);
  EXPECT_FALSE(f.live.has_value());
  // Loses to a fresher kOk reply, and a tombstone beats it at a tie.
  f = SettleFreshest({not_modified(3), ok({7}, 4)}, asked);
  ASSERT_TRUE(f.live.has_value());
  EXPECT_EQ(*f.live, 1u);
  f = SettleFreshest(
      {not_modified(3), VersionedReply{RespStatus::kDeleted, {}, 3}}, asked);
  EXPECT_TRUE(f.deleted);

  // Repairs: a kNotModified replier at the winner's generation holds it;
  // one at a lower generation gets the winner put back.
  const ObjectRef ref = ObjectRef::Data(1, 1);
  EXPECT_TRUE(RepairsFor(ref, {not_modified(3), ok(held, 3)}, false, held, 3,
                         asked)
                  .empty());
  auto repairs =
      RepairsFor(ref, {not_modified(2), ok({7}, 3)}, false, {7}, 3, asked);
  ASSERT_EQ(repairs.size(), 1u);
  EXPECT_EQ(repairs[0].pos, 0u);
  EXPECT_EQ(repairs[0].fix.payload, Bytes{7});
  // Under a tombstone winner a kNotModified replier is live: re-deleted.
  repairs = RepairsFor(ref, {not_modified(2)}, true, {}, 3, asked);
  ASSERT_EQ(repairs.size(), 1u);
  EXPECT_EQ(repairs[0].fix.op, OpCode::kDeleteData);
}

/// Polls `cond` for up to two seconds (a quorum write acks at W; the
/// third replica's copy can land a beat later).
bool Eventually(const std::function<bool()>& cond) {
  for (int i = 0; i < 200; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

/// A 3-node cluster (K=3, W=2, R=2) whose node 2, the preferred replica of
/// the inode, holds v1 of a data block and of a metadata replica at a
/// lower generation while nodes 0 and 1 hold v2.
class StaleReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TestCluster::Options opts;
    opts.tag = "conditional_get";
    cluster_ = std::make_unique<TestCluster>(opts);
    cluster_->Start();
    for (uint64_t candidate = 1; candidate < 1000; ++candidate) {
      if (cluster_->ring().PrimaryIndexFor(candidate) == 2) {
        inode_ = candidate;
        break;
      }
    }
    ASSERT_NE(inode_, 0u) << "no key prefers node 2 below 1000";
    auto writer = cluster_->MakeChannel();
    ASSERT_TRUE(writer->Call(Request::PutData(inode_, 1, v1_))->ok());
    ASSERT_TRUE(writer->Call(Request::PutMetadata(inode_, kView, v1_))->ok());
    ASSERT_TRUE(Eventually([&] { return Held(2) == v1_; }));
    ASSERT_TRUE(Eventually([&] { return HeldView(2) == v1_; }));
    cluster_->node(2)->KillHard();
    auto put = writer->Call(Request::PutData(inode_, 1, v2_));
    ASSERT_TRUE(put.ok() && put->ok()) << "W=2 must ack without node 2";
    put = writer->Call(Request::PutMetadata(inode_, kView, v2_));
    ASSERT_TRUE(put.ok() && put->ok()) << "W=2 must ack without node 2";
    cluster_->node(2)->Restart();
    ASSERT_EQ(Held(2), v1_) << "node 2 must recover v1 from its WAL";
    ASSERT_EQ(HeldView(2), v1_);
  }

  Bytes Held(int node, const ObjectRef& ref) {
    auto blob = cluster_->node(node)->server()->store().Get(ref);
    return blob.has_value() ? *blob : Bytes{};
  }
  Bytes Held(int node) { return Held(node, ObjectRef::Data(inode_, 1)); }
  Bytes HeldView(int node) {
    return Held(node, ObjectRef::Metadata(inode_, kView));
  }

  /// The selector of the metadata replica.
  static constexpr Selector kView = 3;

  std::unique_ptr<TestCluster> cluster_;
  uint64_t inode_ = 0;
  const Bytes v1_{0x01, 0x11};
  const Bytes v2_{0x02, 0x22, 0x22};
};

TEST_F(StaleReplicaTest, ConditionalReadOfTheStaleCopyGetsTheFreshestBytes) {
  // The reader holds v1, the copy the stale preferred replica also holds:
  // that replica answers kNotModified at the lower generation, the other
  // kOk v2 at the higher one, and v2 wins and is repaired onto node 2.
  auto reader = cluster_->MakeChannel();
  auto got = reader->Call(ConditionalGet(inode_, 1, v1_));
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->status, RespStatus::kOk);
  EXPECT_EQ(got->payload, v2_);
  EXPECT_GE(reader->read_repairs(), 1u);
  EXPECT_EQ(reader->repairs_skipped(), 0u);
  EXPECT_EQ(Held(2), v2_);
}

TEST_F(StaleReplicaTest, ConditionalReadOfAStaleViewGetsTheFreshestView) {
  // The same rule for a metadata replica, which a client's re-open asks
  // for by the digest of the view it last opened: the stale replica's
  // kNotModified loses to the fresher v2, which is returned and repaired.
  const uint64_t not_modified =
      obs::MetricsRegistry::Global()
          .counter("ssp.responses.kNotModified")
          ->Value();
  auto reader = cluster_->MakeChannel();
  Request get = Request::GetMetadata(inode_, kView);
  get.payload = BlobDigest(v1_);
  auto got = reader->Call(get);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->status, RespStatus::kOk);
  EXPECT_EQ(got->payload, v2_);
  EXPECT_GE(obs::MetricsRegistry::Global()
                    .counter("ssp.responses.kNotModified")
                    ->Value() -
                not_modified,
            1u)
      << "the stale replica answered by digest";
  EXPECT_GE(reader->read_repairs(), 1u);
  EXPECT_EQ(reader->repairs_skipped(), 0u);
  EXPECT_EQ(HeldView(2), v2_);
}

TEST_F(StaleReplicaTest, NotModifiedWinnerSkipsAndCountsTheRepair) {
  // The reader holds v2: the fresh replica's kNotModified wins, no reply
  // carries v2's bytes, so the stale copy stays for the scrubber and the
  // skipped repair is counted.
  obs::Counter* skipped = obs::MetricsRegistry::Global().counter(
      "client.shard.repairs_skipped");
  const uint64_t before = skipped->Value();
  auto reader = cluster_->MakeChannel();
  auto got = reader->Call(ConditionalGet(inode_, 1, v2_));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->status, RespStatus::kNotModified);
  EXPECT_TRUE(got->payload.empty());
  EXPECT_EQ(reader->repairs_skipped(), 1u);
  EXPECT_EQ(skipped->Value() - before, 1u);
  EXPECT_EQ(reader->read_repairs(), 0u);
  EXPECT_EQ(Held(2), v1_);

  // An unconditional read still settles on v2 and repairs node 2.
  auto plain = reader->Call(Request::GetData(inode_, 1));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->payload, v2_);
  EXPECT_EQ(Held(2), v2_);
}

TEST_F(StaleReplicaTest, DivergedCopiesAtOneGenerationSettleAsAPlainRead) {
  // The two replicas an R=2 read asks hold different bytes at the same
  // generation. A plain read sees a tie, answers by ring preference and
  // repairs nothing. A conditional get naming either copy must settle the
  // same way: a lone kOk beside a kNotModified is no majority, and
  // repairing from it would overwrite the copy the reader named.
  const ObjectRef ref = ObjectRef::Data(inode_, 2);
  const std::vector<uint32_t> order = cluster_->ring().ReplicaIndicesFor(inode_);
  const Bytes x{0x0a, 0x0a};
  const Bytes y{0x0b, 0x0b, 0x0b};
  auto store = [&](uint32_t node) -> ObjectStore& {
    return cluster_->node(static_cast<int>(node))->server()->store();
  };
  ASSERT_TRUE(store(order[0]).Put(ref, x, 5));
  ASSERT_TRUE(store(order[1]).Put(ref, y, 5));

  for (const Bytes& held : {x, y}) {
    auto reader = cluster_->MakeChannel();
    auto got = reader->Call(ConditionalGet(inode_, 2, held));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->status, RespStatus::kOk);
    EXPECT_EQ(got->payload, x) << "ring preference answers the tie";
    EXPECT_EQ(reader->read_repairs(), 0u);
    EXPECT_EQ(store(order[0]).Get(ref), x);
    EXPECT_EQ(store(order[1]).Get(ref), y);
  }
  auto reader = cluster_->MakeChannel();
  auto plain = reader->Call(Request::GetData(inode_, 2));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->payload, x);
  EXPECT_EQ(reader->read_repairs(), 0u);
}

}  // namespace
}  // namespace sharoes::ssp
