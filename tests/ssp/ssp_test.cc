// Tests for the SSP: protocol messages, object store, server dispatch,
// connection cost accounting.

#include <gtest/gtest.h>

#include <set>

#include "crypto/sha256.h"
#include "net/network_model.h"
#include "ssp/ssp_server.h"
#include "ssp/wal.h"

namespace sharoes::ssp {
namespace {

TEST(MessageTest, RequestRoundTripAllShapes) {
  std::vector<Request> requests = {
      Request::GetSuperblock(7),
      Request::PutSuperblock(7, {1, 2, 3}),
      Request::GetMetadata(42, 3),
      Request::PutMetadata(42, 3, {9, 9}),
      Request::Delete(ObjectRef::Metadata(42, 3)),
      Request::DeleteInodeMetadata(42),
      Request::GetUserMetadata(42, 7),
      Request::PutUserMetadata(42, 7, {5}),
      Request::GetData(42, 1),
      Request::PutData(42, 1, {0xAB}),
      Request::DeleteInodeData(42),
      Request::GetGroupKey(10, 7),
      Request::PutGroupKey(10, 7, {1}),
      Request::DeleteGroupKey(10, 7),
  };
  for (const Request& req : requests) {
    auto back = Request::Deserialize(req.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->op, req.op);
    EXPECT_EQ(back->inode, req.inode);
    EXPECT_EQ(back->selector, req.selector);
    EXPECT_EQ(back->user, req.user);
    EXPECT_EQ(back->group, req.group);
    EXPECT_EQ(back->block, req.block);
    EXPECT_EQ(back->payload, req.payload);
  }
}

TEST(MessageTest, BatchRoundTrip) {
  Request batch = Request::Batch(
      {Request::GetMetadata(1, 0), Request::PutData(2, 0, {7})});
  auto back = Request::Deserialize(batch.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, OpCode::kBatch);
  ASSERT_EQ(back->batch.size(), 2u);
  EXPECT_EQ(back->batch[0].op, OpCode::kGetMetadata);
  EXPECT_EQ(back->batch[1].payload, Bytes{7});
}

TEST(MessageTest, NestedBatchRejected) {
  Request inner = Request::Batch({Request::GetMetadata(1, 0)});
  Request outer = Request::Batch({inner});
  EXPECT_FALSE(Request::Deserialize(outer.Serialize()).ok());
}

TEST(MessageTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Request::Deserialize(ToBytes("garbage")).ok());
  EXPECT_FALSE(Response::Deserialize(ToBytes("zz")).ok());
  Bytes bad_op = Request::GetMetadata(1, 0).Serialize();
  bad_op[0] = 0xEE;
  EXPECT_FALSE(Request::Deserialize(bad_op).ok());
}

TEST(MessageTest, ResponseRoundTrip) {
  Response ok = Response::Ok({1, 2});
  auto back = Response::Deserialize(ok.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ok());
  EXPECT_EQ(back->payload, (Bytes{1, 2}));
  Response nf = Response::NotFound();
  back = Response::Deserialize(nf.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->status, RespStatus::kNotFound);
}

TEST(MessageTest, OpTableMapsEveryPointOpcodeToItsRef) {
  // Distinct values in every coordinate, so a family wired to the wrong
  // Request field cannot round-trip by accident.
  const Bytes p{7, 7};
  const uint64_t sel = 0x1234567890ull;
  const std::vector<std::pair<Request, ObjectRef>> point = {
      {Request::GetSuperblock(7), ObjectRef::Superblock(7)},
      {Request::PutSuperblock(7, p), ObjectRef::Superblock(7)},
      {Request::Delete(ObjectRef::Superblock(7)), ObjectRef::Superblock(7)},
      {Request::GetMetadata(42, sel), ObjectRef::Metadata(42, sel)},
      {Request::PutMetadata(42, sel, p), ObjectRef::Metadata(42, sel)},
      {Request::Delete(ObjectRef::Metadata(42, sel)),
       ObjectRef::Metadata(42, sel)},
      {Request::GetUserMetadata(43, 9), ObjectRef::UserMetadata(43, 9)},
      {Request::PutUserMetadata(43, 9, p), ObjectRef::UserMetadata(43, 9)},
      {Request::Delete(ObjectRef::UserMetadata(43, 9)),
       ObjectRef::UserMetadata(43, 9)},
      {Request::GetData(44, 3), ObjectRef::Data(44, 3)},
      {Request::PutData(44, 3, p), ObjectRef::Data(44, 3)},
      {Request::DeleteData(44, 3), ObjectRef::Data(44, 3)},
      {Request::GetGroupKey(11, 5), ObjectRef::GroupKey(11, 5)},
      {Request::PutGroupKey(11, 5, p), ObjectRef::GroupKey(11, 5)},
      {Request::DeleteGroupKey(11, 5), ObjectRef::GroupKey(11, 5)},
  };
  const std::vector<Request> no_ref = {
      Request::DeleteInodeMetadata(42), Request::DeleteInodeData(44),
      Request::Batch({Request::GetData(44, 3)}), Request::GetStats(),
      Request::GetTraces()};

  std::set<OpCode> seen;
  for (const auto& [req, want] : point) {
    SCOPED_TRACE(OpCodeName(req.op));
    seen.insert(req.op);
    const std::optional<ObjectRef> ref = RefOf(req);
    ASSERT_TRUE(ref.has_value());
    EXPECT_TRUE(*ref == want);
    Request rebuilt;
    switch (VerbOf(req.op)) {
      case OpVerb::kGet:
        rebuilt = Request::Get(*ref);
        EXPECT_FALSE(IsMutatingOp(req.op));
        break;
      case OpVerb::kPut:
        rebuilt = Request::Put(*ref, req.payload);
        EXPECT_TRUE(IsMutatingOp(req.op));
        break;
      case OpVerb::kDelete:
        rebuilt = Request::Delete(*ref);
        EXPECT_TRUE(IsMutatingOp(req.op));
        break;
      default:
        FAIL() << "not a point verb";
    }
    EXPECT_EQ(rebuilt.Serialize(), req.Serialize());
    EXPECT_TRUE(IsBatchableOp(req.op));
    const uint64_t key = RoutingKeyOf(Request::Get(*ref));
    EXPECT_EQ(RoutingKeyOf(Request::Put(*ref, p)), key);
    EXPECT_EQ(RoutingKeyOf(Request::Delete(*ref)), key);
    EXPECT_EQ(RoutingKeyOf(req), key);
  }
  for (const Request& req : no_ref) {
    seen.insert(req.op);
    EXPECT_FALSE(RefOf(req).has_value()) << OpCodeName(req.op);
  }
  EXPECT_EQ(seen.size(), kNumOpCodes) << "an opcode is missing here";
}

TEST(MessageTest, VersionedRepliesDecode) {
  auto live = DecodeVersioned(Response::Versioned({1, 2, 3}, 0x0102030405ull));
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->status, RespStatus::kOk);
  EXPECT_EQ(live->payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(live->gen, 0x0102030405ull);
  auto dead = DecodeVersioned(Response::Deleted(9));
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->status, RespStatus::kDeleted);
  EXPECT_TRUE(dead->payload.empty());
  EXPECT_EQ(dead->gen, 9u);
  auto missing = DecodeVersioned(Response::NotFound());
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, RespStatus::kNotFound);
  // A kOk too short for the suffix is an unversioned blob at gen 0.
  auto legacy = DecodeVersioned(Response::Ok({4, 5}));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->payload, (Bytes{4, 5}));
  EXPECT_EQ(legacy->gen, 0u);
  EXPECT_FALSE(DecodeVersioned(Response::Error()).has_value());
  EXPECT_FALSE(DecodeVersioned(Response::WrongShard()).has_value());
  EXPECT_FALSE(DecodeVersioned(Response::BadRequest()).has_value());
}

TEST(MessageTest, FreshnessRule) {
  auto ok = [](Bytes b, uint64_t gen) {
    return VersionedReply{RespStatus::kOk, std::move(b), gen};
  };
  const VersionedReply missing{RespStatus::kNotFound, {}, 0};
  // Highest generation wins; unanswered positions are skipped.
  Freshest f = SettleFreshest({ok({1}, 2), std::nullopt, ok({2}, 3), missing});
  EXPECT_EQ(f.gen, 3u);
  EXPECT_FALSE(f.deleted);
  EXPECT_EQ(f.live, std::optional<size_t>(2));
  // A tombstone wins the tie.
  f = SettleFreshest({ok({1}, 4), VersionedReply{RespStatus::kDeleted, {}, 4}});
  EXPECT_TRUE(f.deleted);
  EXPECT_FALSE(f.live.has_value());
  // Agreeing max-gen copies pick the first; diverged ones pick none.
  f = SettleFreshest({ok({1}, 1), ok({5}, 5), ok({5}, 5)});
  EXPECT_EQ(f.live, std::optional<size_t>(1));
  f = SettleFreshest({ok({5}, 5), ok({6}, 5)});
  EXPECT_EQ(f.gen, 5u);
  EXPECT_FALSE(f.live.has_value());
  // Nothing but absence: no winner at all.
  f = SettleFreshest({missing, std::nullopt});
  EXPECT_EQ(f.gen, 0u);
  EXPECT_FALSE(f.deleted);
  EXPECT_FALSE(f.live.has_value());
}

TEST(ObjectStoreTest, MetadataCrud) {
  ObjectStore store;
  EXPECT_FALSE(store.Get(ObjectRef::Metadata(1, 0)).has_value());
  store.Put(ObjectRef::Metadata(1, 0), {1});
  store.Put(ObjectRef::Metadata(1, 1), {2});
  store.Put(ObjectRef::Metadata(2, 0), {3});
  EXPECT_EQ(store.Get(
      ObjectRef::Metadata(1, 1)), std::optional<Bytes>(Bytes{2}));
  store.Delete(ObjectRef::Metadata(1, 0));
  EXPECT_FALSE(store.Get(ObjectRef::Metadata(1, 0)).has_value());
  EXPECT_TRUE(store.Get(ObjectRef::Metadata(1, 1)).has_value());
  store.DeleteInode(ObjectFamily::kMetadata, 1);
  EXPECT_FALSE(store.Get(ObjectRef::Metadata(1, 1)).has_value());
  EXPECT_TRUE(store.Get(ObjectRef::Metadata(2, 0)).has_value());  // Untouched.
}

TEST(ObjectStoreTest, DataCrudAndStats) {
  ObjectStore store;
  store.Put(ObjectRef::Data(5, 0), Bytes(100, 1));
  store.Put(ObjectRef::Data(5, 1), Bytes(50, 2));
  store.Put(ObjectRef::Superblock(1), Bytes(10, 3));
  StorageStats stats = store.Stats();
  EXPECT_EQ(stats.data_bytes, 150u);
  EXPECT_EQ(stats.superblock_bytes, 10u);
  EXPECT_EQ(stats.object_count, 3u);
  EXPECT_EQ(stats.total_bytes(), 160u);
  store.DeleteInode(ObjectFamily::kData, 5);
  EXPECT_FALSE(store.Get(ObjectRef::Data(5, 0)).has_value());
}

TEST(ObjectStoreTest, CorruptionInjection) {
  ObjectStore store;
  store.Put(ObjectRef::Metadata(1, 0), Bytes(16, 0xAA));
  EXPECT_TRUE(store.Corrupt(ObjectRef::Metadata(1, 0), 3, 0x01));
  EXPECT_EQ((*store.Get(ObjectRef::Metadata(1, 0)))[3], 0xAB);
  EXPECT_FALSE(store.Corrupt(ObjectRef::Metadata(9, 0), 0));
  store.Put(ObjectRef::Data(1, 0), Bytes(8, 0));
  EXPECT_TRUE(store.Corrupt(
      ObjectRef::Data(1, 0), 100));  // Offset wraps modulo size.
  EXPECT_TRUE(store.Replace(ObjectRef::Data(1, 0), Bytes{1, 2, 3}));
  EXPECT_EQ(store.Get(
      ObjectRef::Data(1, 0)), std::optional<Bytes>(Bytes{1, 2, 3}));
}

TEST(ObjectStoreTest, DeleteInodeMetadataTakesTheInodesSplitBlocks) {
  // One kDeleteInodeMetadata removes an inode's replicas and its split
  // blocks (the UserMetadata family), and nothing of another inode. A WAL
  // written before that, which follows the delete with one
  // kDeleteUserMetadata per user, replays to the same live objects.
  for (bool tombstones : {false, true}) {
    SCOPED_TRACE(tombstones ? "tombstones" : "plain");
    auto fill = [&](ObjectStore* store) {
      store->set_tombstones_enabled(tombstones);
      for (fs::InodeNum inode : {42, 43}) {
        ASSERT_TRUE(ApplyWalOp(Request::PutMetadata(inode, 1, {1}), store)
                        .ok());
        for (uint32_t user : {7u, 8u}) {
          ASSERT_TRUE(
              ApplyWalOp(Request::PutUserMetadata(inode, user, {2}), store)
                  .ok());
        }
      }
    };
    ObjectStore now, before;
    fill(&now);
    fill(&before);
    ASSERT_TRUE(ApplyWalOp(Request::DeleteInodeMetadata(42), &now).ok());
    for (const Request& r :
         {Request::DeleteInodeMetadata(42),
          Request::Delete(ObjectRef::UserMetadata(42, 7)),
          Request::Delete(ObjectRef::UserMetadata(42, 8))}) {
      ASSERT_TRUE(ApplyWalOp(r, &before).ok());
    }
    for (ObjectStore* store : {&now, &before}) {
      EXPECT_FALSE(store->Get(ObjectRef::Metadata(42, 1)).has_value());
      EXPECT_FALSE(store->Get(ObjectRef::UserMetadata(42, 7)).has_value());
      EXPECT_FALSE(store->Get(ObjectRef::UserMetadata(42, 8)).has_value());
      EXPECT_TRUE(store->Get(ObjectRef::Metadata(43, 1)).has_value());
      EXPECT_TRUE(store->Get(ObjectRef::UserMetadata(43, 7)).has_value());
    }
  }
}

TEST(SspServerTest, GetPutDeleteThroughWire) {
  SspServer server;
  Bytes resp_wire =
      server.HandleWire(Request::PutMetadata(1, 0, {42}).Serialize());
  auto resp = Response::Deserialize(resp_wire);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok());
  resp = Response::Deserialize(
      server.HandleWire(Request::GetMetadata(1, 0).Serialize()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->payload, Bytes{42});
  resp = Response::Deserialize(
      server.HandleWire(Request::GetMetadata(1, 9).Serialize()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, RespStatus::kNotFound);
}

TEST(SspServerTest, MalformedWireGetsBadRequest) {
  SspServer server;
  auto resp = Response::Deserialize(server.HandleWire(ToBytes("junk")));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, RespStatus::kBadRequest);
}

TEST(SspServerTest, BatchExecution) {
  SspServer server;
  Response resp = server.Handle(Request::Batch({
      Request::PutMetadata(1, 0, {1}),
      Request::GetMetadata(1, 0),
      Request::GetMetadata(2, 0),
  }));
  ASSERT_EQ(resp.batch.size(), 3u);
  EXPECT_TRUE(resp.batch[0].ok());
  EXPECT_EQ(resp.batch[1].payload, Bytes{1});
  EXPECT_EQ(resp.batch[2].status, RespStatus::kNotFound);
}

TEST(SspServerTest, BatchRejectsNonBatchableSubOps) {
  // Only store-level gets/puts/deletes may ride inside a batch. An admin
  // op like kGetStats smuggled in as a sub-op is answered kBadRequest per
  // slot — and the rest of the batch still executes.
  SspServer server;
  Response resp = server.Handle(Request::Batch({
      Request::GetStats(),
      Request::PutMetadata(1, 0, {1}),
      Request::GetMetadata(1, 0),
  }));
  ASSERT_EQ(resp.status, RespStatus::kOk);
  ASSERT_EQ(resp.batch.size(), 3u);
  EXPECT_EQ(resp.batch[0].status, RespStatus::kBadRequest);
  EXPECT_TRUE(resp.batch[1].ok());
  EXPECT_EQ(resp.batch[2].payload, Bytes{1});
  // The opcode predicate itself: admin + nesting excluded, reads and
  // mutations allowed.
  EXPECT_FALSE(IsBatchableOp(OpCode::kGetStats));
  EXPECT_FALSE(IsBatchableOp(OpCode::kBatch));
  EXPECT_TRUE(IsBatchableOp(OpCode::kGetData));
  EXPECT_TRUE(IsBatchableOp(OpCode::kPutMetadata));
}

TEST(SspServerTest, GroupKeyOps) {
  SspServer server;
  server.Handle(Request::PutGroupKey(10, 1, {9}));
  EXPECT_TRUE(server.Handle(Request::GetGroupKey(10, 1)).ok());
  server.Handle(Request::DeleteGroupKey(10, 1));
  EXPECT_EQ(server.Handle(Request::GetGroupKey(10, 1)).status,
            RespStatus::kNotFound);
}

TEST(SspConnectionTest, ChargesRoundTripsAndCountsBytes) {
  SimClock clock;
  net::Transport transport(&clock, net::NetworkModel::PaperDsl());
  SspServer server;
  SspConnection conn(&server, &transport);
  auto resp = conn.Call(Request::PutMetadata(1, 0, Bytes(1000, 1)));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(transport.counters().round_trips, 1u);
  EXPECT_GT(transport.counters().bytes_up, 1000u);
  // 2 x 45 ms latency + 8 ms overhead + ~1 KB at 850 kbit/s (~9.8 ms).
  double ms = clock.snapshot().total_ms();
  EXPECT_GT(ms, 105);
  EXPECT_LT(ms, 115);
  EXPECT_EQ(clock.snapshot().network_ns(), clock.snapshot().total_ns);
}

TEST(NetworkModelTest, RoundTripMath) {
  net::NetworkModel m;
  m.latency_ms = 10;
  m.uplink_bps = 8000;    // 1 byte per ms.
  m.downlink_bps = 4000;  // 0.5 bytes per ms.
  m.per_request_ms = 1;
  EXPECT_DOUBLE_EQ(m.RoundTripMs(100, 50), 20 + 1 + 100 + 100);
  net::NetworkModel zero = net::NetworkModel::Zero();
  EXPECT_DOUBLE_EQ(zero.RoundTripMs(1 << 20, 1 << 20), 0);
}

}  // namespace
}  // namespace sharoes::ssp

namespace sharoes::ssp {
namespace {

TEST(ObjectStorePersistenceTest, SnapshotRoundTrip) {
  ObjectStore store;
  store.Put(ObjectRef::Superblock(1), {1, 2, 3});
  store.Put(ObjectRef::Metadata(10, 0), {4, 5});
  store.Put(ObjectRef::Metadata(10, 2), {6});
  store.Put(ObjectRef::UserMetadata(10, 7), {7, 7});
  store.Put(ObjectRef::Data(10, 0), Bytes(100, 9));
  store.Put(ObjectRef::GroupKey(500, 1), {8});
  Bytes snap = store.Serialize();
  auto back = ObjectStore::Deserialize(snap);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Get(ObjectRef::Superblock(1)),
            std::optional<Bytes>(Bytes{1, 2, 3}));
  EXPECT_EQ(back->Get(ObjectRef::Metadata(10, 2)),
            std::optional<Bytes>(Bytes{6}));
  EXPECT_EQ(back->Get(ObjectRef::UserMetadata(10, 7)),
            std::optional<Bytes>(Bytes{7, 7}));
  EXPECT_EQ(back->Get(ObjectRef::Data(10, 0)),
            std::optional<Bytes>(Bytes(100, 9)));
  EXPECT_EQ(back->Get(ObjectRef::GroupKey(500, 1)),
            std::optional<Bytes>(Bytes{8}));
  EXPECT_EQ(back->Stats().object_count, store.Stats().object_count);
}

// Every snapshot feature in one store: all five families, a selector
// wider than 32 bits, a local-bump overwrite, a gen-gated put and its
// losing retry, point tombstones, a tombstone for a never-stored key,
// and a ranged delete.
ObjectStore GoldenStore() {
  ObjectStore store;
  store.set_tombstones_enabled(true);
  store.Put(ObjectRef::Superblock(1), {1, 2, 3});
  store.Put(ObjectRef::Superblock(2), {4});
  store.Put(ObjectRef::Metadata(10, 0), {4, 5});
  store.Put(ObjectRef::Metadata(10, 0x1234567890ull), {6});
  store.Put(ObjectRef::Metadata(11, 3), {6, 6});
  store.Put(ObjectRef::UserMetadata(10, 7), {7, 7});
  store.Put(ObjectRef::Data(10, 0), Bytes(100, 9));
  store.Put(ObjectRef::Data(10, 1), Bytes(30, 8));
  store.Put(ObjectRef::Data(11, 0), {1});
  store.Put(ObjectRef::Data(11, 0), {2});
  store.Put(ObjectRef::GroupKey(500, 1), {8});
  EXPECT_TRUE(store.Put(ObjectRef::GroupKey(500, 2), {9}, /*gen=*/7));
  EXPECT_FALSE(store.Put(ObjectRef::GroupKey(500, 2), {10}, /*gen=*/3));
  store.Delete(ObjectRef::Superblock(2));
  store.Delete(ObjectRef::UserMetadata(12, 3), /*gen=*/5);
  store.DeleteInode(ObjectFamily::kData, 10);
  return store;
}

TEST(ObjectStorePersistenceTest, SnapshotBytesArePinned) {
  // Captured from the per-family-map store this format was defined by;
  // a change here is a snapshot format change and needs a new version.
  const Bytes snap = GoldenStore().Serialize();
  EXPECT_EQ(snap.size(), 361u);
  EXPECT_EQ(HexEncode(crypto::Sha256Digest(snap)),
            "cbcef63841d0c502017413c3d2a94400ace14b8ab620b35f8545bc30c8f4c5f8");
  auto back = ObjectStore::Deserialize(snap);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Serialize(), snap);
  const StorageStats st = back->Stats();
  EXPECT_EQ(st.superblock_bytes, 3u);
  EXPECT_EQ(st.metadata_bytes, 5u);
  EXPECT_EQ(st.user_metadata_bytes, 2u);
  EXPECT_EQ(st.data_bytes, 1u);
  EXPECT_EQ(st.group_key_bytes, 2u);
  EXPECT_EQ(st.object_count, 8u);
  EXPECT_EQ(st.tombstone_count, 4u);
}

TEST(ObjectStorePersistenceTest, V1SnapshotIsRejected) {
  // A hand-built "SSP1" snapshot (the gen-less format before SSP2): no
  // per-entry generation or tombstone flag; families in order, each a
  // count and then its entries. Nothing writes it any more, so it is
  // refused as corrupt rather than loaded at a made-up generation.
  BinaryWriter w;
  w.PutU32(0x53535031);
  w.PutU32(1);  // Superblocks: u32 user, blob.
  w.PutU32(3);
  w.PutBytes({1, 2});
  for (uint64_t f = 1; f < kNumObjectFamilies; ++f) {
    w.PutU32(1);  // One (u64 k1, u64 k2, blob) entry per family.
    w.PutU64(5 + f);
    w.PutU64(f);
    w.PutBytes(Bytes(f, static_cast<uint8_t>(f)));
  }
  auto store = ObjectStore::Deserialize(w.Take());
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption) << store.status();
}

TEST(ObjectStorePersistenceTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ObjectStore::Deserialize(ToBytes("junk")).ok());
  EXPECT_FALSE(ObjectStore::Deserialize(Bytes{}).ok());
  ObjectStore store;
  store.Put(ObjectRef::Data(1, 0), {1});
  Bytes snap = store.Serialize();
  snap.pop_back();  // Truncate.
  EXPECT_FALSE(ObjectStore::Deserialize(snap).ok());
}

}  // namespace
}  // namespace sharoes::ssp
