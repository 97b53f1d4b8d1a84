// Codec tests: sealing/signing/verification of metadata replicas, table
// copies, data blocks and RSA-wrapped bootstrap blocks, plus tamper
// rejection for each.

#include <gtest/gtest.h>

#include <set>

#include "core/object_codec.h"
#include "crypto/aead.h"
#include "crypto/merkle.h"
#include "util/binary_io.h"

namespace sharoes::core {
namespace {

class ObjectCodecTest : public ::testing::Test {
 protected:
  ObjectCodecTest()
      : engine_(&clock_, EngineOptions()),
        codec_(&engine_, &dir_, Scheme::kScheme2) {}

  static crypto::CryptoEngineOptions EngineOptions() {
    crypto::CryptoEngineOptions o;
    o.cost_model = crypto::CryptoCostModel::Zero();
    o.rng_seed = 404;
    return o;
  }

  void SetUp() override {
    for (fs::UserId uid : {1u, 2u, 3u}) {
      UserInfo u;
      u.id = uid;
      u.name = "u" + std::to_string(uid);
      u.public_key = engine_.NewUserKeyPair(512).pub;
      ASSERT_TRUE(dir_.AddUser(u).ok());
    }
    GroupInfo g;
    g.id = 10;
    g.name = "g";
    g.members = {2, 3};
    crypto::RsaKeyPair gkp = engine_.NewUserKeyPair(512);
    g.public_key = gkp.pub;
    group_priv_ = gkp.priv;
    ASSERT_TRUE(dir_.AddGroup(g).ok());
  }

  ObjectKeyBundle MakeBundle(const std::vector<ReplicaSpec>& specs,
                             fs::FileType type) {
    ObjectKeyBundle b;
    b.data = engine_.NewSigningKeyPair();
    b.meta = engine_.NewSigningKeyPair();
    for (const ReplicaSpec& s : specs) {
      b.meks[s.selector] = engine_.NewSymmetricKey();
    }
    if (type == fs::FileType::kFile) {
      b.dek = engine_.NewSymmetricKey();
    } else {
      for (const ReplicaSpec& s : specs) {
        b.table_keys[s.selector] = engine_.NewSymmetricKey();
      }
      b.table_keys[kMasterSelector] = engine_.NewSymmetricKey();
    }
    return b;
  }

  fs::InodeAttrs FileAttrs(uint16_t octal) {
    fs::InodeAttrs a;
    a.inode = 77;
    a.type = fs::FileType::kFile;
    a.owner = 1;
    a.group = 10;
    a.mode = fs::Mode::FromOctal(octal);
    return a;
  }

  SimClock clock_;
  crypto::CryptoEngine engine_;
  IdentityDirectory dir_;
  ObjectCodec codec_;
  crypto::RsaPrivateKey group_priv_;
};

TEST_F(ObjectCodecTest, MetadataReplicaRoundTrip) {
  fs::InodeAttrs attrs = FileAttrs(0640);
  auto specs = ReplicasFor(OwnershipInfo::FromAttrs(attrs),
                           Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kFile);
  for (const ReplicaSpec& spec : specs) {
    Bytes wire = codec_.EncodeMetadataReplica(spec, attrs, bundle);
    auto view = codec_.DecodeMetadataReplica(
        attrs.inode, spec.selector, wire, bundle.meks.at(spec.selector),
        bundle.meta.verify);
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_EQ(view->attrs, attrs);
    CapFields fields = spec.Fields(attrs.type);
    EXPECT_EQ(view->dek.has_value(), fields.dek);
    EXPECT_EQ(view->dsk.has_value(), fields.dsk);
    EXPECT_EQ(view->dvk.has_value(), fields.dvk);
    EXPECT_EQ(view->msk.has_value(), fields.msk);
    if (spec.owner) {
      EXPECT_FALSE(view->meks.empty());
      auto bundle_back = view->ToBundle();
      EXPECT_TRUE(bundle_back.ok());
    } else {
      EXPECT_TRUE(view->meks.empty());
      EXPECT_FALSE(view->ToBundle().ok());
    }
  }
}

TEST_F(ObjectCodecTest, GroupReplicaOmitsWriteKeys) {
  fs::InodeAttrs attrs = FileAttrs(0640);  // Group: r--.
  auto specs = ReplicasFor(OwnershipInfo::FromAttrs(attrs),
                           Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kFile);
  const ReplicaSpec* group_spec = nullptr;
  for (const auto& s : specs) {
    if (s.selector == kGroupSelector) group_spec = &s;
  }
  ASSERT_NE(group_spec, nullptr);
  Bytes wire = codec_.EncodeMetadataReplica(*group_spec, attrs, bundle);
  auto view = codec_.DecodeMetadataReplica(attrs.inode, kGroupSelector, wire,
                                           bundle.meks.at(kGroupSelector),
                                           bundle.meta.verify);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->dek.has_value());
  EXPECT_TRUE(view->dvk.has_value());
  EXPECT_FALSE(view->dsk.has_value());  // No write.
  EXPECT_FALSE(view->msk.has_value());
  EXPECT_TRUE(view->CanReadData());
  EXPECT_FALSE(view->CanWriteData());
}

TEST_F(ObjectCodecTest, MetadataTamperDetected) {
  fs::InodeAttrs attrs = FileAttrs(0600);
  auto specs = ReplicasFor(OwnershipInfo::FromAttrs(attrs),
                           Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kFile);
  Bytes wire = codec_.EncodeMetadataReplica(specs[0], attrs, bundle);
  for (size_t pos : {size_t{10}, wire.size() / 2, wire.size() - 1}) {
    Bytes bad = wire;
    bad[pos] ^= 0x40;
    auto view = codec_.DecodeMetadataReplica(
        attrs.inode, specs[0].selector, bad, bundle.meks.at(0),
        bundle.meta.verify);
    EXPECT_FALSE(view.ok());
  }
}

TEST_F(ObjectCodecTest, MetadataReplicaSwapDetected) {
  // A malicious SSP returning replica A for a request of replica B must
  // be caught: the signature binds (inode, selector).
  fs::InodeAttrs attrs = FileAttrs(0644);
  auto specs = ReplicasFor(OwnershipInfo::FromAttrs(attrs),
                           Scheme::kScheme2, dir_);
  ASSERT_GE(specs.size(), 2u);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kFile);
  Bytes wire0 = codec_.EncodeMetadataReplica(specs[0], attrs, bundle);
  auto view = codec_.DecodeMetadataReplica(
      attrs.inode, specs[1].selector, wire0, bundle.meks.at(specs[0].selector),
      bundle.meta.verify);
  EXPECT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsIntegrityError()) << view.status();
}

TEST_F(ObjectCodecTest, ViewWithRetiredPendingKeyIsCorruption) {
  // A view serializes attrs, five key presence bytes (all absent here),
  // the retired pending-key presence byte, dek_gen and two key maps. No
  // writer sets that byte, so a view that sets it, with a key after it,
  // is Corruption rather than a key the reader would ignore.
  fs::InodeAttrs attrs = FileAttrs(0640);
  auto wire = [&](bool pending) {
    BinaryWriter w;
    attrs.AppendTo(&w);
    for (int i = 0; i < 5; ++i) w.PutU8(0);
    w.PutU8(pending ? 1 : 0);
    if (pending) w.PutBytes(engine_.NewSymmetricKey().Serialize());
    w.PutU32(1);  // dek_gen.
    w.PutU32(0);  // table_keys.
    w.PutU32(0);  // meks.
    return w.Take();
  };
  MetadataView plain;
  plain.attrs = attrs;
  plain.dek_gen = 1;
  ASSERT_EQ(wire(false), plain.Serialize());
  ASSERT_TRUE(MetadataView::Deserialize(wire(false)).ok());
  auto view = MetadataView::Deserialize(wire(true));
  EXPECT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsCorruption()) << view.status();
}

TEST_F(ObjectCodecTest, TableCopyRoundTripFullView) {
  fs::InodeAttrs dir_attrs = FileAttrs(0750);
  dir_attrs.type = fs::FileType::kDirectory;
  OwnershipInfo info = OwnershipInfo::FromAttrs(dir_attrs);
  auto specs = ReplicasFor(info, Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kDirectory);

  // A child entry owned the same way (uniform rows).
  MasterTable master;
  MasterEntry e;
  e.name = "child.txt";
  e.inode = 99;
  e.child = info;
  e.child.type = fs::FileType::kFile;
  crypto::SigningKeyPair child_meta = engine_.NewSigningKeyPair();
  e.mvk = child_meta.verify.Serialize();
  for (const ReplicaSpec& s :
       ReplicasFor(e.child, Scheme::kScheme2, dir_)) {
    e.meks[s.selector] = engine_.NewSymmetricKey().Serialize();
  }
  ASSERT_TRUE(master.Add(e).ok());

  std::vector<PendingSplitBlock> blocks;
  auto universe = UniverseOf(info, kOwnerSelector, Scheme::kScheme2, dir_);
  auto wire = codec_.EncodeTableBucket(dir_attrs.inode, kOwnerSelector,
                                       TableView::kFull, 0, 0, master,
                                       universe, bundle, &blocks);
  ASSERT_TRUE(wire.ok());
  auto table = codec_.DecodeTableBucket(
      dir_attrs.inode, kOwnerSelector, 0, 0, *wire,
      bundle.table_keys.at(kOwnerSelector), bundle.data.verify);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->view, TableView::kFull);
  ASSERT_EQ(table->names.size(), 1u);
  EXPECT_EQ(table->names[0], "child.txt");
  const RowRef& row = table->refs.at("child.txt");
  EXPECT_EQ(row.kind, RowRef::Kind::kPlain);
  EXPECT_EQ(row.inode, 99u);
  EXPECT_EQ(row.plain.selector, kOwnerSelector);  // Owner universe.
}

TEST_F(ObjectCodecTest, NamesOnlyViewHidesRefs) {
  fs::InodeAttrs dir_attrs = FileAttrs(0750);
  dir_attrs.type = fs::FileType::kDirectory;
  OwnershipInfo info = OwnershipInfo::FromAttrs(dir_attrs);
  auto specs = ReplicasFor(info, Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kDirectory);
  MasterTable master;
  MasterEntry e;
  e.name = "visible-name";
  e.inode = 99;
  e.child = info;
  e.mvk = engine_.NewSigningKeyPair().verify.Serialize();
  e.meks[kOwnerSelector] = engine_.NewSymmetricKey().Serialize();
  ASSERT_TRUE(master.Add(e).ok());

  std::vector<PendingSplitBlock> blocks;
  auto wire = codec_.EncodeTableBucket(dir_attrs.inode, kGroupSelector,
                                       TableView::kNamesOnly, 0, 0, master,
                                       {2, 3}, bundle, &blocks);
  ASSERT_TRUE(wire.ok());
  auto table = codec_.DecodeTableBucket(
      dir_attrs.inode, kGroupSelector, 0,
      0, *wire, bundle.table_keys.at(kGroupSelector), bundle.data.verify);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->view, TableView::kNamesOnly);
  EXPECT_EQ(table->names, std::vector<std::string>{"visible-name"});
  EXPECT_TRUE(table->refs.empty());
  EXPECT_TRUE(table->exec_rows.empty());
}

TEST_F(ObjectCodecTest, ExecOnlyLookupByName) {
  fs::InodeAttrs dir_attrs = FileAttrs(0711);
  dir_attrs.type = fs::FileType::kDirectory;
  OwnershipInfo info = OwnershipInfo::FromAttrs(dir_attrs);
  auto specs = ReplicasFor(info, Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kDirectory);
  MasterTable master;
  for (int i = 0; i < 5; ++i) {
    MasterEntry e;
    e.name = "secret" + std::to_string(i);
    e.inode = 100 + i;
    e.child = info;
    e.child.type = fs::FileType::kFile;
    e.mvk = engine_.NewSigningKeyPair().verify.Serialize();
    for (const ReplicaSpec& s :
         ReplicasFor(e.child, Scheme::kScheme2, dir_)) {
      e.meks[s.selector] = engine_.NewSymmetricKey().Serialize();
    }
    ASSERT_TRUE(master.Add(e).ok());
  }
  std::vector<PendingSplitBlock> blocks;
  // Group class (--x for mode 0711) with members {2, 3}.
  auto universe = UniverseOf(info, kGroupSelector, Scheme::kScheme2, dir_);
  ASSERT_FALSE(universe.empty());
  auto wire = codec_.EncodeTableBucket(dir_attrs.inode, kGroupSelector,
                                       TableView::kExecOnly, 0, 0, master,
                                       universe, bundle, &blocks);
  ASSERT_TRUE(wire.ok()) << wire.status();
  const crypto::SymmetricKey& tkey = bundle.table_keys.at(kGroupSelector);
  auto table = codec_.DecodeTableBucket(
      dir_attrs.inode, kGroupSelector, 0,
      0, *wire, tkey, bundle.data.verify);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->view, TableView::kExecOnly);
  EXPECT_TRUE(table->names.empty());  // No listing possible.
  EXPECT_EQ(table->exec_rows.size(), 5u);

  // Knowing a name finds exactly that row.
  auto row = codec_.ExecOnlyLookup(*table, tkey, "secret3");
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->inode, 103u);
  // An unknown name finds nothing.
  EXPECT_TRUE(codec_.ExecOnlyLookup(*table, tkey, "nope").status()
                  .IsNotFound());
  // A wrong key finds nothing (the rows are keyed by H_DEK(name)).
  crypto::SymmetricKey wrong = engine_.NewSymmetricKey();
  EXPECT_FALSE(codec_.ExecOnlyLookup(*table, wrong, "secret3").ok());
}

TEST_F(ObjectCodecTest, TableTamperDetected) {
  fs::InodeAttrs dir_attrs = FileAttrs(0700);
  dir_attrs.type = fs::FileType::kDirectory;
  OwnershipInfo info = OwnershipInfo::FromAttrs(dir_attrs);
  auto specs = ReplicasFor(info, Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kDirectory);
  MasterTable master;
  std::vector<PendingSplitBlock> blocks;
  auto wire = codec_.EncodeTableBucket(dir_attrs.inode, kOwnerSelector,
                                       TableView::kFull, 0, 0, master, {1},
                                       bundle, &blocks);
  ASSERT_TRUE(wire.ok());
  Bytes bad = *wire;
  bad[bad.size() / 2] ^= 1;
  auto table = codec_.DecodeTableBucket(
      dir_attrs.inode, kOwnerSelector, 0, 0, bad,
      bundle.table_keys.at(kOwnerSelector), bundle.data.verify);
  EXPECT_FALSE(table.ok());
}

TEST_F(ObjectCodecTest, MasterTableRoundTrip) {
  fs::InodeAttrs dir_attrs = FileAttrs(0700);
  dir_attrs.type = fs::FileType::kDirectory;
  auto specs = ReplicasFor(OwnershipInfo::FromAttrs(dir_attrs),
                           Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kDirectory);
  MasterTable master;
  MasterEntry e;
  e.name = "x";
  e.inode = 5;
  e.child = OwnershipInfo::FromAttrs(dir_attrs);
  e.mvk = engine_.NewSigningKeyPair().verify.Serialize();
  e.meks[kOwnerSelector] = engine_.NewSymmetricKey().Serialize();
  ASSERT_TRUE(master.Add(e).ok());
  Bytes wire = codec_.EncodeMasterBucket(dir_attrs.inode, 0, 0, master, bundle);
  auto back = codec_.DecodeMasterBucket(dir_attrs.inode, 0, 0, wire,
                                        bundle.table_keys.at(kMasterSelector));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->entries.size(), 1u);
  EXPECT_EQ(back->entries[0].name, "x");
  EXPECT_EQ(back->entries[0].inode, 5u);

  // The master is AEAD-sealed under its key: a flipped byte, a bucket of
  // another index or directory, or another key does not open.
  const crypto::SymmetricKey& mkey = bundle.table_keys.at(kMasterSelector);
  Bytes bad = wire;
  bad[bad.size() / 2] ^= 1;
  EXPECT_TRUE(codec_.DecodeMasterBucket(dir_attrs.inode, 0, 0, bad, mkey)
                  .status()
                  .IsCorruption());
  Bytes moved =
      codec_.EncodeMasterBucket(dir_attrs.inode, 1, 1, master, bundle);
  EXPECT_TRUE(codec_.DecodeMasterBucket(dir_attrs.inode, 1, 0, moved, mkey)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(codec_.DecodeMasterBucket(dir_attrs.inode + 1, 0, 0, wire, mkey)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(codec_
                  .DecodeMasterBucket(dir_attrs.inode, 0, 0, wire,
                                      engine_.NewSymmetricKey())
                  .status()
                  .IsCorruption());
}

/// A master of `n` uniform file entries under an owner-only directory.
MasterTable UniformMaster(crypto::CryptoEngine* engine,
                          const IdentityDirectory& dir,
                          const OwnershipInfo& info, int n) {
  MasterTable master;
  for (int i = 0; i < n; ++i) {
    MasterEntry e;
    e.name = "f" + std::to_string(i);
    e.inode = 1000 + static_cast<fs::InodeNum>(i);
    e.child = info;
    e.child.type = fs::FileType::kFile;
    e.mvk = engine->NewSigningKeyPair().verify.Serialize();
    for (const ReplicaSpec& s : ReplicasFor(e.child, Scheme::kScheme2, dir)) {
      e.meks[s.selector] = engine->NewSymmetricKey().Serialize();
    }
    EXPECT_TRUE(master.Add(e).ok());
  }
  return master;
}

TEST_F(ObjectCodecTest, BucketsPartitionTheTableByKeyedName) {
  fs::InodeAttrs dir_attrs = FileAttrs(0700);
  dir_attrs.type = fs::FileType::kDirectory;
  OwnershipInfo info = OwnershipInfo::FromAttrs(dir_attrs);
  auto specs = ReplicasFor(info, Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kDirectory);
  MasterTable master = UniformMaster(&engine_, dir_, info, 40);
  const uint8_t depth = ObjectCodec::FreshDepth(master.entries.size());
  EXPECT_EQ(depth, 3);  // 40 entries: the least d with 40 <= 8 * 2^d.
  const crypto::SymmetricKey& key = bundle.table_keys.at(kOwnerSelector);
  size_t seen = 0;
  for (uint32_t b = 0; b < (1u << depth); ++b) {
    MasterTable rows;
    for (const MasterEntry& e : master.entries) {
      if (codec_.BucketOf(key, e.name, depth) == b) rows.entries.push_back(e);
    }
    std::vector<PendingSplitBlock> blocks;
    auto wire = codec_.EncodeTableBucket(dir_attrs.inode, kOwnerSelector,
                                         TableView::kFull, depth, b, rows,
                                         {1}, bundle, &blocks);
    ASSERT_TRUE(wire.ok());
    auto bucket = codec_.DecodeTableBucket(
        dir_attrs.inode, kOwnerSelector, depth,
        b, *wire, key, bundle.data.verify);
    ASSERT_TRUE(bucket.ok()) << bucket.status();
    for (const std::string& name : bucket->names) {
      EXPECT_EQ(codec_.BucketOf(key, name, depth), b);
    }
    seen += bucket->names.size();
    auto mwire =
        codec_.EncodeMasterBucket(dir_attrs.inode, depth, b, rows, bundle);
    auto mbucket = codec_.DecodeMasterBucket(
        dir_attrs.inode, depth, b, mwire,
        bundle.table_keys.at(kMasterSelector));
    ASSERT_TRUE(mbucket.ok()) << mbucket.status();
  }
  EXPECT_EQ(seen, 40u);
}

TEST_F(ObjectCodecTest, DepthHasHysteresis) {
  EXPECT_EQ(ObjectCodec::FreshDepth(0), 0);
  EXPECT_EQ(ObjectCodec::FreshDepth(8), 0);
  EXPECT_EQ(ObjectCodec::FreshDepth(9), 1);
  EXPECT_EQ(ObjectCodec::FreshDepth(20), 2);
  EXPECT_EQ(ObjectCodec::FreshDepth(10000), 11);
  // A home directory churning between 12 and 20 entries resizes at most
  // once: up past 16, and never back down above 7.
  EXPECT_EQ(ObjectCodec::NextDepth(1, 16), 1);
  EXPECT_EQ(ObjectCodec::NextDepth(1, 17), 2);
  for (size_t n = 8; n <= 32; ++n) EXPECT_EQ(ObjectCodec::NextDepth(2, n), 2);
  EXPECT_EQ(ObjectCodec::NextDepth(2, 7), 0);
  EXPECT_EQ(ObjectCodec::NextDepth(2, 33), 3);
  EXPECT_EQ(ObjectCodec::NextDepth(0, 0), 0);
}

TEST_F(ObjectCodecTest, SwappedBucketOrHeadIsCorruption) {
  fs::InodeAttrs dir_attrs = FileAttrs(0750);
  dir_attrs.type = fs::FileType::kDirectory;
  OwnershipInfo info = OwnershipInfo::FromAttrs(dir_attrs);
  auto specs = ReplicasFor(info, Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kDirectory);
  MasterTable master = UniformMaster(&engine_, dir_, info, 20);
  const fs::InodeNum inode = dir_attrs.inode;
  const crypto::SymmetricKey& key = bundle.table_keys.at(kOwnerSelector);
  const TableHead head{2};
  auto encode = [&](fs::InodeNum dir, Selector copy, uint8_t depth,
                    uint32_t b, TableView view = TableView::kFull) {
    std::vector<PendingSplitBlock> blocks;
    auto wire = codec_.EncodeTableBucket(dir, copy, view, depth, b, master,
                                         {1}, bundle, &blocks);
    EXPECT_TRUE(wire.ok());
    return *wire;
  };
  auto decode = [&](const Bytes& wire, uint32_t b) {
    return codec_.DecodeTableBucket(inode, kOwnerSelector, head.depth, b,
                                    wire, key, bundle.data.verify);
  };
  ASSERT_TRUE(decode(encode(inode, kOwnerSelector, 2, 1), 1).ok());
  // Another index, copy or directory.
  EXPECT_TRUE(
      decode(encode(inode, kOwnerSelector, 2, 3), 1).status().IsCorruption());
  EXPECT_TRUE(
      decode(encode(inode, kGroupSelector, 2, 1), 1).status().IsCorruption());
  EXPECT_TRUE(decode(encode(inode + 1, kOwnerSelector, 2, 1), 1)
                  .status()
                  .IsCorruption());
  // A depth byte rewritten to match the head does not help: it is signed.
  Bytes relabeled = encode(inode, kOwnerSelector, 1, 1);
  relabeled[0] = 2;
  EXPECT_TRUE(decode(relabeled, 1).status().IsCorruption());
  // A bucket reads in its own view: a chmod that changes the copy's view
  // leaves no head to contradict it.
  auto names = decode(encode(inode, kOwnerSelector, 2, 1,
                             TableView::kNamesOnly), 1);
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(names->view, TableView::kNamesOnly);

  // A head from another directory or copy.
  Bytes other_head = codec_.EncodeTableHead(inode + 1, kOwnerSelector, head,
                                            key, bundle.data.sign);
  EXPECT_TRUE(codec_
                  .DecodeTableHead(inode, kOwnerSelector, other_head, key,
                                   bundle.data.verify)
                  .status()
                  .IsCorruption());
  Bytes own_head = codec_.EncodeTableHead(inode, kOwnerSelector, head, key,
                                          bundle.data.sign);
  auto back = codec_.DecodeTableHead(inode, kOwnerSelector, own_head, key,
                                     bundle.data.verify);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->depth, 2);
  EXPECT_TRUE(codec_
                  .DecodeTableHead(inode, kGroupSelector, own_head, key,
                                   bundle.data.verify)
                  .status()
                  .IsCorruption());
}

// A bucket signed for its index at another depth than the head's is what
// a writer with a stale cached depth leaves: it decodes, keeping only the
// rows that hash to that index at the head's depth.
TEST_F(ObjectCodecTest, BucketOfAnotherDepthKeepsItsIndexsRows) {
  fs::InodeAttrs dir_attrs = FileAttrs(0750);
  dir_attrs.type = fs::FileType::kDirectory;
  OwnershipInfo info = OwnershipInfo::FromAttrs(dir_attrs);
  auto specs = ReplicasFor(info, Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kDirectory);
  MasterTable master = UniformMaster(&engine_, dir_, info, 40);
  const fs::InodeNum inode = dir_attrs.inode;
  const crypto::SymmetricKey& key = bundle.table_keys.at(kOwnerSelector);
  const crypto::SymmetricKey& mkey = bundle.table_keys.at(kMasterSelector);
  // Rendered at depth 0 (every row), or at depth 3 as bucket 1; read
  // under heads of depth 2 as bucket 1.
  for (uint8_t written : {uint8_t{0}, uint8_t{3}}) {
    SCOPED_TRACE(written);
    const uint32_t index = written == 0 ? 0 : 1;
    MasterTable rows;
    for (const MasterEntry& e : master.entries) {
      if (ObjectCodec::BucketOf(key, e.name, written) == index) {
        rows.entries.push_back(e);
      }
    }
    std::set<std::string> expected;
    for (const MasterEntry& e : rows.entries) {
      if (ObjectCodec::BucketOf(key, e.name, 2) == index) {
        expected.insert(e.name);
      }
    }
    for (TableView view : {TableView::kFull, TableView::kExecOnly}) {
      std::vector<PendingSplitBlock> blocks;
      auto wire = codec_.EncodeTableBucket(inode, kOwnerSelector, view,
                                           written, index, rows, {1}, bundle,
                                           &blocks);
      ASSERT_TRUE(wire.ok());
      auto t = codec_.DecodeTableBucket(inode, kOwnerSelector, 2, index,
                                        *wire, key, bundle.data.verify);
      ASSERT_TRUE(t.ok()) << t.status();
      if (view == TableView::kFull) {
        EXPECT_EQ(std::set<std::string>(t->names.begin(), t->names.end()),
                  expected);
        EXPECT_EQ(t->refs.size(), expected.size());
      } else {
        EXPECT_EQ(t->exec_rows.size(), expected.size());
        for (const std::string& name : expected) {
          EXPECT_TRUE(codec_.ExecOnlyLookup(*t, key, name).ok()) << name;
        }
      }
    }
    MasterTable mrows;
    for (const MasterEntry& e : master.entries) {
      if (ObjectCodec::BucketOf(mkey, e.name, written) == index) {
        mrows.entries.push_back(e);
      }
    }
    auto mwire =
        codec_.EncodeMasterBucket(inode, written, index, mrows, bundle);
    auto m = codec_.DecodeMasterBucket(inode, 2, index, mwire, mkey);
    ASSERT_TRUE(m.ok()) << m.status();
    size_t kept = 0;
    for (const MasterEntry& e : mrows.entries) {
      kept += ObjectCodec::BucketOf(mkey, e.name, 2) == index;
    }
    EXPECT_EQ(m->entries.size(), kept);
    for (const MasterEntry& e : m->entries) {
      EXPECT_EQ(ObjectCodec::BucketOf(mkey, e.name, 2), index);
    }
  }
}

TEST_F(ObjectCodecTest, DataBlockRoundTripAndHeader) {
  crypto::SymmetricKey dek = engine_.NewSymmetricKey();
  Bytes pt = ToBytes("block contents");
  ObjectCodec::DataBlockHeader header{2, 9};
  Bytes wire = codec_.EncodeDataBlock(7, 3, header, pt, dek);
  auto peeked = ObjectCodec::PeekDataHeader(wire);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(peeked->key_gen, 2u);
  EXPECT_EQ(peeked->write_gen, 9u);
  auto back = codec_.DecodeDataBlock(7, 3, wire, dek);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST_F(ObjectCodecTest, DataBlockSwapAndTamperDetected) {
  crypto::SymmetricKey dek = engine_.NewSymmetricKey();
  Bytes wire = codec_.EncodeDataBlock(7, 3, {0, 1}, ToBytes("abc"), dek);
  // Wrong block index.
  EXPECT_FALSE(codec_.DecodeDataBlock(7, 4, wire, dek).ok());
  // Wrong inode.
  EXPECT_FALSE(codec_.DecodeDataBlock(8, 3, wire, dek).ok());
  // Key-generation bit flipped (the header is AEAD associated data).
  Bytes bad = wire;
  bad[0] ^= 1;
  EXPECT_FALSE(codec_.DecodeDataBlock(7, 3, bad, dek).ok());
  // Write-generation bit flipped (also associated data).
  bad = wire;
  bad[4] ^= 1;
  EXPECT_FALSE(codec_.DecodeDataBlock(7, 3, bad, dek).ok());
  // Payload flipped.
  bad = wire;
  bad[16] ^= 1;
  EXPECT_FALSE(codec_.DecodeDataBlock(7, 3, bad, dek).ok());
}

TEST_F(ObjectCodecTest, DescriptorSignatureRequired) {
  // Block 0 is the descriptor (and the Merkle root over the chunk tags),
  // so it alone is DSK-signed; a descriptor signed under a wrong signing
  // key must not pass, nor one moved to another inode.
  crypto::SigningKeyPair dsk = engine_.NewSigningKeyPair();
  crypto::SigningKeyPair other = engine_.NewSigningKeyPair();
  core::DataDescriptor desc;
  desc.size = 5;
  desc.block_count = 2;
  desc.write_gen = 1;
  desc.block_gens = {1, 1};
  desc.tag_root = Bytes(crypto::kMerkleRootSize, 7);
  Bytes wire = codec_.EncodeDescriptor(7, {0, 1}, desc, dsk.sign);
  auto back = codec_.DecodeDescriptor(7, wire, dsk.verify);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->size, 5u);
  EXPECT_EQ(back->tag_root, desc.tag_root);
  auto peeked = ObjectCodec::PeekDataHeader(wire);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(peeked->write_gen, 1u);
  EXPECT_TRUE(ObjectCodec::IsDataObject(0, wire));
  EXPECT_FALSE(ObjectCodec::IsDataObject(1, wire));

  // Signed by a DEK-holder without the real DSK.
  Bytes forged = codec_.EncodeDescriptor(7, {0, 1}, desc, other.sign);
  auto r = codec_.DecodeDescriptor(7, forged, dsk.verify);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
  EXPECT_NE(r.status().message().find("signature"), std::string::npos);
  EXPECT_TRUE(codec_.DecodeDescriptor(8, wire, dsk.verify)
                  .status()
                  .IsCorruption());
}

TEST_F(ObjectCodecTest, TailBlockRejectsUnexpectedSignature) {
  // Tail blocks are unsigned by construction; a signature field the
  // codec did not produce is rejected rather than ignored.
  crypto::SymmetricKey dek = engine_.NewSymmetricKey();
  Bytes wire = codec_.EncodeDataBlock(7, 3, {0, 1}, ToBytes("tail"), dek);
  BinaryReader r(wire);
  uint32_t key_gen = r.GetU32();
  uint64_t write_gen = r.GetU64();
  Bytes nonce = r.GetRaw(crypto::kAeadNonceSize);
  Bytes ct = r.GetBytes();
  Bytes tag = r.GetRaw(crypto::kAeadTagSize);
  Bytes sig = r.GetBytes();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(sig.empty());
  BinaryWriter w;
  w.PutU32(key_gen);
  w.PutU64(write_gen);
  w.PutRaw(nonce);
  w.PutBytes(ct);
  w.PutRaw(tag);
  w.PutBytes(ToBytes("spurious signature"));
  auto rejected = codec_.DecodeDataBlock(7, 3, w.Take(), dek);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsCorruption());
  EXPECT_NE(rejected.status().message().find("unexpected signature"),
            std::string::npos);
}

TEST_F(ObjectCodecTest, PeekDataTagMatchesSealTag) {
  crypto::SymmetricKey dek = engine_.NewSymmetricKey();
  Bytes tag_out;
  Bytes wire = codec_.EncodeDataBlock(7, 2, {0, 1}, ToBytes("leaf"), dek,
                                      &tag_out);
  ASSERT_EQ(tag_out.size(), crypto::kAeadTagSize);
  auto peeked = ObjectCodec::PeekDataTag(wire);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(*peeked, tag_out);
  // Truncated wires fail cleanly.
  Bytes tiny(wire.begin(), wire.begin() + 10);
  EXPECT_TRUE(ObjectCodec::PeekDataTag(tiny).status().IsCorruption());
}

TEST_F(ObjectCodecTest, SuperblockRoundTrip) {
  crypto::RsaKeyPair user = engine_.NewUserKeyPair(512);
  SuperblockPayload payload;
  payload.root_inode = 1;
  payload.root_ref.inode = 1;
  payload.root_ref.type = fs::FileType::kDirectory;
  payload.root_ref.selector = kOwnerSelector;
  payload.root_ref.mek = engine_.NewSymmetricKey();
  payload.root_ref.mvk = crypto::VerifyKey{engine_.NewUserKeyPair(512).pub};
  auto wire = codec_.EncodeSuperblock(user.pub, payload);
  ASSERT_TRUE(wire.ok());
  auto back = codec_.DecodeSuperblock(user.priv, *wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->root_inode, 1u);
  EXPECT_EQ(back->root_ref.mek, payload.root_ref.mek);
  // The wrong private key cannot open it.
  crypto::RsaKeyPair other = engine_.NewUserKeyPair(512);
  EXPECT_FALSE(codec_.DecodeSuperblock(other.priv, *wire).ok());
}

TEST_F(ObjectCodecTest, GroupKeyBlockRoundTrip) {
  crypto::RsaKeyPair member = engine_.NewUserKeyPair(512);
  crypto::RsaKeyPair group = engine_.NewUserKeyPair(512);
  GroupSecret secret{10, group.priv};
  auto wire = codec_.EncodeGroupKeyBlock(member.pub, secret);
  ASSERT_TRUE(wire.ok());
  auto back = codec_.DecodeGroupKeyBlock(member.priv, *wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->gid, 10u);
  EXPECT_EQ(back->private_key.n, group.priv.n);
}

TEST_F(ObjectCodecTest, UserRefBlockRoundTrip) {
  crypto::RsaKeyPair user = engine_.NewUserKeyPair(512);
  PlainRef ref;
  ref.inode = 9;
  ref.type = fs::FileType::kFile;
  ref.selector = kGroupSelector;
  ref.mek = engine_.NewSymmetricKey();
  ref.mvk = crypto::VerifyKey{engine_.NewUserKeyPair(512).pub};
  auto wire = codec_.EncodeRefBlock(user.pub, ref);
  ASSERT_TRUE(wire.ok());
  auto back = codec_.DecodeRefBlock(user.priv, *wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->inode, 9u);
  EXPECT_EQ(back->selector, kGroupSelector);
  EXPECT_EQ(back->mek, ref.mek);
}

TEST_F(ObjectCodecTest, SplitRowEmitsBlocks) {
  // Child owned by user 2 inside a dir whose copy is read by {2, 3}:
  // user 2 resolves to owner, user 3 (group member) to group class =>
  // split with a shared group block plus (only) 2's user block skipped —
  // 2 is not a group-class user.
  fs::InodeAttrs dir_attrs = FileAttrs(0770);
  dir_attrs.type = fs::FileType::kDirectory;
  OwnershipInfo dinfo = OwnershipInfo::FromAttrs(dir_attrs);
  auto specs = ReplicasFor(dinfo, Scheme::kScheme2, dir_);
  ObjectKeyBundle bundle = MakeBundle(specs, fs::FileType::kDirectory);
  MasterTable master;
  MasterEntry e;
  e.name = "bobs";
  e.inode = 55;
  e.child = dinfo;
  e.child.owner = 2;
  e.child.type = fs::FileType::kFile;
  e.mvk = engine_.NewSigningKeyPair().verify.Serialize();
  for (const ReplicaSpec& s :
       ReplicasFor(e.child, Scheme::kScheme2, dir_)) {
    e.meks[s.selector] = engine_.NewSymmetricKey().Serialize();
  }
  ASSERT_TRUE(master.Add(e).ok());
  std::vector<PendingSplitBlock> blocks;
  auto wire = codec_.EncodeTableBucket(dir_attrs.inode, kGroupSelector,
                                       TableView::kFull, 0, 0, master, {2, 3},
                                       bundle, &blocks);
  ASSERT_TRUE(wire.ok());
  auto table = codec_.DecodeTableBucket(
      dir_attrs.inode, kGroupSelector, 0, 0, *wire,
      bundle.table_keys.at(kGroupSelector), bundle.data.verify);
  ASSERT_TRUE(table.ok());
  const RowRef& row = table->refs.at("bobs");
  EXPECT_EQ(row.kind, RowRef::Kind::kSplit);
  EXPECT_TRUE(row.has_group_block);
  EXPECT_EQ(row.gid, 10u);
  // One group block (user 3) + one user block (user 2, the child owner).
  ASSERT_EQ(blocks.size(), 2u);
  bool has_group = false, has_user = false;
  for (const auto& b : blocks) {
    if (b.is_group) has_group = true;
    if (!b.is_group && b.id == 2) has_user = true;
    EXPECT_EQ(b.child_inode, 55u);
  }
  EXPECT_TRUE(has_group);
  EXPECT_TRUE(has_user);
}

}  // namespace
}  // namespace sharoes::core
