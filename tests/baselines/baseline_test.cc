// Functional tests of the four comparison systems (paper §V): they must
// behave as working (if weaker-model) filesystems so the benchmark
// differences come from their security design, not from bugs.

#include <gtest/gtest.h>

#include "baselines/baseline.h"
#include "net/network_model.h"
#include "obs/metrics.h"
#include "testing/fault.h"

namespace sharoes::baselines {
namespace {

constexpr fs::UserId kUser = 100;
constexpr fs::UserId kOther = 101;

class BaselineWorld {
 public:
  // `extra_files` adds /docs/f0, f1, ... after a.txt and private.txt;
  // provisioning numbers inodes in creation order (root=1, docs=2,
  // a.txt=3, private.txt=4), so f<i> is inode 5+i.
  explicit BaselineWorld(SecurityMode mode, int extra_files = 0) {
    crypto::CryptoEngineOptions eo;
    eo.cost_model = crypto::CryptoCostModel::Zero();
    eo.signing_key_bits = 512;
    eo.rng_seed = 808;
    engine_ = std::make_unique<crypto::CryptoEngine>(&clock_, eo);
    for (fs::UserId uid : {kUser, kOther}) {
      crypto::RsaKeyPair kp = engine_->NewUserKeyPair(512);
      core::UserInfo info;
      info.id = uid;
      info.name = "u" + std::to_string(uid);
      info.public_key = kp.pub;
      keys_[uid] = kp.priv;
      Status s = identity_.AddUser(std::move(info));
      (void)s;
    }
    BaselineOptions opts;
    opts.mode = mode;
    options_ = opts;
    core::LocalNode root = core::LocalNode::Dir(
        "", kUser, fs::kInvalidGroup, fs::Mode::FromOctal(0755));
    core::LocalNode docs = core::LocalNode::Dir(
        "docs", kUser, fs::kInvalidGroup, fs::Mode::FromOctal(0755));
    docs.children.push_back(core::LocalNode::File(
        "a.txt", kUser, fs::kInvalidGroup, fs::Mode::FromOctal(0644),
        ToBytes("contents of a")));
    docs.children.push_back(core::LocalNode::File(
        "private.txt", kUser, fs::kInvalidGroup, fs::Mode::FromOctal(0600),
        ToBytes("private")));
    for (int i = 0; i < extra_files; ++i) {
      docs.children.push_back(core::LocalNode::File(
          "f" + std::to_string(i), kUser, fs::kInvalidGroup,
          fs::Mode::FromOctal(0644), ToBytes("file " + std::to_string(i))));
    }
    root.children.push_back(std::move(docs));
    BaselineProvisioner prov(&identity_, &server_, engine_.get(), opts);
    Status s = prov.Migrate(root);
    assert(s.ok());
    (void)s;
  }

  BaselineClient MakeClient(fs::UserId uid) {
    transports_.push_back(std::make_unique<net::Transport>(
        &clock_, net::NetworkModel::Zero()));
    conns_.push_back(std::make_unique<ssp::SspConnection>(
        &server_, transports_.back().get()));
    return BaselineClient(uid, keys_.at(uid), &identity_,
                          conns_.back().get(), engine_.get(), options_);
  }

  ssp::SspServer& server() { return server_; }
  /// Round trips on the newest client's link.
  uint64_t round_trips() const {
    return transports_.back()->counters().round_trips;
  }

 private:
  SimClock clock_;
  std::unique_ptr<crypto::CryptoEngine> engine_;
  core::IdentityDirectory identity_;
  ssp::SspServer server_;
  BaselineOptions options_;
  std::map<fs::UserId, crypto::RsaPrivateKey> keys_;
  std::vector<std::unique_ptr<net::Transport>> transports_;
  std::vector<std::unique_ptr<ssp::SspConnection>> conns_;
};

class BaselineModeTest : public ::testing::TestWithParam<SecurityMode> {};

TEST_P(BaselineModeTest, MountStatReadWork) {
  BaselineWorld world(GetParam());
  BaselineClient client = world.MakeClient(kUser);
  ASSERT_TRUE(client.Mount().ok());
  auto attrs = client.Getattr("/docs/a.txt");
  ASSERT_TRUE(attrs.ok()) << attrs.status();
  EXPECT_EQ(attrs->owner, kUser);
  EXPECT_EQ(attrs->mode.bits(), 0644);
  auto read = client.Read("/docs/a.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "contents of a");
}

TEST_P(BaselineModeTest, CreateWriteReadRoundTrip) {
  BaselineWorld world(GetParam());
  BaselineClient client = world.MakeClient(kUser);
  ASSERT_TRUE(client.Mount().ok());
  core::CreateOptions opts;
  opts.mode = fs::Mode::FromOctal(0644);
  ASSERT_TRUE(client.Create("/docs/new.txt", opts).ok());
  ASSERT_TRUE(client.WriteFile("/docs/new.txt", ToBytes("fresh")).ok());
  client.DropCaches();
  auto read = client.Read("/docs/new.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "fresh");
}

TEST_P(BaselineModeTest, MkdirReaddirUnlink) {
  BaselineWorld world(GetParam());
  BaselineClient client = world.MakeClient(kUser);
  ASSERT_TRUE(client.Mount().ok());
  core::CreateOptions dopts;
  dopts.mode = fs::Mode::FromOctal(0755);
  ASSERT_TRUE(client.Mkdir("/docs/sub", dopts).ok());
  auto names = client.Readdir("/docs");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 3u);
  EXPECT_TRUE(client.Rmdir("/docs/sub").ok());
  ASSERT_TRUE(client.Unlink("/docs/a.txt").ok());
  EXPECT_FALSE(client.Exists("/docs/a.txt"));
}

TEST_P(BaselineModeTest, UnlinkIsATablePutAndTwoInodeDeletes) {
  BaselineWorld world(GetParam());
  BaselineClient client = world.MakeClient(kUser);
  ASSERT_TRUE(client.Mount().ok());
  ASSERT_TRUE(client.Read("/docs/a.txt").ok());
  constexpr fs::InodeNum kA = 3;  // Provisioning order, see BaselineWorld.
  obs::Counter* subops =
      obs::MetricsRegistry::Global().counter("ssp.batch_subops");
  const uint64_t before = subops->Value();
  ASSERT_TRUE(client.Unlink("/docs/a.txt").ok());
  // The parent's table, then the inode's metadata (its per-user objects
  // included) and its data: no sub-op per registered user.
  EXPECT_EQ(subops->Value() - before, 3u);
  for (fs::UserId uid : {kUser, kOther}) {
    EXPECT_FALSE(world.server()
                     .store()
                     .Get(ssp::ObjectRef::UserMetadata(kA, uid))
                     .has_value());
  }
  EXPECT_FALSE(
      world.server().store().Get(ssp::ObjectRef::Data(kA, 0)).has_value());
}

TEST_P(BaselineModeTest, MultiBlockFile) {
  BaselineWorld world(GetParam());
  BaselineClient client = world.MakeClient(kUser);
  ASSERT_TRUE(client.Mount().ok());
  core::CreateOptions opts;
  opts.mode = fs::Mode::FromOctal(0644);
  ASSERT_TRUE(client.Create("/docs/big", opts).ok());
  Rng rng(17);
  Bytes big = rng.NextBytes(15000);
  ASSERT_TRUE(client.WriteFile("/docs/big", big).ok());
  client.DropCaches();
  auto read = client.Read("/docs/big");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, big);
}

TEST_P(BaselineModeTest, FileLevelPermissionChecks) {
  BaselineWorld world(GetParam());
  BaselineClient other = world.MakeClient(kOther);
  ASSERT_TRUE(other.Mount().ok());
  // 0644: readable, not writable by others.
  ASSERT_TRUE(other.Read("/docs/a.txt").ok());
  EXPECT_FALSE(other.Write("/docs/a.txt", ToBytes("x")).ok());
  // 0600: unreadable by others (client-side check in baselines).
  EXPECT_FALSE(other.Read("/docs/private.txt").ok());
  // chmod is owner-only.
  EXPECT_FALSE(other.Chmod("/docs/a.txt", fs::Mode::FromOctal(0666)).ok());
}

TEST_P(BaselineModeTest, ChmodByOwnerChangesAttrs) {
  BaselineWorld world(GetParam());
  BaselineClient client = world.MakeClient(kUser);
  ASSERT_TRUE(client.Mount().ok());
  ASSERT_TRUE(client.Chmod("/docs/a.txt", fs::Mode::FromOctal(0600)).ok());
  BaselineClient other = world.MakeClient(kOther);
  ASSERT_TRUE(other.Mount().ok());
  EXPECT_FALSE(other.Read("/docs/a.txt").ok());
}

TEST_P(BaselineModeTest, TransientFaultOnDataBlockIsUnavailable) {
  // Regression: the baselines once read any non-ok reply for a file's
  // first data block as "never written", so one transient kError read
  // back as an EMPTY FILE. Reads follow the same reply rule as the
  // SHAROES client: kError is Unavailable and the retry gets the bytes.
  BaselineWorld world(GetParam());
  BaselineClient client = world.MakeClient(kUser);
  ASSERT_TRUE(client.Mount().ok());
  // Warm the descent so that the next request is the data get.
  ASSERT_TRUE(client.Getattr("/docs/a.txt").ok());
  sharoes::testing::ScriptedInjector fail_one(
      {sharoes::testing::Fault(ssp::FaultAction::Kind::kFailRequest)});
  world.server().set_fault_injector(&fail_one);
  auto read = client.Read("/docs/a.txt");
  world.server().set_fault_injector(nullptr);
  ASSERT_FALSE(read.ok()) << "read " << read->size() << " bytes";
  EXPECT_TRUE(read.status().IsUnavailable()) << read.status();
  read = client.Read("/docs/a.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "contents of a");
}

TEST_P(BaselineModeTest, EvictKeepsInodesWhoseNumberItPrefixes) {
  // Regression: evicting inode 3 erased every key starting "m|3", "t|3"
  // or "d|3", so it also dropped the cached record and blocks of inodes
  // 30-39 (and 300-399, ...), and their next read went back to the SSP.
  BaselineWorld world(GetParam(), /*extra_files=*/26);
  BaselineClient client = world.MakeClient(kUser);
  ASSERT_TRUE(client.Mount().ok());
  auto a = client.Getattr("/docs/a.txt");
  auto f25 = client.Getattr("/docs/f25");
  ASSERT_TRUE(a.ok() && f25.ok());
  ASSERT_EQ(a->inode, 3u);
  ASSERT_EQ(f25->inode, 30u);
  ASSERT_TRUE(client.Read("/docs/a.txt").ok());
  ASSERT_TRUE(client.Read("/docs/f25").ok());
  ASSERT_TRUE(client.EvictPath("/docs/a.txt").ok());
  uint64_t before = world.round_trips();
  auto read = client.Read("/docs/f25");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "file 25");
  EXPECT_EQ(world.round_trips() - before, 0u);
  // The evicted inode itself is fetched again.
  ASSERT_TRUE(client.Read("/docs/a.txt").ok());
  EXPECT_GT(world.round_trips() - before, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, BaselineModeTest,
                         ::testing::Values(SecurityMode::kNoEncMdD,
                                           SecurityMode::kNoEncMd,
                                           SecurityMode::kPublic,
                                           SecurityMode::kPubOpt),
                         [](const auto& info) {
                           std::string name = SecurityModeName(info.param);
                           std::string out;
                           for (char c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               out.push_back(c);
                             }
                           }
                           return out;
                         });

TEST(BaselineStorageTest, EncryptedModesActuallyEncrypt) {
  // The plaintext "contents of a" must appear in the SSP store only for
  // NO-ENC-MD-D.
  auto contains = [](const Bytes& haystack, const std::string& needle) {
    return std::search(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end()) != haystack.end();
  };
  for (SecurityMode mode :
       {SecurityMode::kNoEncMdD, SecurityMode::kNoEncMd,
        SecurityMode::kPublic, SecurityMode::kPubOpt}) {
    BaselineWorld world(mode);
    // File data lives at (inode of a.txt, block 1); inode 3 by creation
    // order (root=1, docs=2, a.txt=3).
    auto blob = world.server().store().Get(ssp::ObjectRef::Data(3, 1));
    ASSERT_TRUE(blob.has_value()) << SecurityModeName(mode);
    EXPECT_EQ(contains(*blob, "contents of a"),
              mode == SecurityMode::kNoEncMdD)
        << SecurityModeName(mode);
  }
}

TEST(BaselineStorageTest, PublicModeStoresPerUserCopies) {
  BaselineWorld world(SecurityMode::kPublic);
  // No shared metadata object; per-user copies instead.
  EXPECT_FALSE(world.server().store().Get(
      ssp::ObjectRef::Metadata(3, 0)).has_value());
  EXPECT_TRUE(world.server().store().Get(
      ssp::ObjectRef::UserMetadata(3, kUser)).has_value());
  EXPECT_TRUE(world.server().store().Get(
      ssp::ObjectRef::UserMetadata(3, kOther)).has_value());
}

TEST(BaselineStorageTest, PubOptStoresSealedRecordPlusWrappedKeys) {
  BaselineWorld world(SecurityMode::kPubOpt);
  EXPECT_TRUE(world.server().store().Get(
      ssp::ObjectRef::Metadata(3, 0)).has_value());
  EXPECT_TRUE(world.server().store().Get(
      ssp::ObjectRef::UserMetadata(3, kUser)).has_value());
}

TEST(BaselineRecordTest, SerializationRoundTrip) {
  BaselineRecord rec;
  rec.attrs.inode = 9;
  rec.attrs.owner = 1;
  rec.attrs.mode = fs::Mode::FromOctal(0640);
  rec.dek = Bytes(16, 7);
  rec.signing_material = Bytes(100, 0x5A);
  auto back = BaselineRecord::Deserialize(rec.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->attrs, rec.attrs);
  EXPECT_EQ(back->dek, rec.dek);
  EXPECT_EQ(back->signing_material, rec.signing_material);
  EXPECT_FALSE(BaselineRecord::Deserialize(ToBytes("junk")).ok());
}

}  // namespace
}  // namespace sharoes::baselines
