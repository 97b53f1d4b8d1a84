// Revocation tests (paper §IV-A.1): chmod-driven permission changes with
// immediate re-encryption, plus group-membership revocation.

#include <gtest/gtest.h>

#include "testing/world.h"

namespace sharoes {
namespace {

using core::CreateOptions;
using testing::kAlice;
using testing::kBob;
using testing::kCarol;
using testing::kEng;
using testing::World;

core::LocalNode TreeWithSharedFile() {
  using core::LocalNode;
  LocalNode root =
      LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  root.children.push_back(LocalNode::File(
      "doc.txt", kAlice, kEng, World::ParseMode("rw-r--r--"),
      ToBytes("version one")));
  return root;
}

TEST(RevocationTest, ChmodGrantsNewAccess) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWithSharedFile()).ok());
  // Tighten to owner-only first, then re-grant to others.
  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/doc.txt", World::ParseMode("rw-------"))
                  .ok());
  world.client(kCarol).DropCaches();
  EXPECT_FALSE(world.client(kCarol).Read("/doc.txt").ok());
  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/doc.txt", World::ParseMode("rw-r--r--"))
                  .ok());
  world.client(kCarol).DropCaches();
  auto read = world.client(kCarol).Read("/doc.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "version one");
}

TEST(RevocationTest, ImmediateRevocationRotatesDataKey) {
  World world;  // Immediate mode is the default.
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWithSharedFile()).ok());

  // Carol reads the file (and thereby caches its DEK inside her client).
  auto before = world.client(kCarol).Read("/doc.txt");
  ASSERT_TRUE(before.ok());

  // Alice revokes others' read; immediate mode re-encrypts now.
  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/doc.txt", World::ParseMode("rw-r-----"))
                  .ok());

  // Carol's fresh fetch is denied.
  world.client(kCarol).DropCaches();
  auto after = world.client(kCarol).Read("/doc.txt");
  EXPECT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsPermissionDenied()) << after.status();

  // Bob (group) still reads, and sees content re-encrypted under the new
  // key transparently.
  world.client(kBob).DropCaches();
  auto bob = world.client(kBob).Read("/doc.txt");
  ASSERT_TRUE(bob.ok()) << bob.status();
  EXPECT_EQ(ToString(*bob), "version one");
}

TEST(RevocationTest, ImmediateRevocationDefeatsCachedKey) {
  // The sharper property: even an adversary who kept the old DEK cannot
  // use it after immediate revocation, because the stored ciphertext was
  // rewritten under a fresh key.
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWithSharedFile()).ok());
  auto before = world.client(kCarol).Read("/doc.txt");
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/doc.txt", World::ParseMode("rw-r-----"))
                  .ok());

  // Carol's client still holds its old decrypted cache; a *fresh* fetch
  // of the raw blocks from the SSP (simulating the cached-DEK adversary)
  // yields bytes encrypted under the rotated key: her stale cache can no
  // longer be refreshed, and without DropCaches her client would serve
  // only the historical copy she already had.
  world.client(kCarol).DropCaches();
  EXPECT_FALSE(world.client(kCarol).Read("/doc.txt").ok());
}

TEST(RevocationTest, ChmodByNonOwnerDenied) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWithSharedFile()).ok());
  Status s = world.client(kBob).Chmod("/doc.txt",
                                      World::ParseMode("rwxrwxrwx"));
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsPermissionDenied()) << s;
}

TEST(RevocationTest, ChmodToUnsupportedModeRejected) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(TreeWithSharedFile()).ok());
  // Write-only for others on a file (0602) is unrepresentable.
  Status s = world.client(kAlice).Chmod("/doc.txt", fs::Mode::FromOctal(0602));
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnsupported()) << s;
}

TEST(RevocationTest, DirectoryChmodChangesTableView) {
  World world;
  core::LocalNode root =
      core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  core::LocalNode d =
      core::LocalNode::Dir("d", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  d.children.push_back(core::LocalNode::File(
      "f", kAlice, kEng, World::ParseMode("rw-r--r--"), ToBytes("x")));
  root.children.push_back(std::move(d));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  // Initially carol can list and traverse.
  ASSERT_TRUE(world.client(kCarol).Readdir("/d").ok());
  ASSERT_TRUE(world.client(kCarol).Getattr("/d/f").ok());

  // rwxr-x--x: others become exec-only — no listing, traversal works.
  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/d", World::ParseMode("rwxr-x--x"))
                  .ok());
  world.client(kCarol).DropCaches();
  EXPECT_FALSE(world.client(kCarol).Readdir("/d").ok());
  EXPECT_TRUE(world.client(kCarol).Getattr("/d/f").ok());

  // rwxr-x---: others lose everything.
  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/d", World::ParseMode("rwxr-x---"))
                  .ok());
  world.client(kCarol).DropCaches();
  EXPECT_FALSE(world.client(kCarol).Readdir("/d").ok());
  EXPECT_FALSE(world.client(kCarol).Getattr("/d/f").ok());
}

TEST(RevocationTest, GroupMembershipRevocation) {
  World world;
  core::LocalNode root =
      core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  root.children.push_back(core::LocalNode::File(
      "eng.txt", kAlice, kEng, World::ParseMode("rw-r-----"),
      ToBytes("eng only")));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  // Bob (member) reads.
  ASSERT_TRUE(world.client(kBob).Read("/eng.txt").ok());

  // The admin removes bob from eng and rotates the group key.
  ASSERT_TRUE(world.provisioner().RemoveGroupMember(kEng, kBob).ok());

  // Bob re-mounts (fresh client, no cached keys): his class is now
  // "others" (---) and the group key block for him is gone.
  ASSERT_TRUE(world.Mount(kBob).ok());
  auto read = world.client(kBob).Read("/eng.txt");
  EXPECT_FALSE(read.ok()) << "revoked member must lose access";
}

TEST(RevocationTest, AddedGroupMemberGainsAccessAfterRefresh) {
  World world;
  core::LocalNode root =
      core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  root.children.push_back(core::LocalNode::File(
      "eng.txt", kAlice, kEng, World::ParseMode("rw-r-----"),
      ToBytes("eng only")));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());
  EXPECT_FALSE(world.client(kCarol).Read("/eng.txt").ok());

  ASSERT_TRUE(world.provisioner().AddGroupMember(kEng, kCarol).ok());
  // Class universes changed: the admin refreshes superblocks (carol's
  // class at the root changed) and the owner refreshes affected
  // directories so rows reflect the new membership.
  ASSERT_TRUE(world.provisioner().RefreshSuperblocks().ok());
  ASSERT_TRUE(world.client(kAlice).RefreshDir("/").ok());
  // Re-render the file's replicas for its new group universe.
  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/eng.txt", World::ParseMode("rw-r-----"))
                  .ok());
  ASSERT_TRUE(world.Mount(kCarol).ok());
  auto read = world.client(kCarol).Read("/eng.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "eng only");
}

/// Forwards to a real in-process connection, except that once armed it
/// answers the next mutating call with a transient kError and drops the
/// request: the store keeps its old state, as after a transport or
/// quorum failure.
class FailNextWriteChannel : public ssp::SspChannel {
 public:
  explicit FailNextWriteChannel(ssp::SspChannel* inner) : inner_(inner) {}

  void Arm() { armed_ = true; }

  Result<ssp::Response> Call(const ssp::Request& req) override {
    bool mutates = ssp::IsMutatingOp(req.op);
    for (const ssp::Request& sub : req.batch) {
      mutates = mutates || ssp::IsMutatingOp(sub.op);
    }
    if (armed_ && mutates) {
      armed_ = false;
      return ssp::Response::Error();
    }
    return inner_->Call(req);
  }

 private:
  ssp::SspChannel* inner_;  // Not owned.
  bool armed_ = false;
};

TEST(RevocationTest, FailedImmediateChmodKeepsFileReadable) {
  // Regression: an immediate-revocation chmod recorded the file's new
  // write generation before its batch shipped. When the batch failed the
  // store kept the old generation, and every later read by the owner
  // failed as a rollback.
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());

  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.rng_seed = 0xC4A0D;
  crypto::CryptoEngine engine(&world.clock(), eng_opts);
  net::Transport transport(&world.clock(), net::NetworkModel::Zero());
  ssp::SspConnection real(&world.server(), &transport);
  FailNextWriteChannel channel(&real);
  core::ClientOptions copts;
  copts.default_group = kEng;
  core::SharoesClient alice(kAlice, world.user_key(kAlice),
                            &world.identity(), &channel, &engine, copts);
  ASSERT_TRUE(alice.Mount().ok());

  auto before = alice.Read("/shared/plan.md");
  ASSERT_TRUE(before.ok()) << before.status();
  channel.Arm();
  Status s = alice.Chmod("/shared/plan.md", World::ParseMode("rw-------"));
  ASSERT_FALSE(s.ok());

  auto after = alice.Read("/shared/plan.md");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(ToString(*after), "Q3 plan");
}

}  // namespace
}  // namespace sharoes
