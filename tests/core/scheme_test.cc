// Scheme-1 vs Scheme-2 (paper §III-D): behavioural equivalence and the
// structural differences (replica counts, storage).

#include <gtest/gtest.h>

#include "testing/world.h"

namespace sharoes {
namespace {

using core::Scheme;
using testing::kAlice;
using testing::kBob;
using testing::kCarol;
using testing::kEng;
using testing::World;

World::Options SchemeOptions(Scheme scheme) {
  World::Options o;
  o.scheme = scheme;
  return o;
}

// The same behavioural expectations must hold under both schemes.
class SchemeSweep : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeSweep, SharingSemanticsIdentical) {
  World world(SchemeOptions(GetParam()));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());

  // Owner read own file.
  auto r = world.client(kAlice).Read("/home/alice/notes.txt");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(ToString(*r), "alice's notes");
  // Group member read.
  r = world.client(kBob).Read("/home/alice/notes.txt");
  ASSERT_TRUE(r.ok()) << r.status();
  // Non-member denied.
  EXPECT_FALSE(world.client(kCarol).Read("/home/alice/notes.txt").ok());
  // Others read world-readable through an exec-only directory.
  r = world.client(kCarol).Read("/home/alice/public.txt");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(ToString(*r), "hello world");
  // Private directory blocks others.
  EXPECT_FALSE(world.client(kAlice).Read("/home/bob/secret.txt").ok());
  // Create + cross-user read.
  core::CreateOptions opts;
  opts.mode = World::ParseMode("rw-r--r--");
  ASSERT_TRUE(world.client(kAlice).Create("/shared/new.txt", opts).ok());
  ASSERT_TRUE(
      world.client(kAlice).WriteFile("/shared/new.txt", ToBytes("hi")).ok());
  r = world.client(kBob).Read("/shared/new.txt");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(ToString(*r), "hi");
}

TEST_P(SchemeSweep, ChmodRevocationWorks) {
  World world(SchemeOptions(GetParam()));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  ASSERT_TRUE(world.client(kCarol).Read("/home/alice/public.txt").ok());
  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/home/alice/public.txt",
                         World::ParseMode("rw-r-----"))
                  .ok());
  world.client(kCarol).DropCaches();
  EXPECT_FALSE(world.client(kCarol).Read("/home/alice/public.txt").ok());
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, SchemeSweep,
                         ::testing::Values(Scheme::kScheme1,
                                           Scheme::kScheme2));

// Adds three extra enterprise users (one in eng) so class universes have
// several members — replication and split behaviour only differ from
// per-user replication when users outnumber classes.
void AddExtraUsers(World& world) {
  world.AddUser(200, "dave");
  world.AddUser(201, "erin");
  world.AddUser(202, "frank");
  ASSERT_TRUE(world.provisioner().AddGroupMember(kEng, 200).ok());
}

/// Live metadata replicas stored for an inode.
size_t MetadataReplicas(World& world, fs::InodeNum inode) {
  size_t n = 0;
  for (const ssp::ObjectVersion& v : world.server().store().ListVersions()) {
    n += v.ref.family == ssp::ObjectFamily::kMetadata && v.ref.k1 == inode &&
         !v.tombstone;
  }
  return n;
}

TEST(SchemeStructureTest, Scheme1ReplicatesPerUser) {
  World w1(SchemeOptions(Scheme::kScheme1));
  AddExtraUsers(w1);
  ASSERT_TRUE(w1.MigrateAndMountAll(World::DefaultTree()).ok());
  World w2(SchemeOptions(Scheme::kScheme2));
  AddExtraUsers(w2);
  ASSERT_TRUE(w2.MigrateAndMountAll(World::DefaultTree()).ok());

  // Scheme-1: one replica per registered user (6).
  auto attrs1 = w1.client(kAlice).Getattr("/home/alice/public.txt");
  ASSERT_TRUE(attrs1.ok());
  EXPECT_EQ(MetadataReplicas(w1, attrs1->inode), 6u);

  // Scheme-2: one replica per non-empty class.
  auto attrs2 = w2.client(kAlice).Getattr("/home/alice/public.txt");
  ASSERT_TRUE(attrs2.ok());
  size_t replicas2 = MetadataReplicas(w2, attrs2->inode);
  EXPECT_LE(replicas2, 3u);
  EXPECT_GE(replicas2, 1u);

  // Total metadata storage: Scheme-1 strictly larger.
  EXPECT_GT(w1.server().store().Stats().metadata_bytes,
            w2.server().store().Stats().metadata_bytes);
}

TEST(SchemeStructureTest, Scheme1HasNoSplitBlocks) {
  // Per-user trees never diverge within a copy (each copy has exactly one
  // reader), so Scheme-1 stores no split blocks even for cross-owned
  // trees; Scheme-2 stores some for the same tree.
  World w1(SchemeOptions(Scheme::kScheme1));
  AddExtraUsers(w1);
  ASSERT_TRUE(w1.MigrateAndMountAll(World::DefaultTree()).ok());
  EXPECT_EQ(w1.migration_stats().split_blocks, 0u);

  World w2(SchemeOptions(Scheme::kScheme2));
  AddExtraUsers(w2);
  ASSERT_TRUE(w2.MigrateAndMountAll(World::DefaultTree()).ok());
  // /home contains alice's and bob's homes (different owners): the eng
  // group copy of /home is read by bob and dave, who diverge on
  // /home/bob (owner vs. group member) — a split point.
  EXPECT_GT(w2.migration_stats().split_blocks, 0u);
  // And the split still resolves correctly for everyone involved.
  ASSERT_TRUE(w2.Mount(200).ok());
  EXPECT_TRUE(w2.client(200).Getattr("/home/bob").ok());
  EXPECT_FALSE(w2.client(200).Read("/home/bob/secret.txt").ok());
  EXPECT_TRUE(w2.client(kBob).Read("/home/bob/secret.txt").ok());
}

}  // namespace
}  // namespace sharoes
