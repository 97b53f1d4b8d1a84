// Migration-tool tests: the transition phase (paper §IV, component 1).

#include <gtest/gtest.h>

#include "testing/world.h"
#include "workload/tree_gen.h"

namespace sharoes {
namespace {

using core::LocalNode;
using testing::kAlice;
using testing::kBob;
using testing::kEng;
using testing::World;

TEST(MigrationTest, StatsCountObjects) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  const core::MigrationStats& stats = world.migration_stats();
  EXPECT_EQ(stats.files, 4u);
  EXPECT_EQ(stats.directories, 5u);  // /, home, alice, bob, shared.
  EXPECT_GT(stats.metadata_replicas, stats.files + stats.directories);
  EXPECT_GT(stats.table_copies, stats.directories);
  EXPECT_GT(stats.data_blocks, 0u);
  EXPECT_GT(stats.bytes_transferred, 1000u);
  EXPECT_TRUE(stats.degraded_paths.empty());
}

TEST(MigrationTest, ContentsSurviveMigrationExactly) {
  // Every file in a generated tree reads back byte-identical through the
  // owner's client.
  workload::TreeGenParams params;
  params.depth = 1;
  params.dirs_per_dir = 3;
  params.files_per_dir = 4;
  params.owner = kAlice;
  params.group = kEng;
  params.exec_only_dir_fraction = 0.5;
  params.seed = 77;
  LocalNode root = workload::GenerateTree(params);

  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  std::function<void(const LocalNode&, const std::string&)> verify =
      [&](const LocalNode& node, const std::string& path) {
        for (const LocalNode& child : node.children) {
          std::string cpath =
              path == "/" ? "/" + child.name : path + "/" + child.name;
          if (child.type == fs::FileType::kFile) {
            auto read = world.client(kAlice).Read(cpath);
            ASSERT_TRUE(read.ok()) << cpath << ": " << read.status();
            EXPECT_EQ(*read, child.content) << cpath;
          } else {
            verify(child, cpath);
          }
        }
      };
  verify(root, "/");
}

TEST(MigrationTest, ModesSurviveMigration) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto attrs = world.client(kAlice).Getattr("/home/alice");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->mode.ToString(), "rwxr-x--x");
  EXPECT_EQ(attrs->owner, kAlice);
  EXPECT_EQ(attrs->group, kEng);
}

TEST(MigrationTest, UnsupportedModesDegradeWithReport) {
  World world;
  LocalNode root =
      LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  // Directory with -wx for others (the unsupported setting).
  root.children.push_back(
      LocalNode::Dir("odd", kAlice, kEng, World::ParseMode("rwxr-x-wx")));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());
  ASSERT_EQ(world.migration_stats().degraded_paths.size(), 1u);
  EXPECT_EQ(world.migration_stats().degraded_paths[0], "/odd");
}

TEST(MigrationTest, MigrateRejectsFileRoot) {
  World world;
  LocalNode bad = LocalNode::File("f", kAlice, kEng,
                                  World::ParseMode("rw-r--r--"), {});
  auto stats = world.provisioner().Migrate(bad);
  EXPECT_FALSE(stats.ok());
}

TEST(MigrationTest, RemigrationReplacesFilesystem) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  LocalNode root =
      LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  root.children.push_back(LocalNode::File(
      "only.txt", kAlice, kEng, World::ParseMode("rw-r--r--"),
      ToBytes("fresh world")));
  ASSERT_TRUE(world.provisioner().Migrate(root).ok());
  ASSERT_TRUE(world.Mount(kAlice).ok());
  auto read = world.client(kAlice).Read("/only.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "fresh world");
}

TEST(MigrationTest, LargeFileChunking) {
  World world;
  LocalNode root =
      LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  Rng rng(9);
  Bytes big = rng.NextBytes(20000);  // ~5 blocks at 4 KiB.
  root.children.push_back(LocalNode::File(
      "big.bin", kAlice, kEng, World::ParseMode("rw-r--r--"), big));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());
  auto attrs = world.client(kAlice).Getattr("/big.bin");
  ASSERT_TRUE(attrs.ok());
  // 20000 bytes => block 0 is the descriptor, 5 chunk blocks follow.
  EXPECT_TRUE(world.server().store().Get(
      ssp::ObjectRef::Data(attrs->inode, 5)).has_value());
  EXPECT_FALSE(world.server().store().Get(
      ssp::ObjectRef::Data(attrs->inode, 6)).has_value());
  auto read = world.client(kAlice).Read("/big.bin");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, big);
}

TEST(MigrationTest, GeneratedTreesAreDeterministic) {
  workload::TreeGenParams params;
  params.seed = 42;
  LocalNode a = workload::GenerateTree(params);
  LocalNode b = workload::GenerateTree(params);
  ASSERT_EQ(a.children.size(), b.children.size());
  // Spot-check: first file identical.
  ASSERT_FALSE(a.children.empty());
  EXPECT_EQ(a.children[0].name, b.children[0].name);
  EXPECT_EQ(a.children[0].content, b.children[0].content);
  params.seed = 43;
  LocalNode c = workload::GenerateTree(params);
  EXPECT_NE(a.children[0].content, c.children[0].content);
}

}  // namespace
}  // namespace sharoes
