// Golden layout pin: the exact bytes every writer of the on-SSP layout
// produces. Each leg runs a seeded deployment through a fixed op
// sequence and compares SHA-256 and size of ObjectStore::Serialize()
// against a recorded value. Any change to object rendering, put order or
// the order of engine calls (key generation, AEAD nonces, signatures)
// moves the hash, so refactors of the provisioner, the client write path
// or the baselines must keep every leg green.

#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "testing/world.h"
#include "workload/harness.h"

namespace sharoes {
namespace {

using core::CreateOptions;
using core::Scheme;
using testing::kAlice;
using testing::World;

std::string StoreDigest(const ssp::ObjectStore& store) {
  Bytes image = store.Serialize();
  return std::to_string(image.size()) + ":" +
         HexEncode(crypto::Sha256Digest(image));
}

Bytes Pattern(size_t n, uint8_t salt) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(i * 31 + salt);
  }
  return b;
}

struct SharoesLeg {
  Scheme scheme;
  const char* digest;
};

/// Migrates DefaultTree(), then as alice: create + 3-block-and-100-byte
/// write, a one-byte overwrite (the block diff path), chmod to owner-only
/// (a revocation), mkdir, a cross-directory rename and an unlink.
std::string RunSharoesSequence(Scheme scheme) {
  World::Options opts;
  opts.scheme = scheme;
  World world(opts);
  EXPECT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);

  CreateOptions file_opts;
  file_opts.mode = World::ParseMode("rw-rw----");
  EXPECT_TRUE(alice.Create("/shared/pin.bin", file_opts).ok());
  Bytes content = Pattern(3 * 4096 + 100, 7);
  EXPECT_TRUE(alice.WriteFile("/shared/pin.bin", content).ok());
  content[5000] ^= 0x01;
  EXPECT_TRUE(alice.WriteFile("/shared/pin.bin", content).ok());
  EXPECT_TRUE(
      alice.Chmod("/shared/pin.bin", World::ParseMode("rw-------")).ok());
  CreateOptions dir_opts;
  dir_opts.mode = World::ParseMode("rwxrwx---");
  EXPECT_TRUE(alice.Mkdir("/shared/sub", dir_opts).ok());
  EXPECT_TRUE(alice.Rename("/shared/pin.bin", "/shared/sub/pin.bin").ok());
  EXPECT_TRUE(alice.Unlink("/shared/plan.md").ok());

  alice.DropCaches();
  auto back = alice.Read("/shared/sub/pin.bin");
  EXPECT_TRUE(back.ok()) << back.status();
  if (back.ok()) {
    EXPECT_EQ(*back, content);
  }
  return StoreDigest(world.server().store());
}

class SharoesLayoutPin : public ::testing::TestWithParam<SharoesLeg> {};

TEST_P(SharoesLayoutPin, StoreBytesMatchGolden) {
  const SharoesLeg& leg = GetParam();
  EXPECT_EQ(RunSharoesSequence(leg.scheme), leg.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Legs, SharoesLayoutPin,
    ::testing::Values(
        SharoesLeg{Scheme::kScheme1,
                   "35809:e7c9560bb6a6545ea9b9400e2ee22185"
                   "ea15bb9049cfc6ae6bceffa95e3fb69e"},
        SharoesLeg{Scheme::kScheme2,
                   "35809:ac7ff8223b2c21f23b12fdaf5ff9f124"
                   "b121355759f3623eac0d6e6428183483"}));

TEST(LayoutPinTest, MigratedMultiBlockFile) {
  // The provisioner's own file encoder on a multi-chunk file and an
  // empty one (the descriptor alone).
  World world;
  core::LocalNode root =
      core::LocalNode::Dir("", kAlice, testing::kEng,
                           World::ParseMode("rwxr-xr-x"));
  root.children.push_back(core::LocalNode::File(
      "big.bin", kAlice, testing::kEng, World::ParseMode("rw-rw-r--"),
      Pattern(18000, 3)));
  root.children.push_back(core::LocalNode::File(
      "empty.bin", kAlice, testing::kEng, World::ParseMode("rw-r-----"),
      Bytes{}));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());
  EXPECT_EQ(StoreDigest(world.server().store()),
            "25568:e6af5b1f59c55d690e41690e704be334"
            "a34c966056ecf42a6eb9329e5debf558");
}

struct BaselineLeg {
  workload::SystemVariant variant;
  const char* digest;
};

/// A baseline deployment: create + 2-block-and-100-byte write, mkdir and
/// a cross-directory rename.
std::string RunBaselineSequence(workload::SystemVariant variant) {
  workload::BenchWorldOptions opts;
  opts.variant = variant;
  opts.user_key_bits = 512;
  workload::BenchWorld world(opts);
  core::FsClient& client = world.client();
  CreateOptions file_opts;
  file_opts.mode = fs::Mode::FromOctal(0644);
  EXPECT_TRUE(client.Create("/work/a.txt", file_opts).ok());
  EXPECT_TRUE(client.WriteFile("/work/a.txt", Pattern(2 * 4096 + 100, 11))
                  .ok());
  CreateOptions dir_opts;
  dir_opts.mode = fs::Mode::FromOctal(0755);
  EXPECT_TRUE(client.Mkdir("/work/d", dir_opts).ok());
  EXPECT_TRUE(client.Rename("/work/a.txt", "/work/d/a.txt").ok());
  auto back = client.Read("/work/d/a.txt");
  EXPECT_TRUE(back.ok()) << back.status();
  return StoreDigest(world.server().store());
}

class BaselineLayoutPin : public ::testing::TestWithParam<BaselineLeg> {};

TEST_P(BaselineLayoutPin, StoreBytesMatchGolden) {
  const BaselineLeg& leg = GetParam();
  EXPECT_EQ(RunBaselineSequence(leg.variant), leg.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BaselineLayoutPin,
    ::testing::Values(
        BaselineLeg{workload::SystemVariant::kNoEncMdD,
                    "8977:98a9d6b2f806474cdbbf090ce0b9ddd3"
                    "58497cf1a3661a7b37f52da3e240fcfc"},
        BaselineLeg{workload::SystemVariant::kNoEncMd,
                    "9137:a57ec2e6d834e3de40bca7f9a4e7b2ae"
                    "b0ea53a731da09ee45715441f6e95e15"},
        BaselineLeg{workload::SystemVariant::kPublic,
                    "27301:1b35065600db8274436d58cdbd8acf9e"
                    "b49f4db179224f05302f04b731d244c5"},
        BaselineLeg{workload::SystemVariant::kPubOpt,
                    "24373:13e4ba32e35c358f565203ac6efedaa8"
                    "5ba8d208dd1d96287688d9779a131d01"}));

}  // namespace
}  // namespace sharoes
