// Client edge cases and deep exec-only semantics.

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

/// Forwards to a real in-process connection, then (when armed) rewrites
/// one sub-response of the next batch reply — the malicious-SSP shape the
/// fault-injection suites hit, minus the transport noise.
class TamperingChannel : public ssp::SspChannel {
 public:
  explicit TamperingChannel(ssp::SspChannel* inner) : inner_(inner) {}

  void FailNextBatchSubOp() { armed_ = true; }
  void TruncateNextBatchReply() { truncate_ = true; }
  size_t tampered_index() const { return tampered_index_; }
  ssp::OpCode tampered_op() const { return tampered_op_; }

  Result<ssp::Response> Call(const ssp::Request& req) override {
    auto resp = inner_->Call(req);
    if (!resp.ok() || req.op != ssp::OpCode::kBatch) return resp;
    // Batched reads ride kBatch too since the readahead change; this
    // suite diagnoses the *mutation* batch, so let pure-read batches by.
    bool mutates = false;
    for (const ssp::Request& sub : req.batch) {
      if (ssp::IsMutatingOp(sub.op)) mutates = true;
    }
    if (!mutates) return resp;
    if (armed_ && !resp->batch.empty()) {
      armed_ = false;
      tampered_index_ = resp->batch.size() - 1;
      tampered_op_ = req.batch[tampered_index_].op;
      resp->batch[tampered_index_].status = ssp::RespStatus::kError;
    }
    if (truncate_ && !resp->batch.empty()) {
      truncate_ = false;
      resp->batch.pop_back();
    }
    return resp;
  }

 private:
  ssp::SspChannel* inner_;  // Not owned.
  bool armed_ = false;
  bool truncate_ = false;
  size_t tampered_index_ = 0;
  ssp::OpCode tampered_op_ = ssp::OpCode::kBatch;
};

TEST(ClientEdgeTest, OperationsBeforeMountFail) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  // Build an unmounted client by hand through the world's plumbing: a
  // fresh Mount() on a user is fine, but calling ops on a never-mounted
  // client must fail cleanly. Simulate by remounting with a broken step:
  // here we simply verify FailedPrecondition surfaces via a fresh client
  // that skipped Mount — accessible through World by constructing and
  // not mounting is not exposed, so assert the mounted path works and
  // the error type exists for direct construction (covered in tcp test).
  EXPECT_TRUE(world.client(kAlice).Getattr("/").ok());
}

TEST(ClientEdgeTest, InvalidCreateModes) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  CreateOptions opts;
  // Write-only others on a file.
  opts.mode = fs::Mode::FromOctal(0602);
  Status s = world.client(kAlice).Create("/shared/bad", opts);
  EXPECT_TRUE(s.IsUnsupported()) << s;
  // Write-exec group on a directory.
  opts.mode = fs::Mode::FromOctal(0730);
  s = world.client(kAlice).Mkdir("/shared/baddir", opts);
  EXPECT_TRUE(s.IsUnsupported()) << s;
}

TEST(ClientEdgeTest, TypeConfusions) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  // Read/Write a directory.
  EXPECT_EQ(alice.Read("/home").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(alice.Write("/home", ToBytes("x")).code(),
            StatusCode::kInvalidArgument);
  // Readdir a file.
  EXPECT_EQ(alice.Readdir("/home/alice/notes.txt").status().code(),
            StatusCode::kInvalidArgument);
  // Unlink a directory / Rmdir a file.
  EXPECT_EQ(alice.Unlink("/home/alice").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(alice.Rmdir("/home/alice/notes.txt").code(),
            StatusCode::kInvalidArgument);
  // Path through a file.
  EXPECT_FALSE(alice.Getattr("/home/alice/notes.txt/x").ok());
}

TEST(ClientEdgeTest, AppendToMissingFileFails) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  Status s = world.client(kAlice).Append("/home/alice/ghost", ToBytes("x"));
  EXPECT_TRUE(s.IsNotFound()) << s;
}

TEST(ClientEdgeTest, CloseWithoutWriteIsNoop) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  EXPECT_TRUE(world.client(kAlice).Close("/home/alice/notes.txt").ok());
  EXPECT_TRUE(world.client(kAlice).Close("/nonexistent").ok());
}

TEST(ClientEdgeTest, ChmodOnRootByOwner) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  // Root is owned by alice in the default tree; tightening and reopening
  // it must keep everyone's superblock references valid.
  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/", World::ParseMode("rwxr-x---"))
                  .ok());
  world.client(kCarol).DropCaches();
  EXPECT_FALSE(world.client(kCarol).Getattr("/home").ok());
  ASSERT_TRUE(world.client(kAlice)
                  .Chmod("/", World::ParseMode("rwxr-xr-x"))
                  .ok());
  world.client(kCarol).DropCaches();
  EXPECT_TRUE(world.client(kCarol).Getattr("/home").ok());
}

TEST(ClientEdgeTest, GetattrSizeReflectsWrites) {
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  auto before = alice.Getattr("/home/alice/notes.txt");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size, strlen("alice's notes"));
  // Buffered (pre-Close) size is visible to the writer.
  ASSERT_TRUE(alice.Write("/home/alice/notes.txt", Bytes(500, 'x')).ok());
  auto buffered = alice.Getattr("/home/alice/notes.txt");
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered->size, 500u);
  ASSERT_TRUE(alice.Close("/home/alice/notes.txt").ok());
  auto flushed = alice.Getattr("/home/alice/notes.txt");
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed->size, 500u);
}

TEST(ClientEdgeTest, ManyFilesInOneDirectory) {
  World::Options opts;
  opts.signing_key_pool = 8;
  World world(opts);
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  for (int i = 0; i < 60; ++i) {
    CreateOptions copts;
    copts.mode = World::ParseMode("rw-r--r--");
    ASSERT_TRUE(
        alice.Create("/shared/f" + std::to_string(i), copts).ok());
  }
  auto names = alice.Readdir("/shared");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 61u);  // 60 + plan.md.
  // Spot-check resolution at both ends.
  EXPECT_TRUE(alice.Exists("/shared/f0"));
  EXPECT_TRUE(alice.Exists("/shared/f59"));
}

crypto::CryptoEngineOptions TamperedEngineOptions() {
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.rng_seed = 0xBA7C4;
  return eng_opts;
}

core::ClientOptions TamperedClientOptions(size_t write_batch_ops) {
  core::ClientOptions copts;
  copts.scheme = core::Scheme::kScheme2;
  copts.default_group = kEng;
  copts.write_batch_ops = write_batch_ops;
  return copts;
}

/// A hand-built alice whose channel the test controls, staging
/// `write_batch_ops` sub-ops per flush.
struct TamperedAlice {
  TamperedAlice(World& world, size_t write_batch_ops)
      : engine(&world.clock(), TamperedEngineOptions()),
        transport(&world.clock(), net::NetworkModel::Zero()),
        real(&world.server(), &transport),
        tamper(&real),
        client(kAlice, world.user_key(kAlice), &world.identity(), &tamper,
               &engine, TamperedClientOptions(write_batch_ops)) {}

  crypto::CryptoEngine engine;
  net::Transport transport;
  ssp::SspConnection real;
  TamperingChannel tamper;
  core::SharoesClient client;
};

/// The failing sub-op's index, opcode and verdict are all in `s`.
void ExpectNamesTamperedSubOp(const Status& s, const TamperingChannel& tamper) {
  ASSERT_FALSE(s.ok());
  const std::string want_index =
      "sub-op " + std::to_string(tamper.tampered_index()) + "/";
  EXPECT_NE(s.message().find(want_index), std::string::npos) << s;
  EXPECT_NE(s.message().find(ssp::OpCodeName(tamper.tampered_op())),
            std::string::npos)
      << s;
  EXPECT_NE(s.message().find("kError"), std::string::npos) << s;
}

TEST(ClientEdgeTest, BatchSubOpFailureIsDiagnosable) {
  // Regression: ExecuteBatch used to collapse every sub-op failure into a
  // generic "SSP rejected batched request", leaving fault-injection
  // failures undiagnosable. The error must name the failing sub-op index,
  // its opcode, and the SSP's verdict. Staging off: the Create itself
  // ships, so the error surfaces there.
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  TamperedAlice t(world, /*write_batch_ops=*/0);
  core::SharoesClient& alice = t.client;
  ASSERT_TRUE(alice.Mount().ok());

  CreateOptions opts;
  opts.mode = World::ParseMode("rw-r--r--");
  t.tamper.FailNextBatchSubOp();
  ASSERT_NO_FATAL_FAILURE(ExpectNamesTamperedSubOp(
      alice.Create("/shared/tampered.txt", opts), t.tamper));

  // A short reply (sub-responses lost) is called out as such, not
  // silently treated as success.
  t.tamper.TruncateNextBatchReply();
  Status s = alice.Create("/shared/tampered2.txt", opts);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("sub-responses"), std::string::npos) << s;
}

TEST(ClientEdgeTest, StagedBatchSubOpFailureIsDiagnosableAtTheFlush) {
  // The staging-on twin: Create only stages, so the same diagnosis
  // surfaces at the Fsync() that ships the batch.
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  TamperedAlice t(world, core::ClientOptions{}.write_batch_ops);
  core::SharoesClient& alice = t.client;
  ASSERT_TRUE(alice.Mount().ok());

  CreateOptions opts;
  opts.mode = World::ParseMode("rw-r--r--");
  t.tamper.FailNextBatchSubOp();
  ASSERT_TRUE(alice.Create("/shared/tampered.txt", opts).ok());
  ASSERT_NO_FATAL_FAILURE(ExpectNamesTamperedSubOp(alice.Fsync(), t.tamper));
  // kError is transient: the stage was kept, and replays cleanly.
  ASSERT_TRUE(alice.Fsync().ok());

  t.tamper.TruncateNextBatchReply();
  ASSERT_TRUE(alice.Create("/shared/tampered2.txt", opts).ok());
  Status s = alice.Fsync();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("sub-responses"), std::string::npos) << s;
}

TEST(ExecOnlyDeepTest, ChainOfExecOnlyDirectories) {
  // /a/b/c all rwx--x--x for alice; carol can reach a known file at the
  // bottom but cannot list anything along the way.
  World world;
  core::LocalNode root =
      core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  core::LocalNode a =
      core::LocalNode::Dir("a", kAlice, kEng, World::ParseMode("rwx--x--x"));
  core::LocalNode b =
      core::LocalNode::Dir("b", kAlice, kEng, World::ParseMode("rwx--x--x"));
  core::LocalNode cdir =
      core::LocalNode::Dir("c", kAlice, kEng, World::ParseMode("rwx--x--x"));
  cdir.children.push_back(core::LocalNode::File(
      "treasure.txt", kAlice, kEng, World::ParseMode("rw-r--r--"),
      ToBytes("found it")));
  b.children.push_back(std::move(cdir));
  a.children.push_back(std::move(b));
  root.children.push_back(std::move(a));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  auto& carol = world.client(kCarol);
  EXPECT_FALSE(carol.Readdir("/a").ok());
  EXPECT_FALSE(carol.Readdir("/a/b").ok());
  EXPECT_FALSE(carol.Readdir("/a/b/c").ok());
  auto read = carol.Read("/a/b/c/treasure.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "found it");
  // A wrong guess at any level finds nothing.
  EXPECT_TRUE(carol.Read("/a/b/c/nope.txt").status().IsNotFound());
  EXPECT_TRUE(carol.Read("/a/x/c/treasure.txt").status().IsNotFound());
}

TEST(ExecOnlyDeepTest, ExecOnlyTableLeaksNoNames) {
  // Structural secrecy: the stored exec-only table copy contains neither
  // plaintext names nor name-derivable patterns (row ids are HMACs).
  World world;
  core::LocalNode root =
      core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  core::LocalNode d =
      core::LocalNode::Dir("d", kAlice, kEng, World::ParseMode("rwx--x--x"));
  d.children.push_back(core::LocalNode::File(
      "very-secret-project-name.txt", kAlice, kEng,
      World::ParseMode("rw-r--r--"), ToBytes("x")));
  root.children.push_back(std::move(d));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  auto attrs = world.client(kAlice).Getattr("/d");
  ASSERT_TRUE(attrs.ok());
  const std::string needle = "very-secret-project-name";
  // Every table object of the directory: heads, buckets and the master.
  size_t scanned = 0;
  for (const ssp::ObjectVersion& v : world.server().store().ListVersions()) {
    if (v.ref.family != ssp::ObjectFamily::kMetadata ||
        v.ref.k1 != attrs->inode ||
        (v.ref.k2 & core::kTableSelectorFlag) == 0) {
      continue;
    }
    auto blob = world.server().store().Get(v.ref);
    if (!blob.has_value()) continue;
    ++scanned;
    EXPECT_EQ(std::search(blob->begin(), blob->end(), needle.begin(),
                          needle.end()),
              blob->end())
        << "name leaked in table object " << v.ref.k2;
  }
  EXPECT_GE(scanned, 4u);
}

TEST(ExecOnlyDeepTest, CreateInsideExecOnlyByOwner) {
  // The owner retains full access to their exec-only directory.
  World world;
  core::LocalNode root =
      core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  root.children.push_back(
      core::LocalNode::Dir("priv", kAlice, kEng,
                           World::ParseMode("rwx--x--x")));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());
  CreateOptions copts;
  copts.mode = World::ParseMode("rw-r--r--");
  ASSERT_TRUE(world.client(kAlice).Create("/priv/new.txt", copts).ok());
  ASSERT_TRUE(
      world.client(kAlice).WriteFile("/priv/new.txt", ToBytes("hi")).ok());
  // bob (group --x) reaches it by name after the update.
  world.client(kBob).DropCaches();
  auto read = world.client(kBob).Read("/priv/new.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "hi");
}

}  // namespace
}  // namespace sharoes
