// The batched read path (DESIGN.md §11): coalesced path resolution,
// readahead windows, the negative dentry cache, and the read-path error
// taxonomy. The invariant everything here defends: batching changes
// round-trip counts and nothing else — every byte a batched client
// returns matches the per-block wire behaviour, under faults included.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/retrying_connection.h"
#include "obs/metrics.h"
#include "ssp/message.h"
#include "testing/fault.h"
#include "testing/world.h"

namespace sharoes::core {
namespace {

using sharoes::testing::Fault;
using sharoes::testing::kAlice;
using sharoes::testing::kBob;
using sharoes::testing::kEng;
using sharoes::testing::ScriptedInjector;
using sharoes::testing::World;

constexpr fs::UserId kDave = 200;  // A second eng member besides bob.

Bytes BlocksOfPattern(uint32_t blocks, uint8_t salt) {
  Bytes b(static_cast<size_t>(blocks) * 4096);
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<uint8_t>((i * 37 + salt) & 0xFF);
  }
  return b;
}

World::Options BatchedOpts(bool batched, size_t readahead = 32) {
  World::Options opts;
  opts.readahead_blocks = batched ? readahead : 0;
  return opts;
}

uint64_t ColdRead(World& world, fs::UserId uid, const std::string& path,
                  Bytes* out) {
  world.client(uid).DropCaches();
  uint64_t before = world.transport(uid).counters().round_trips;
  auto content = world.client(uid).Read(path);
  EXPECT_TRUE(content.ok()) << content.status();
  if (content.ok()) *out = std::move(*content);
  return world.transport(uid).counters().round_trips - before;
}

TEST(BatchedReadTest, ColdReadsAreByteIdenticalAndCheaper) {
  // The same tree and 18-block file in a batched and an unbatched world;
  // every cold read must return identical bytes, and the batched world
  // must spend strictly fewer wire round trips doing it.
  Bytes big = BlocksOfPattern(18, 3);
  World batched(BatchedOpts(true));
  World unbatched(BatchedOpts(false));
  for (World* w : {&batched, &unbatched}) {
    ASSERT_TRUE(w->MigrateAndMountAll(World::DefaultTree()).ok());
    CreateOptions fopts;
    fopts.mode = World::ParseMode("rw-rw----");
    ASSERT_TRUE(w->client(kAlice).Create("/shared/big.bin", fopts).ok());
    ASSERT_TRUE(w->client(kAlice).WriteFile("/shared/big.bin", big).ok());
  }

  for (const char* path : {"/shared/big.bin", "/home/alice/notes.txt",
                           "/home/alice/public.txt", "/shared/plan.md"}) {
    Bytes got_batched, got_unbatched;
    uint64_t trips_batched = ColdRead(batched, kAlice, path, &got_batched);
    uint64_t trips_unbatched =
        ColdRead(unbatched, kAlice, path, &got_unbatched);
    EXPECT_EQ(got_batched, got_unbatched) << path;
    EXPECT_LT(trips_batched, trips_unbatched) << path;
  }
  // The big sequential read is where readahead pays: at least 4x fewer
  // round trips (18 data gets + descent collapse into a handful of
  // batches).
  Bytes got;
  uint64_t tb = ColdRead(batched, kAlice, "/shared/big.bin", &got);
  uint64_t tu = ColdRead(unbatched, kAlice, "/shared/big.bin", &got);
  EXPECT_GE(tu, 4 * tb) << "batched=" << tb << " unbatched=" << tu;
}

TEST(BatchedReadTest, CachedReadMakesNoRoundTrip) {
  // Once block 0 is cached its descriptor knows the EOF, so a re-read of
  // a fully cached file asks the SSP for nothing — not even the blocks
  // of the speculative first window that lie past the end.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-rw----");
  for (uint32_t blocks : {1u, 2u, 3u, 6u}) {
    std::string path = "/shared/f" + std::to_string(blocks) + ".bin";
    Bytes content = BlocksOfPattern(blocks, static_cast<uint8_t>(blocks));
    ASSERT_TRUE(alice.Create(path, fopts).ok());
    ASSERT_TRUE(alice.WriteFile(path, content).ok());
    alice.DropCaches();
    auto first = alice.Read(path);
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_EQ(*first, content) << path;
    uint64_t before = alice.rpc_round_trips();
    auto second = alice.Read(path);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(alice.rpc_round_trips() - before, 0u) << path;
    EXPECT_EQ(*second, content) << path;
  }
}

TEST(BatchedReadTest, CachedReaderSeesGrowthOnlyAfterEvict) {
  // Close-to-open: a reader serves its cached block 0 (and the EOF it
  // records) until EvictPath, even after another client grew the file.
  // The evicted re-read sees the new version and moves the reader's
  // freshness record forward: a rollback to the old one is then caught.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  auto& bob = world.client(kBob);
  const std::string path = "/shared/grow.bin";
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-rw----");
  Bytes v1 = BlocksOfPattern(1, 1);
  Bytes v2 = BlocksOfPattern(3, 2);
  ASSERT_TRUE(alice.Create(path, fopts).ok());
  ASSERT_TRUE(alice.WriteFile(path, v1).ok());
  auto attrs = alice.Getattr(path);
  ASSERT_TRUE(attrs.ok()) << attrs.status();
  const fs::InodeNum inode = attrs->inode;

  auto got = bob.Read(path);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, v1);
  auto v1_block0 = world.server().store().Get(ssp::ObjectRef::Data(inode, 0));
  ASSERT_TRUE(v1_block0.has_value());

  ASSERT_TRUE(alice.WriteFile(path, v2).ok());
  got = bob.Read(path);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, v1) << "cached version served until EvictPath";

  ASSERT_TRUE(bob.EvictPath(path).ok());
  got = bob.Read(path);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, v2);

  // The SSP rolls the file back to the validly signed one-block version.
  world.server().store().DeleteInode(ssp::ObjectFamily::kData, inode);
  world.server().store().Put(ssp::ObjectRef::Data(inode, 0), *v1_block0);
  ASSERT_TRUE(bob.EvictPath(path).ok());
  got = bob.Read(path);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status();
  EXPECT_NE(got.status().message().find("rollback"), std::string::npos);
}

TEST(BatchedReadTest, ReadaheadWindowBoundsBatchSize) {
  // A smaller window means more (but smaller) batches: the 18-block file
  // needs strictly more round trips at readahead 4 than at 32, and both
  // stay below the per-block count. The window is a request-size bound,
  // not a correctness knob.
  Bytes big = BlocksOfPattern(18, 9);
  uint64_t trips[2];
  size_t idx = 0;
  for (size_t readahead : {size_t{4}, size_t{32}}) {
    World world(BatchedOpts(true, readahead));
    ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
    CreateOptions fopts;
    fopts.mode = World::ParseMode("rw-rw----");
    ASSERT_TRUE(world.client(kAlice).Create("/shared/big.bin", fopts).ok());
    ASSERT_TRUE(world.client(kAlice).WriteFile("/shared/big.bin", big).ok());
    Bytes got;
    trips[idx++] = ColdRead(world, kAlice, "/shared/big.bin", &got);
    EXPECT_EQ(got, big);
  }
  EXPECT_GT(trips[0], trips[1]);  // window 4 pays more trips than 32...
  EXPECT_LT(trips[0], 18u);       // ...but far fewer than one per block.
}

TEST(BatchedReadTest, EmptyFileStaysEmptyUnderBatching) {
  // A created-but-never-written file has no block 0; the batched path
  // must preserve the kNotFound => empty-file semantics exactly.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(world.client(kAlice).Create("/shared/empty.txt", fopts).ok());
  world.client(kAlice).DropCaches();
  auto content = world.client(kAlice).Read("/shared/empty.txt");
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_TRUE(content->empty());
}

TEST(BatchedReadTest, NegativeDentryShortCircuitsRepeatMisses) {
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);

  // First miss: pays the descent, caches the negative dentry.
  auto miss = alice.Getattr("/shared/later.txt");
  EXPECT_TRUE(miss.status().IsNotFound());
  // Second miss: everything (views, tables, the absence itself) is
  // cached — zero wire round trips.
  uint64_t before = world.transport(kAlice).counters().round_trips;
  miss = alice.Getattr("/shared/later.txt");
  EXPECT_TRUE(miss.status().IsNotFound());
  EXPECT_EQ(world.transport(kAlice).counters().round_trips, before);

  // Creating the file invalidates the directory's negative dentries: the
  // lookup must succeed immediately, not serve the stale absence.
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.Create("/shared/later.txt", fopts).ok());
  EXPECT_TRUE(alice.Getattr("/shared/later.txt").ok());

  // DropCaches clears negatives too.
  alice.DropCaches();
  EXPECT_TRUE(alice.Getattr("/shared/later.txt").ok());
}

TEST(BatchedReadTest, MultiGetValidatesSubOps) {
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);

  // Mutations may not ride MultiGet (they would bypass ExecuteBatch's
  // failure reporting), and neither may admin ops.
  auto r = alice.MultiGet({ssp::Request::PutData(1, 0, {1})});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();
  r = alice.MultiGet({ssp::Request::GetStats()});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();

  // A well-formed get batch answers per-sub-op, misses included.
  r = alice.MultiGet(
      {ssp::Request::GetData(999999, 0), ssp::Request::GetData(999999, 1)});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].status, ssp::RespStatus::kNotFound);
  EXPECT_EQ((*r)[1].status, ssp::RespStatus::kNotFound);
}

TEST(BatchedReadTest, TransientFaultIsUnavailableNotNotFound) {
  // Regression: one injected kError on any single fetch must surface as
  // Unavailable (retryable), never as NotFound, PermissionDenied, an
  // empty file or a fallback to another object (DESIGN.md §11). On data
  // block 0 the fault once read back as an EMPTY FILE; the other fetches
  // once mapped any non-ok reply to NotFound or PermissionDenied. Each
  // case warms the client so that the faulted request is exactly the
  // fetch it names, then the same client must succeed once the fault is
  // gone.
  const std::string notes = "/home/alice/notes.txt";
  const Bytes rewritten = ToBytes("rewritten notes");
  struct Case {
    std::string fetch;
    bool batched;
    std::function<void(World&)> warm;
    size_t served_first;  // Requests served before the faulted one.
    std::function<Status(World&)> op;
  };
  auto read_is = [](World& w, fs::UserId uid, const std::string& path,
                    const Bytes& want) -> Status {
    auto got = w.client(uid).Read(path);
    if (!got.ok()) return got.status();
    return *got == want ? Status::OK() : Status::Corruption("wrong bytes");
  };
  std::vector<Case> cases;
  for (bool batched : {false, true}) {
    cases.push_back(
        {"data block 0", batched,
         [&](World& w) { ASSERT_TRUE(w.client(kAlice).Getattr(notes).ok()); },
         0, [&](World& w) {
           return read_is(w, kAlice, notes, ToBytes("alice's notes"));
         }});
  }
  cases.push_back({"superblock", true, [](World&) {}, 0, [](World& w) {
                     return w.client(kAlice).Mount();
                   }});
  cases.push_back({"view", false,
                   [](World& w) { w.client(kAlice).DropCaches(); }, 0,
                   [&](World& w) {
                     return w.client(kAlice).Getattr(notes).status();
                   }});
  cases.push_back({"table", false,
                   [](World& w) { w.client(kAlice).DropCaches(); },
                   1,  // The root's view.
                   [](World& w) {
                     return w.client(kAlice).Readdir("/").status();
                   }});
  cases.push_back({"master", true,
                   [](World& w) {
                     ASSERT_TRUE(w.client(kAlice).Getattr("/shared").ok());
                   },
                   0, [](World& w) {
                     CreateOptions fopts;
                     fopts.mode = World::ParseMode("rw-rw----");
                     return w.client(kAlice).Create("/shared/new.txt", fopts);
                   }});
  cases.push_back(
      {"group key block", true,
       [](World& w) {
         // bob's file is a split row: dave reads it through the eng
         // group block, unwrapped with the eng group key.
         CreateOptions fopts;
         fopts.mode = World::ParseMode("rw-r-----");
         ASSERT_TRUE(w.client(kBob).Create("/shared/bob.txt", fopts).ok());
         ASSERT_TRUE(w.client(kBob)
                         .WriteFile("/shared/bob.txt", ToBytes("bob's draft"))
                         .ok());
         w.client(kDave).DropCaches();
         ASSERT_TRUE(w.client(kDave).Readdir("/shared").ok());
       },
       2,  // dave's absent per-user split block, the group split block.
       [&](World& w) {
         return read_is(w, kDave, "/shared/bob.txt", ToBytes("bob's draft"));
       }});
  cases.push_back({"write generation peek", true,
                   [&](World& w) {
                     ASSERT_TRUE(w.client(kAlice).Getattr(notes).ok());
                   },
                   0, [&](World& w) {
                     Status s = w.client(kAlice).WriteFile(notes, rewritten);
                     return s.ok() ? read_is(w, kAlice, notes, rewritten) : s;
                   }});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.fetch + (c.batched ? " (batched)" : " (unbatched)"));
    World world(BatchedOpts(c.batched));
    world.AddUser(kDave, "dave");
    ASSERT_TRUE(world.provisioner().AddGroupMember(kEng, kDave).ok());
    ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
    c.warm(world);

    std::vector<ssp::FaultAction> script(c.served_first, ssp::FaultAction{});
    script.push_back(Fault(ssp::FaultAction::Kind::kFailRequest));
    ScriptedInjector inject(std::move(script));
    world.server().set_fault_injector(&inject);
    Status faulted = c.op(world);
    world.server().set_fault_injector(nullptr);
    EXPECT_GT(inject.consumed(), c.served_first) << "fault never injected";
    EXPECT_TRUE(faulted.IsUnavailable()) << faulted;

    Status healed = c.op(world);
    EXPECT_TRUE(healed.ok()) << healed;
  }
}

/// Wraps a channel and, when armed, rewrites one sub-response of the next
/// pure-read batch to kError — the per-sub-op transient fault shape the
/// retry layer must absorb for side-effect-free batches.
class SubErrorChannel : public ssp::SspChannel {
 public:
  explicit SubErrorChannel(ssp::SspChannel* inner) : inner_(inner) {}
  void Arm() { armed_ = true; }
  bool armed() const { return armed_; }

  Result<ssp::Response> Call(const ssp::Request& req) override {
    auto resp = inner_->Call(req);
    if (!resp.ok() || !armed_ || req.op != ssp::OpCode::kBatch) return resp;
    for (const ssp::Request& sub : req.batch) {
      if (ssp::IsMutatingOp(sub.op)) return resp;
    }
    if (!resp->batch.empty()) {
      armed_ = false;
      resp->batch.back().status = ssp::RespStatus::kError;
      resp->batch.back().payload.clear();
    }
    return resp;
  }

 private:
  ssp::SspChannel* inner_;  // Not owned.
  bool armed_ = false;
};

TEST(BatchedReadTest, ReadOnlyBatchSubErrorIsRetriedInPlace) {
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());

  // A hand-built alice over RetryingConnection -> SubErrorChannel ->
  // the world's in-process server.
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.signing_key_bits = 512;
  eng_opts.rng_seed = 0x5B5B;
  crypto::CryptoEngine engine(&world.clock(), eng_opts);
  net::Transport transport(&world.clock(), net::NetworkModel::Zero());
  ssp::SspConnection real(&world.server(), &transport);
  SubErrorChannel flaky(&real);
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 0;
  RetryingConnection conn(
      [&flaky]() -> Result<std::unique_ptr<ssp::SspChannel>> {
        // Non-owning pass-through: the retry layer may "reconnect", but
        // it always lands back on the same armed wrapper.
        struct Fwd : ssp::SspChannel {
          explicit Fwd(ssp::SspChannel* c) : c_(c) {}
          Result<ssp::Response> Call(const ssp::Request& req) override {
            return c_->Call(req);
          }
          ssp::SspChannel* c_;
        };
        return std::unique_ptr<ssp::SspChannel>(new Fwd(&flaky));
      },
      retry);
  ClientOptions copts;
  copts.scheme = Scheme::kScheme2;
  copts.default_group = kEng;
  SharoesClient alice(kAlice, world.user_key(kAlice), &world.identity(),
                      &conn, &engine, copts);
  ASSERT_TRUE(alice.Mount().ok());

  Bytes big = BlocksOfPattern(6, 5);
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.Create("/shared/flaky.bin", fopts).ok());
  ASSERT_TRUE(alice.WriteFile("/shared/flaky.bin", big).ok());
  alice.DropCaches();

  auto* sub_retries = obs::MetricsRegistry::Global().counter(
      "client.retry.batch_sub_retries");
  uint64_t before = sub_retries->Value();
  flaky.Arm();
  auto content = alice.Read("/shared/flaky.bin");
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(*content, big);
  EXPECT_FALSE(flaky.armed()) << "the fault was never injected";
  EXPECT_GT(sub_retries->Value(), before);
}

TEST(BatchedReadTest, WriteBufferKeysAreCanonical) {
  // Regression (the PR 5 bugfix): write_buffers_ used to key by the raw
  // path string, so "/shared//plan.md" and "/shared/plan.md" addressed
  // DIFFERENT buffers for the same file — a read through one spelling
  // missed dirty bytes written through the other.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);

  Bytes v1 = ToBytes("spelled one way");
  ASSERT_TRUE(alice.Write("/shared//plan.md", v1).ok());
  // The buffer is visible through every spelling.
  auto got = alice.Read("/shared/plan.md");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, v1);
  auto attrs = alice.Getattr("/shared/plan.md/");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, v1.size());

  // A second Write through another alias updates the SAME buffer, and a
  // Close through a third flushes it.
  Bytes v2 = ToBytes("spelled another way entirely");
  ASSERT_TRUE(alice.Write("/shared/plan.md/", v2).ok());
  ASSERT_TRUE(alice.Close("//shared/plan.md").ok());
  alice.DropCaches();
  got = alice.Read("/shared/plan.md");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, v2);
}

TEST(BatchedReadTest, RenameCarriesWriteBuffersAlong) {
  // Regression (the PR 5 bugfix): Rename left dirty buffers keyed by the
  // old path. A later Close of the new path flushed nothing, and a
  // recreate at the old path could inherit the stranded bytes.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);

  // File rename: the buffer follows.
  Bytes plan = ToBytes("the moved plan");
  ASSERT_TRUE(alice.Write("/shared/plan.md", plan).ok());
  ASSERT_TRUE(alice.Rename("/shared/plan.md", "/shared/plan-v2.md").ok());
  ASSERT_TRUE(alice.Close("/shared/plan-v2.md").ok());
  alice.DropCaches();
  auto got = alice.Read("/shared/plan-v2.md");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, plan);

  // Directory rename: buffers for everything under it are re-keyed too.
  Bytes notes = ToBytes("buffered under a moving directory");
  ASSERT_TRUE(alice.Write("/home/alice/notes.txt", notes).ok());
  ASSERT_TRUE(alice.Rename("/home/alice", "/home/alice-new").ok());
  ASSERT_TRUE(alice.Close("/home/alice-new/notes.txt").ok());
  alice.DropCaches();
  got = alice.Read("/home/alice-new/notes.txt");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, notes);
}

TEST(BatchedReadTest, RoundTripAccountingMatchesTheWire) {
  // client.rpc.round_trips (the counter behind --rpc-stats and the
  // per-op histograms) must agree with what the transport actually saw.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  uint64_t wire_before = world.transport(kAlice).counters().round_trips;
  uint64_t client_before = alice.rpc_round_trips();
  alice.DropCaches();
  ASSERT_TRUE(alice.Read("/home/alice/notes.txt").ok());
  ASSERT_TRUE(alice.Readdir("/shared").ok());
  uint64_t wire_delta =
      world.transport(kAlice).counters().round_trips - wire_before;
  uint64_t client_delta = alice.rpc_round_trips() - client_before;
  EXPECT_EQ(client_delta, wire_delta);
  EXPECT_GT(client_delta, 0u);
}

}  // namespace
}  // namespace sharoes::core
