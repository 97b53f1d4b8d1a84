// End-to-end transport fault tolerance: a SharoesClient behind a
// RetryingConnection completes an Andrew-style op sequence with
// byte-identical results while the daemon is killed/restarted
// mid-workload (the `sharoes_sspd --wal DIR` lifecycle) and a
// seed-deterministic FaultPolicy injects per-request errors and delays.
// With retries disabled the same schedule fails. Also pins down the two
// boundary contracts retry relies on: every SSP op is idempotent, and
// payload corruption is rejected by the integrity layer, never masked by
// the transport. And a spent budget reads as Unavailable on a lone
// daemon and on a cluster alike, so a write-behind stage outlives it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/migration.h"
#include "core/retrying_connection.h"
#include "core/sharded_channel.h"
#include "net/network_model.h"
#include "ssp/fault_injection.h"
#include "ssp/tcp_service.h"
#include "ssp/wal.h"
#include "testing/andrew_client.h"
#include "testing/cluster.h"
#include "testing/fault.h"
#include "testing/restartable.h"

namespace sharoes::core {
namespace {

using sharoes::testing::Enterprise;
using sharoes::testing::Fault;
using sharoes::testing::kAlice;
using sharoes::testing::kStaff;
using sharoes::testing::MakeClient;
using sharoes::testing::MakeEngine;
using sharoes::testing::ProvisionOverTcp;
using sharoes::testing::RestartableDaemon;
using sharoes::testing::RunAndrewSequence;
using sharoes::testing::ScriptedInjector;
using sharoes::testing::SlurpFile;
using sharoes::testing::SpillFile;
using sharoes::testing::TcpFactory;
using sharoes::testing::TestCluster;

/// Every file in `dir`, by name.
std::map<std::string, Bytes> SlurpDir(const std::string& dir) {
  std::map<std::string, Bytes> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto data = SlurpFile(entry.path().string());
    EXPECT_TRUE(data.ok()) << data.status();
    if (data.ok()) files[entry.path().filename().string()] = std::move(*data);
  }
  return files;
}

/// Makes `dir` hold exactly `files`.
void SpillDir(const std::string& dir,
              const std::map<std::string, Bytes>& files) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const auto& [name, data] : files) {
    ASSERT_TRUE(SpillFile(dir + "/" + name, data).ok());
  }
}

/// Requests the daemon saw: the fault-free run's, and each fault round's.
struct AndrewRequestCounts {
  uint64_t fault_free = 0;
  std::vector<uint64_t> faulted;
};

class ClientFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_dir_ = ::testing::TempDir() + "sharoes_client_fault_" +
               std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
    std::filesystem::remove_all(wal_dir_);
    RestartableDaemon::Options opts;
    opts.wal_dir = wal_dir_;
    daemon_ = std::make_unique<RestartableDaemon>(opts);
    daemon_->Start();
    enterprise_ = ProvisionOverTcp(daemon_.get());
    // Snapshot the provisioned world (the WAL directory after a graceful
    // shutdown); every run restarts from it.
    daemon_->Kill();
    golden_wal_ = SlurpDir(wal_dir_);
    ASSERT_FALSE(golden_wal_.empty());
  }

  void TearDown() override {
    daemon_.reset();
    std::filesystem::remove_all(wal_dir_);
  }

  void ResetToGolden() { SpillDir(wal_dir_, golden_wal_); }

  void RunAndrewUnderFaults(size_t write_batch_ops,
                            AndrewRequestCounts* counts);

  /// The store a restart on the WAL directory serves, serialized. Not
  /// the directory's bytes: a retried request appends another WAL
  /// record, so the snapshot's sequence number may differ while the
  /// store may not.
  Bytes RecoveredStore() {
    ssp::ObjectStore store;
    auto wal = ssp::Wal::Open(wal_dir_, {}, &store);
    EXPECT_TRUE(wal.ok()) << wal.status();
    return store.Serialize();
  }

  std::string wal_dir_;
  std::unique_ptr<RestartableDaemon> daemon_;
  std::unique_ptr<Enterprise> enterprise_;
  std::map<std::string, Bytes> golden_wal_;
};

/// Runs the Andrew sequence fault-free for the reference transcript, then
/// under a fault schedule — per-request errors and delays from a seeded
/// policy, plus kill/restart churn from a controller thread — which must
/// produce a byte-identical transcript. The client stages
/// `write_batch_ops` sub-ops per flush.
void ClientFaultTest::RunAndrewUnderFaults(size_t write_batch_ops,
                                           AndrewRequestCounts* counts) {
  // Run 1, fault-free: the reference transcript. A policy that injects
  // nothing only counts the requests.
  Bytes reference;
  {
    ResetToGolden();
    ssp::FaultPolicy counter(ssp::FaultPolicy::Options{});
    daemon_->set_injector(&counter);
    daemon_->Start();
    SimClock clock;
    auto engine = MakeEngine(&clock, 99);
    RetryOptions no_retry;
    no_retry.max_attempts = 1;
    RetryingConnection conn(TcpFactory(daemon_.get()), no_retry);
    auto client = MakeClient(enterprise_.get(), &conn, engine.get(),
                             write_batch_ops);
    ASSERT_TRUE(client->Mount().ok());
    auto transcript = RunAndrewSequence(client.get());
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    reference = std::move(*transcript);
    daemon_->Kill();
    daemon_->set_injector(nullptr);
    counts->fault_free = counter.counts().requests;
  }
  ASSERT_FALSE(reference.empty());

  // Run 2: the same sequence under the fault schedule.
  int rounds = 1;
  if (const char* env = std::getenv("SHAROES_FAULT_ROUNDS")) {
    rounds = std::max(1, std::atoi(env));
  }
  for (int round = 0; round < rounds; ++round) {
    ResetToGolden();
    ssp::FaultPolicy::Options fault_opts;
    fault_opts.seed = 1000 + round;
    fault_opts.fail_prob = 0.05;   // ≥ 1% injected request errors...
    fault_opts.delay_prob = 0.03;  // ...and delays, per the fault model.
    fault_opts.delay_ms = 3;
    ssp::FaultPolicy policy(fault_opts);
    daemon_->set_injector(&policy);
    daemon_->Start();

    SimClock clock;
    auto engine = MakeEngine(&clock, 99);
    RetryOptions retry;
    retry.max_attempts = 12;
    retry.initial_backoff_ms = 5;
    retry.max_backoff_ms = 200;
    retry.seed = 7 + round;
    RetryingConnection conn(TcpFactory(daemon_.get()), retry);
    auto client = MakeClient(enterprise_.get(), &conn, engine.get(),
                             write_batch_ops);
    ASSERT_TRUE(client->Mount().ok());

    // A deterministic mid-workload restart (the client's live socket dies
    // under it), plus timed churn from the controller thread.
    daemon_->Restart();
    std::atomic<bool> done{false};
    std::thread controller([&] {
      for (int i = 0; i < 3 && !done.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        daemon_->Restart();
      }
    });
    auto transcript = RunAndrewSequence(client.get());
    done.store(true);
    controller.join();
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    EXPECT_EQ(*transcript, reference) << "fault round " << round;
    // The schedule really did bite: faults were injected and the client
    // really did retry/reconnect its way through them.
    counts->faulted.push_back(policy.counts().requests);
    EXPECT_GE(policy.counts().injected(), 1u);
    EXPECT_GE(conn.retries(), 1u);
    EXPECT_GE(conn.reconnects(), 1u);
    daemon_->Kill();
    daemon_->set_injector(nullptr);
  }
}

TEST_F(ClientFaultTest, AndrewSequenceSurvivesFaultsAndRestarts) {
  // Staging off: every logical op pays its own round trips.
  AndrewRequestCounts counts;
  ASSERT_NO_FATAL_FAILURE(RunAndrewUnderFaults(/*write_batch_ops=*/0, &counts));
  for (uint64_t requests : counts.faulted) EXPECT_GT(requests, 50u);
}

TEST_F(ClientFaultTest, StagedAndrewSequenceSurvivesFaultsAndRestarts) {
  // The staging-on twin. The stage ships fewer requests, so the floor is
  // the staged fault-free run's own count: a faulted run re-sends, it
  // never skips.
  AndrewRequestCounts counts;
  ASSERT_NO_FATAL_FAILURE(RunAndrewUnderFaults(
      core::ClientOptions{}.write_batch_ops, &counts));
  ASSERT_GT(counts.fault_free, 0u);
  for (uint64_t requests : counts.faulted) {
    EXPECT_GE(requests, counts.fault_free);
  }
}

TEST_F(ClientFaultTest, StatsPollingNeverPerturbsTheWorkload) {
  // kGetStats and kGetTraces are the opcodes an operator fires at a
  // *live* production daemon, so they must be observably read-only: an
  // Andrew run with a concurrent poller hammering both on the same
  // daemon must produce the same transcript and the same final store as
  // an unpolled run.
  Bytes reference;
  Bytes reference_store;
  {
    ResetToGolden();
    daemon_->Start();
    SimClock clock;
    auto engine = MakeEngine(&clock, 99);
    RetryOptions no_retry;
    no_retry.max_attempts = 1;
    RetryingConnection conn(TcpFactory(daemon_.get()), no_retry);
    auto client = MakeClient(enterprise_.get(), &conn, engine.get());
    ASSERT_TRUE(client->Mount().ok());
    auto transcript = RunAndrewSequence(client.get());
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    reference = std::move(*transcript);
    daemon_->Kill();
    reference_store = RecoveredStore();
  }

  ResetToGolden();
  daemon_->Start();
  SimClock clock;
  auto engine = MakeEngine(&clock, 99);
  RetryOptions no_retry;
  no_retry.max_attempts = 1;
  RetryingConnection conn(TcpFactory(daemon_.get()), no_retry);
  auto client = MakeClient(enterprise_.get(), &conn, engine.get());
  ASSERT_TRUE(client->Mount().ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> polls{0};
  std::thread poller([&] {
    auto channel = ssp::TcpSspChannel::Connect("127.0.0.1", daemon_->port());
    if (!channel.ok()) return;
    while (!done.load()) {
      auto stats = (*channel)->Call(ssp::Request::GetStats());
      auto traces = (*channel)->Call(ssp::Request::GetTraces());
      if (stats.ok() && stats->ok() && !stats->payload.empty() &&
          traces.ok() && traces->ok() && !traces->payload.empty()) {
        polls.fetch_add(1);
      }
    }
  });
  auto transcript = RunAndrewSequence(client.get());
  done.store(true);
  poller.join();
  ASSERT_TRUE(transcript.ok()) << transcript.status();
  EXPECT_EQ(*transcript, reference);
  EXPECT_GT(polls.load(), 0u) << "poller never landed a stats snapshot";
  daemon_->Kill();
  EXPECT_EQ(RecoveredStore(), reference_store);
}

TEST_F(ClientFaultTest, WithoutRetriesTheSameScheduleFails) {
  ResetToGolden();
  daemon_->Start();
  SimClock clock;
  auto engine = MakeEngine(&clock, 99);
  RetryOptions no_retry;
  no_retry.max_attempts = 1;  // The knob under test.
  RetryingConnection conn(TcpFactory(daemon_.get()), no_retry);
  auto client = MakeClient(enterprise_.get(), &conn, engine.get());
  ASSERT_TRUE(client->Mount().ok());

  // The deterministic part of the schedule alone — one restart under the
  // client's live connection — is already fatal without retry: the one
  // attempt fails, and a spent budget reads as Unavailable.
  daemon_->Restart();
  auto transcript = RunAndrewSequence(client.get());
  ASSERT_FALSE(transcript.ok());
  EXPECT_TRUE(transcript.status().IsUnavailable()) << transcript.status();
  EXPECT_EQ(conn.retries(), 0u);
}

TEST_F(ClientFaultTest, CorruptionIsRejectedByIntegrityNotMaskedByRetry) {
  ResetToGolden();
  daemon_->Start();
  SimClock clock;
  auto engine = MakeEngine(&clock, 99);
  RetryOptions retry;
  retry.max_attempts = 6;
  retry.initial_backoff_ms = 1;
  retry.seed = 11;
  RetryingConnection conn(TcpFactory(daemon_.get()), retry);
  auto client = MakeClient(enterprise_.get(), &conn, engine.get());
  ASSERT_TRUE(client->Mount().ok());
  CreateOptions opts;
  opts.mode = fs::Mode::FromOctal(0644);
  ASSERT_TRUE(client->Create("/evidence.txt", opts).ok());
  ASSERT_TRUE(client->WriteFile("/evidence.txt", ToBytes("tamper me")).ok());
  ASSERT_TRUE(client->Read("/evidence.txt").ok());

  // From here, every response payload is flipped on the wire. The
  // transport keeps accepting frames (they parse); rejecting the bytes
  // is the integrity layer's job, and retry must not mask its verdict.
  ssp::FaultPolicy::Options fault_opts;
  fault_opts.seed = 5;
  fault_opts.corrupt_prob = 1.0;
  fault_opts.corrupt_mask = 0xFF;
  ssp::FaultPolicy always_corrupt(fault_opts);
  daemon_->set_injector(&always_corrupt);
  daemon_->Restart();  // Arm the injector on a fresh daemon.

  client->DropCaches();
  auto read = client->Read("/evidence.txt");
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIntegrityError() ||
              read.status().code() == StatusCode::kCryptoError ||
              read.status().code() == StatusCode::kCorruption)
      << read.status();
  EXPECT_FALSE(read.status().IsIoError());
  EXPECT_GT(always_corrupt.counts().corrupted, 0u);

  // Faults off: the same client (and channel) recovers cleanly.
  daemon_->set_injector(nullptr);
  daemon_->Restart();
  client->DropCaches();
  auto clean = client->Read("/evidence.txt");
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(ToString(*clean), "tamper me");
}

TEST(RetryingConnectionTest, RetriesTransientServerErrors) {
  ssp::SspServer server;
  auto daemon = ssp::TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  ScriptedInjector injector({Fault(ssp::FaultAction::Kind::kFailRequest),
                             Fault(ssp::FaultAction::Kind::kFailRequest)});
  server.set_fault_injector(&injector);
  uint16_t port = (*daemon)->port();
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 1;
  retry.seed = 3;
  RetryingConnection conn(
      [port]() -> Result<std::unique_ptr<ssp::SspChannel>> {
        auto c = ssp::TcpSspChannel::Connect("127.0.0.1", port);
        if (!c.ok()) return c.status();
        return std::unique_ptr<ssp::SspChannel>(std::move(*c));
      },
      retry);
  auto resp = conn.Call(ssp::Request::PutMetadata(1, 0, {5}));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->ok());
  EXPECT_EQ(conn.retries(), 2u);
  EXPECT_EQ(conn.reconnects(), 0u);  // kError keeps the socket healthy.
  EXPECT_TRUE(server.store().Get(ssp::ObjectRef::Metadata(1, 0)).has_value());
  (*daemon)->Shutdown();
}

TEST(RetryingConnectionTest, ReconnectsAfterSeveredConnection) {
  ssp::SspServer server;
  auto daemon = ssp::TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  ScriptedInjector injector({Fault(ssp::FaultAction::Kind::kDropConnection)});
  server.set_fault_injector(&injector);
  uint16_t port = (*daemon)->port();
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 1;
  retry.seed = 3;
  RetryingConnection conn(
      [port]() -> Result<std::unique_ptr<ssp::SspChannel>> {
        auto c = ssp::TcpSspChannel::Connect("127.0.0.1", port);
        if (!c.ok()) return c.status();
        return std::unique_ptr<ssp::SspChannel>(std::move(*c));
      },
      retry);
  auto resp = conn.Call(ssp::Request::PutMetadata(2, 0, {6}));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->ok());
  EXPECT_GE(conn.reconnects(), 1u);
  (*daemon)->Shutdown();
}

TEST(RetryingConnectionTest, FactoryFailuresAreRetriedToo) {
  ssp::SspServer server;
  auto daemon = ssp::TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  uint16_t port = (*daemon)->port();
  int failures_left = 2;
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 1;
  retry.seed = 3;
  RetryingConnection conn(
      [port, &failures_left]() -> Result<std::unique_ptr<ssp::SspChannel>> {
        if (failures_left > 0) {
          --failures_left;
          return Status::IoError("daemon still restarting");
        }
        auto c = ssp::TcpSspChannel::Connect("127.0.0.1", port);
        if (!c.ok()) return c.status();
        return std::unique_ptr<ssp::SspChannel>(std::move(*c));
      },
      retry);
  auto resp = conn.Call(ssp::Request::GetMetadata(1, 0));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, ssp::RespStatus::kNotFound);
  EXPECT_EQ(conn.retries(), 2u);
  (*daemon)->Shutdown();
}

TEST(RetryingConnectionTest, NonRetryableErrorsSurfaceImmediately) {
  RetryOptions retry;
  retry.max_attempts = 8;
  retry.initial_backoff_ms = 1;
  retry.seed = 3;
  int factory_calls = 0;
  RetryingConnection conn(
      [&factory_calls]() -> Result<std::unique_ptr<ssp::SspChannel>> {
        ++factory_calls;
        return Status::InvalidArgument("bad host");
      },
      retry);
  auto resp = conn.Call(ssp::Request::GetMetadata(1, 0));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(factory_calls, 1);  // No retry on a caller error.
}

/// An in-process link that fails like a severed socket while `*down`.
class GatedLink : public ssp::SspChannel {
 public:
  GatedLink(ssp::SspChannel* inner, const bool* down)
      : inner_(inner), down_(down) {}
  Result<ssp::Response> Call(const ssp::Request& req) override {
    if (*down_) return Status::IoError("link severed");
    return inner_->Call(req);
  }

 private:
  ssp::SspChannel* inner_;  // Not owned.
  const bool* down_;
};

/// Alice creates and writes a file with staging on, and the flush at its
/// Close meets an SSP that stays unreachable past `link`'s retry budget
/// (`set_reachable(false)`). The Close must answer Unavailable and keep
/// the stage, so once the SSP is back the next Fsync ships the file and
/// bob reads it. `admin` provisions the enterprise and carries bob.
void StagedCloseOutlivesAnOutage(
    ssp::SspChannel* admin, ssp::SspChannel* link,
    const std::function<void(bool)>& set_reachable) {
  constexpr fs::UserId kBob = 101;
  SimClock clock;
  auto engine = MakeEngine(&clock, 4242);
  IdentityDirectory identity;
  Provisioner::Options popts;
  popts.user_key_bits = 512;
  Provisioner prov(&identity, /*server=*/nullptr, engine.get(), popts);
  prov.set_remote_channel(admin);
  auto alice = prov.CreateUser(kAlice, "alice");
  ASSERT_TRUE(alice.ok()) << alice.status();
  auto bob = prov.CreateUser(kBob, "bob");
  ASSERT_TRUE(bob.ok()) << bob.status();
  ASSERT_TRUE(prov.CreateGroup(kStaff, "staff", {kAlice, kBob}).ok());
  ASSERT_TRUE(prov.Migrate(LocalNode::Dir("", kAlice, kStaff,
                                          fs::Mode::FromOctal(0775)))
                  .ok());

  ClientOptions copts;
  copts.default_group = kStaff;
  ASSERT_GT(copts.write_batch_ops, 0u) << "staging must be on";
  SharoesClient writer(kAlice, alice->priv, &identity, link, engine.get(),
                       copts);
  ASSERT_TRUE(writer.Mount().ok());
  CreateOptions fopts;
  fopts.mode = fs::Mode::FromOctal(0644);
  ASSERT_TRUE(writer.Create("/report.txt", fopts).ok());
  ASSERT_TRUE(writer.Write("/report.txt", ToBytes("kept through")).ok());

  set_reachable(false);
  Status closed = writer.Close("/report.txt");
  EXPECT_TRUE(closed.IsUnavailable()) << closed;
  set_reachable(true);
  Status synced = writer.Fsync();
  ASSERT_TRUE(synced.ok()) << synced;

  SharoesClient reader(kBob, bob->priv, &identity, admin, engine.get(),
                       copts);
  ASSERT_TRUE(reader.Mount().ok());
  auto read = reader.Read("/report.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "kept through");
}

TEST(SpentRetryBudget, StagedCloseKeepsItsWritesOnEitherChannel) {
  {
    SCOPED_TRACE("lone daemon: the dial is refused");
    SimClock clock;
    ssp::SspServer server;
    net::Transport transport(&clock, net::NetworkModel::Zero());
    ssp::SspConnection direct(&server, &transport);
    bool down = false;
    RetryOptions retry;
    retry.max_attempts = 3;
    retry.initial_backoff_ms = 1;
    retry.seed = 5;
    RetryingConnection link(
        [&]() -> Result<std::unique_ptr<ssp::SspChannel>> {
          if (down) return Status::IoError("connection refused");
          return std::unique_ptr<ssp::SspChannel>(
              new GatedLink(&direct, &down));
        },
        retry);
    StagedCloseOutlivesAnOutage(&direct, &link,
                                [&](bool reachable) { down = !reachable; });
  }
  {
    SCOPED_TRACE("cluster: every node is down");
    TestCluster cluster(TestCluster::Options{.tag = "spent_budget"});
    cluster.Start();
    auto admin = cluster.MakeChannel();
    ShardedChannelOptions sopts;
    sopts.max_attempts = 3;
    sopts.initial_backoff_ms = 1;
    auto link = cluster.MakeChannel(sopts);
    ASSERT_NE(link, nullptr);
    StagedCloseOutlivesAnOutage(
        admin.get(), link.get(), [&](bool reachable) {
          for (int i = 0; i < cluster.size(); ++i) {
            if (reachable) {
              cluster.node(i)->Start();
            } else {
              cluster.node(i)->Kill();
            }
          }
        });
  }
}

TEST(RetryIdempotence, EveryOpcodeIsSafeToReplay) {
  // The invariant RetryingConnection's blanket retry rests on (see the
  // header comment there): executing any request twice — the "daemon
  // applied it but died before replying" replay — must leave the store
  // byte-identical to executing it once, and the replay's response must
  // match the original's. Every non-batch opcode plus a batch is
  // replayed here; if a future opcode breaks this test it must not ride
  // RetryingConnection without a request-id dedup layer.
  // Two delete shapes have no convenience constructor; build them raw.
  ssp::Request delete_superblock;
  delete_superblock.op = ssp::OpCode::kDeleteSuperblock;
  delete_superblock.user = 1;
  ssp::Request delete_user_metadata;
  delete_user_metadata.op = ssp::OpCode::kDeleteUserMetadata;
  delete_user_metadata.inode = 10;
  delete_user_metadata.user = 2;

  std::vector<ssp::Request> ops;
  ops.push_back(ssp::Request::PutSuperblock(1, {1, 2, 3}));
  ops.push_back(ssp::Request::GetSuperblock(1));
  ops.push_back(ssp::Request::PutMetadata(10, 4, {9, 9}));
  ops.push_back(ssp::Request::PutMetadata(10, 5, {8}));
  ops.push_back(ssp::Request::GetMetadata(10, 4));
  ops.push_back(ssp::Request::Delete(ssp::ObjectRef::Metadata(10, 5)));
  ops.push_back(ssp::Request::PutUserMetadata(10, 2, {7}));
  ops.push_back(ssp::Request::GetUserMetadata(10, 2));
  ops.push_back(ssp::Request::PutData(10, 0, {1, 1}));
  ops.push_back(ssp::Request::PutData(10, 1, {2, 2}));
  ops.push_back(ssp::Request::GetData(10, 1));
  ops.push_back(ssp::Request::PutGroupKey(5, 2, {3}));
  ops.push_back(ssp::Request::GetGroupKey(5, 2));
  ops.push_back(ssp::Request::Batch({ssp::Request::PutMetadata(11, 0, {4}),
                                     ssp::Request::PutData(11, 0, {5})}));
  ops.push_back(ssp::Request::DeleteGroupKey(5, 2));
  ops.push_back(delete_user_metadata);
  ops.push_back(ssp::Request::DeleteInodeData(10));
  ops.push_back(ssp::Request::DeleteInodeMetadata(10));
  ops.push_back(delete_superblock);

  ssp::SspServer once, twice;
  for (const ssp::Request& req : ops) {
    ssp::Response single = once.Handle(req);
    ssp::Response first = twice.Handle(req);
    ssp::Response replay = twice.Handle(req);
    EXPECT_EQ(single.Serialize(), first.Serialize());
    EXPECT_EQ(first.Serialize(), replay.Serialize());
  }
  EXPECT_EQ(once.store().Serialize(), twice.store().Serialize());
}

}  // namespace
}  // namespace sharoes::core
