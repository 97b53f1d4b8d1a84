// Crash-recovery equivalence for the WAL-backed SSP (DESIGN.md §10).
//
// The contract under test: an acknowledged mutation survives SIGKILL.
// A client hammers a WAL-mode daemon with deterministic mutating ops
// while a controller thread hard-kills it at seeded random points; after
// each restart the recovered store must be byte-identical
// (ObjectStore::Serialize) to an in-memory reference store that applied
// exactly the acknowledged ops — plus, at most, a prefix of the one
// request that was in flight when the daemon died (executed but
// unacknowledged is the only permitted divergence; *lost but
// acknowledged* never is).
//
// In-process SIGKILL fidelity: Wal::Append issues one direct ::write per
// record, so the daemon teardown in KillHard() leaves exactly the bytes
// a real SIGKILL would leave in the page cache. The sync policies differ
// only under power loss, which is why all three must pass the same
// equivalence check here, and why `always` is additionally the policy
// CI's crash-churn step leans on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/retrying_connection.h"
#include "obs/metrics.h"
#include "ssp/fault_injection.h"
#include "ssp/object_store.h"
#include "ssp/tcp_service.h"
#include "ssp/wal.h"
#include "testing/andrew_client.h"
#include "testing/restartable.h"
#include "util/random.h"

namespace sharoes::ssp {
namespace {

using sharoes::testing::RestartableDaemon;

int CrashRounds(int base) {
  if (const char* env = std::getenv("SHAROES_CRASH_ROUNDS")) {
    return base * std::max(1, std::atoi(env));
  }
  return base;
}

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "sharoes_wal_" + tag + "_" +
                    std::to_string(::getpid());
  std::string cmd = "rm -rf " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

/// Deterministic mutating op #idx: cycles through every loggable shape
/// (including batches) with payloads derived from the index, so two
/// generators at the same index always produce the same op.
Request NthOp(uint64_t idx) {
  Bytes payload;
  size_t len = 16 + (idx * 29) % 120;
  payload.reserve(len);
  for (size_t b = 0; b < len; ++b) {
    payload.push_back(static_cast<uint8_t>((idx * 131 + b * 7) & 0xFF));
  }
  fs::InodeNum inode = 1 + idx % 37;
  switch (idx % 9) {
    case 0:
      return Request::PutMetadata(inode, idx % 5, payload);
    case 1:
      return Request::PutData(inode, static_cast<uint32_t>(idx % 8), payload);
    case 2:
      return Request::PutUserMetadata(inode, 100 + idx % 4, payload);
    case 3:
      return Request::PutSuperblock(100 + idx % 4, payload);
    case 4:
      return Request::PutGroupKey(500 + idx % 3, 100 + idx % 4, payload);
    case 5:
      return Request::Delete(ObjectRef::Metadata(inode, (idx + 1) % 5));
    case 6:
      return Request::Batch({Request::PutMetadata(inode, 7, payload),
                             Request::PutData(inode, 9, payload),
                             Request::Delete(ObjectRef::Metadata(
                                 1 + (idx + 3) % 37, 7))});
    case 7:
      return Request::DeleteInodeData(1 + (idx + 11) % 37);
    default:
      return Request::PutData(inode, 10 + static_cast<uint32_t>(idx % 3),
                              payload);
  }
}

/// Applies the first `subops` constituent mutations of `req` (for a
/// non-batch request, subops is 0 or 1) to `store`.
void ApplyPrefix(const Request& req, size_t subops, ObjectStore* store) {
  if (req.op == OpCode::kBatch) {
    for (size_t i = 0; i < subops && i < req.batch.size(); ++i) {
      ASSERT_TRUE(ApplyWalOp(req.batch[i], store).ok());
    }
  } else if (subops > 0) {
    ASSERT_TRUE(ApplyWalOp(req, store).ok());
  }
}

size_t SubopCount(const Request& req) {
  return req.op == OpCode::kBatch ? req.batch.size() : 1;
}

struct KillPointOutcome {
  uint64_t acked = 0;        // Ops the daemon acknowledged this round.
  bool had_in_flight = false;
  Request in_flight;         // The op whose call failed, if any.
};

/// One kill point: stream ops from `next_index` until the controller
/// hard-kills the daemon after `kill_after_us`; returns what was acked
/// and what was in flight.
KillPointOutcome RunUntilKilled(RestartableDaemon* daemon,
                                uint64_t next_index,
                                uint64_t kill_after_us) {
  KillPointOutcome out;
  std::atomic<bool> done{false};
  std::thread controller([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(kill_after_us));
    daemon->KillHard();
    done.store(true);
  });
  auto channel = TcpSspChannel::Connect("127.0.0.1", daemon->port());
  if (channel.ok()) {
    for (uint64_t i = next_index;; ++i) {
      Request op = NthOp(i);
      auto resp = (*channel)->Call(op);
      if (resp.ok() && resp->ok()) {
        ++out.acked;
        continue;
      }
      // This call died under the kill (or was executed and its response
      // lost) — it is the only op allowed to be partially recovered.
      out.had_in_flight = true;
      out.in_flight = std::move(op);
      break;
    }
  }
  controller.join();
  // The channel may have raced ahead of the controller's sleep; make
  // sure the daemon really is down before the caller restarts it.
  daemon->KillHard();
  return out;
}

/// Recovered bytes must match the reference plus some prefix of the
/// in-flight op's sub-ops; advances the reference to the matching state.
void ExpectRecoveredState(const Bytes& recovered, ObjectStore* reference,
                          const KillPointOutcome& outcome,
                          const std::string& context) {
  size_t max_prefix = outcome.had_in_flight ? SubopCount(outcome.in_flight)
                                            : 0;
  // Try prefixes in order; stop at the first match.
  for (size_t prefix = 0; prefix <= max_prefix; ++prefix) {
    auto candidate = ObjectStore::Deserialize(reference->Serialize());
    ASSERT_TRUE(candidate.ok());
    if (outcome.had_in_flight) {
      ApplyPrefix(outcome.in_flight, prefix, &*candidate);
    }
    if (candidate->Serialize() == recovered) {
      // Sync the reference to what the store actually holds.
      if (outcome.had_in_flight && prefix > 0) {
        ApplyPrefix(outcome.in_flight, prefix, reference);
      }
      return;
    }
  }
  FAIL() << context << ": recovered store matches neither the acked "
         << "prefix nor any in-flight extension of it — an acknowledged "
         << "op was lost or a phantom op was applied";
}

class WalRecoveryTest : public ::testing::TestWithParam<WalSyncPolicy> {};

TEST_P(WalRecoveryTest, NoAckedOpLostAcrossSeededSigkills) {
  WalOptions wal_opts;
  wal_opts.sync = GetParam();
  wal_opts.interval_ms = 5;
  RestartableDaemon::Options opts;
  opts.wal_dir = FreshDir(std::string("kill_") + WalSyncPolicyName(
                              wal_opts.sync));
  opts.wal = wal_opts;
  RestartableDaemon daemon(opts);

  ObjectStore reference;
  uint64_t next_index = 0;
  const int kill_points = CrashRounds(20);
  Rng rng(0xC0FFEE ^ static_cast<uint64_t>(wal_opts.sync));
  for (int round = 0; round < kill_points; ++round) {
    daemon.Start();
    // Recovery equivalence from the previous round's crash (round 0
    // checks the empty store).
    {
      SCOPED_TRACE("recovery check, round " + std::to_string(round));
      Bytes recovered = daemon.server()->store().Serialize();
      ASSERT_EQ(recovered, reference.Serialize())
          << "restart lost or invented state before any new ops ran";
    }
    // Mixed kill timing: some kills land mid-handshake, most mid-stream.
    uint64_t kill_after_us = rng.NextInRange(200, 30000);
    uint64_t first = next_index;
    KillPointOutcome outcome = RunUntilKilled(&daemon, first, kill_after_us);

    // Advance the reference by everything acknowledged; the in-flight op
    // (if any) is skipped by the generator next round either way.
    for (uint64_t i = first; i < first + outcome.acked; ++i) {
      Request op = NthOp(i);
      ApplyPrefix(op, SubopCount(op), &reference);
    }
    next_index = first + outcome.acked + (outcome.had_in_flight ? 1 : 0);

    daemon.Start();
    Bytes recovered = daemon.server()->store().Serialize();
    ExpectRecoveredState(recovered, &reference, outcome,
                         "round " + std::to_string(round) + " (sync=" +
                             WalSyncPolicyName(wal_opts.sync) + ")");
    // Torn tails are legal here (a record's write can be cut mid-frame
    // by the teardown) but mid-log corruption never is — Open() would
    // have failed the ASSERT inside Start() if replay refused.
    daemon.KillHard();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSyncPolicies, WalRecoveryTest,
    ::testing::Values(WalSyncPolicy::kAlways, WalSyncPolicy::kInterval,
                      WalSyncPolicy::kOff),
    [](const ::testing::TestParamInfo<WalSyncPolicy>& info) {
      return WalSyncPolicyName(info.param);
    });

TEST(WalRecovery, GracefulShutdownCompactsToSnapshot) {
  RestartableDaemon::Options opts;
  opts.wal_dir = FreshDir("graceful");
  RestartableDaemon daemon(opts);
  daemon.Start();
  {
    auto channel = TcpSspChannel::Connect("127.0.0.1", daemon.port());
    ASSERT_TRUE(channel.ok());
    for (uint64_t i = 0; i < 50; ++i) {
      auto resp = (*channel)->Call(NthOp(i));
      ASSERT_TRUE(resp.ok() && resp->ok()) << "op " << i;
    }
  }
  Bytes before = daemon.server()->store().Serialize();
  daemon.Kill();  // Graceful: sync + compact.

  daemon.Start();
  WalRecoveryInfo rec = daemon.last_recovery();
  EXPECT_TRUE(rec.had_snapshot) << "graceful shutdown did not compact";
  EXPECT_EQ(rec.records_applied, 0u)
      << "snapshot should cover the whole log";
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_EQ(rec.last_seq, rec.snapshot_seq);
  EXPECT_EQ(daemon.server()->store().Serialize(), before);
}

TEST(WalRecovery, CompactionUnderLoadSurvivesHardKills) {
  // A tiny compaction threshold forces snapshot + segment rotation to
  // happen repeatedly *while* ops stream in and the daemon is being
  // hard-killed — crossing the crash windows between rotate, snapshot
  // publish, and prune. Recovery must still reproduce the acked state.
  WalOptions wal_opts;
  wal_opts.sync = WalSyncPolicy::kAlways;
  wal_opts.compact_threshold_bytes = 2048;
  RestartableDaemon::Options opts;
  opts.wal_dir = FreshDir("compact_churn");
  opts.wal = wal_opts;
  RestartableDaemon daemon(opts);

  ObjectStore reference;
  uint64_t next_index = 0;
  uint64_t total_compactions = 0;
  Rng rng(77);
  const int rounds = CrashRounds(8);
  for (int round = 0; round < rounds; ++round) {
    daemon.Start();
    total_compactions += daemon.last_recovery().had_snapshot ? 1 : 0;
    uint64_t first = next_index;
    KillPointOutcome outcome =
        RunUntilKilled(&daemon, first, rng.NextInRange(3000, 40000));
    for (uint64_t i = first; i < first + outcome.acked; ++i) {
      Request op = NthOp(i);
      ApplyPrefix(op, SubopCount(op), &reference);
    }
    next_index = first + outcome.acked + (outcome.had_in_flight ? 1 : 0);
    daemon.Start();
    ExpectRecoveredState(daemon.server()->store().Serialize(), &reference,
                         outcome, "compaction round " +
                                      std::to_string(round));
    daemon.KillHard();
  }
  // The threshold really fired: later rounds recovered from a snapshot.
  EXPECT_GT(total_compactions, 0u)
      << "compaction never triggered; threshold too high for the workload";
}

TEST(WalRecovery, AndrewSequenceSurvivesHardKillChurn) {
  // Full-stack version: a mounted SharoesClient behind RetryingConnection
  // runs the Andrew sequence while a controller SIGKILLs the daemon
  // three times. No graceful snapshot ever happens, so every restart
  // recovers purely from the log — and the transcript plus the final
  // store must be byte-identical to a crash-free run.
  //
  // The controller kills on WAL progress, not on a timer: once the log
  // has grown by another quarter of the records the clean run's Andrew
  // sequence logs. So every kill lands while the sequence still has ops
  // to send, however fast or loaded the host is. In churn runs each
  // reply also waits 1 ms after its request is applied, so the kill
  // lands while the request that crossed the mark is in flight: applied,
  // its reply lost, and re-sent to the restarted daemon.
  using sharoes::testing::MakeClient;
  using sharoes::testing::MakeEngine;
  using sharoes::testing::ProvisionOverTcp;
  using sharoes::testing::RunAndrewSequence;
  using sharoes::testing::TcpFactory;

  uint64_t sequence_records = 0;
  auto run = [&sequence_records](const std::string& dir, bool churn,
                                 Bytes* transcript_out, Bytes* store_out) {
    FaultPolicy::Options delay;
    delay.delay_prob = 1.0;
    delay.delay_ms = 1;
    FaultPolicy delay_replies(delay);
    RestartableDaemon::Options opts;
    opts.wal_dir = dir;
    RestartableDaemon daemon(opts);
    if (churn) daemon.set_injector(&delay_replies);
    daemon.Start();
    auto enterprise = ProvisionOverTcp(&daemon);

    SimClock clock;
    auto engine = MakeEngine(&clock, 99);
    core::RetryOptions retry;
    retry.max_attempts = 12;
    retry.initial_backoff_ms = 5;
    retry.max_backoff_ms = 200;
    retry.seed = 7;
    core::RetryingConnection conn(TcpFactory(&daemon), retry);
    auto client = MakeClient(enterprise.get(), &conn, engine.get());
    ASSERT_TRUE(client->Mount().ok());

    const uint64_t start = daemon.wal_sequence();
    std::atomic<bool> done{false};
    std::thread controller([&] {
      for (uint64_t i = 1; churn && i <= 3; ++i) {
        const uint64_t kill_at = start + i * sequence_records / 4;
        while (!done.load() && daemon.wal_sequence() < kill_at) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        if (done.load()) return;
        daemon.RestartHard();
      }
    });
    auto transcript = RunAndrewSequence(client.get());
    done.store(true);
    controller.join();
    if (!churn) sequence_records = daemon.wal_sequence() - start;
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    *transcript_out = std::move(*transcript);
    if (churn) {
      EXPECT_GE(conn.reconnects(), 1u);
    }
    // Read the final state through one more hard-kill cycle so even the
    // "clean" run's bytes come from log recovery, not live memory.
    daemon.RestartHard();
    *store_out = daemon.server()->store().Serialize();
  };

  Bytes clean_transcript, clean_store;
  run(FreshDir("andrew_clean"), /*churn=*/false, &clean_transcript,
      &clean_store);
  ASSERT_FALSE(clean_transcript.empty());
  ASSERT_GE(sequence_records, 4u);

  int rounds = CrashRounds(1);
  for (int round = 0; round < rounds; ++round) {
    Bytes churn_transcript, churn_store;
    run(FreshDir("andrew_churn" + std::to_string(round)), /*churn=*/true,
        &churn_transcript, &churn_store);
    EXPECT_EQ(churn_transcript, clean_transcript) << "round " << round;
    EXPECT_EQ(churn_store, clean_store) << "round " << round;
  }
}

// The batched read path leans on kBatch for every cold read, so a batch
// of pure gets against a WAL-enabled daemon must be WAL-neutral: no
// appends, no fsyncs. Otherwise turning on readahead would multiply the
// durability cost of a *read* workload.
TEST(WalBatchCost, PureGetBatchIsWalNeutral) {
  std::string dir = FreshDir("getbatch");
  SspServer server;
  WalOptions wal_opts;
  wal_opts.sync = WalSyncPolicy::kAlways;
  auto wal = Wal::Open(dir, wal_opts, &server.store());
  ASSERT_TRUE(wal.ok()) << wal.status();
  server.set_wal(wal->get());
  // Seed one object so the batch sees both kOk and kNotFound sub-results.
  ASSERT_EQ(server.Handle(Request::PutData(1, 0, {1, 2, 3})).status,
            RespStatus::kOk);

  auto& reg = obs::MetricsRegistry::Global();
  uint64_t appends0 = reg.counter("ssp.wal.appends")->Value();
  uint64_t fsyncs0 = reg.counter("ssp.wal.fsyncs")->Value();
  Response resp = server.Handle(
      Request::Batch({Request::GetData(1, 0), Request::GetMetadata(1, 0),
                      Request::GetData(99, 7)}));
  ASSERT_EQ(resp.status, RespStatus::kOk);
  ASSERT_EQ(resp.batch.size(), 3u);
  EXPECT_EQ(resp.batch[0].status, RespStatus::kOk);
  EXPECT_EQ(reg.counter("ssp.wal.appends")->Value(), appends0);
  EXPECT_EQ(reg.counter("ssp.wal.fsyncs")->Value(), fsyncs0);
  server.set_wal(nullptr);
}

// A mixed batch logs each mutating sub-op but pays for durability once:
// exactly one fsync per top-level request under sync=always.
TEST(WalBatchCost, MixedBatchCostsExactlyOneFsync) {
  std::string dir = FreshDir("mixedbatch");
  SspServer server;
  WalOptions wal_opts;
  wal_opts.sync = WalSyncPolicy::kAlways;
  auto wal = Wal::Open(dir, wal_opts, &server.store());
  ASSERT_TRUE(wal.ok()) << wal.status();
  server.set_wal(wal->get());

  auto& reg = obs::MetricsRegistry::Global();
  uint64_t appends0 = reg.counter("ssp.wal.appends")->Value();
  uint64_t fsyncs0 = reg.counter("ssp.wal.fsyncs")->Value();
  Response resp = server.Handle(Request::Batch(
      {Request::PutData(5, 0, {1}), Request::GetData(5, 0),
       Request::PutMetadata(5, 0, {2}),
       Request::Delete(ObjectRef::Metadata(6, 1))}));
  ASSERT_EQ(resp.status, RespStatus::kOk);
  EXPECT_EQ(reg.counter("ssp.wal.appends")->Value(), appends0 + 3);
  EXPECT_EQ(reg.counter("ssp.wal.fsyncs")->Value(), fsyncs0 + 1);
  server.set_wal(nullptr);
}

// The group-commit generalization of the "batch = one fsync" invariant:
// K concurrent acked requests cost at most ceil(K / group) fsyncs. Here
// every append lands before any committer runs, so the whole set is one
// group — the first committer to lead captures the log frontier and its
// single fsync covers all K sequences; every other CommitThrough must
// return without touching the disk. A silent degradation to per-request
// sync shows up as delta == K and fails loudly.
TEST(WalBatchCost, ConcurrentCommitsShareOneFsync) {
  std::string dir = FreshDir("groupcommit");
  ObjectStore store;
  WalOptions wal_opts;
  wal_opts.sync = WalSyncPolicy::kAlways;
  auto wal = Wal::Open(dir, wal_opts, &store);
  ASSERT_TRUE(wal.ok()) << wal.status();

  constexpr int kWriters = 8;
  std::vector<uint64_t> seqs(kWriters, 0);
  for (int w = 0; w < kWriters; ++w) {
    Request op = Request::PutData(800 + w, 0, {static_cast<uint8_t>(w)});
    ASSERT_TRUE((*wal)->Append(op, &seqs[w]).ok());
  }
  auto& reg = obs::MetricsRegistry::Global();
  uint64_t fsyncs0 = reg.counter("ssp.wal.fsyncs")->Value();
  std::vector<std::thread> committers;
  committers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    committers.emplace_back([&, w] {
      EXPECT_TRUE((*wal)->CommitThrough(seqs[w]).ok());
    });
  }
  for (std::thread& t : committers) t.join();
  uint64_t delta = reg.counter("ssp.wal.fsyncs")->Value() - fsyncs0;
  EXPECT_EQ(delta, 1u)
      << "group commit degraded: " << kWriters
      << " concurrent acked requests must share ceil(K/group) = 1 fsync, "
      << "not pay " << delta;
  EXPECT_EQ((*wal)->durable_sequence(), seqs.back());
}

// End-to-end flavour through SspServer::Handle: K threads each ack one
// mutating request against a group-commit window. Appends interleave
// with syncs here, so the exact count is scheduling-dependent — but
// fsyncs-per-acked-op must stay strictly below 1, which is exactly the
// property that distinguishes group commit from per-request durability.
TEST(WalBatchCost, ConcurrentHandlesSyncSublinearly) {
  std::string dir = FreshDir("groupcommit_e2e");
  SspServer server;
  WalOptions wal_opts;
  wal_opts.sync = WalSyncPolicy::kAlways;
  wal_opts.group_commit_us = 3000;
  auto wal = Wal::Open(dir, wal_opts, &server.store());
  ASSERT_TRUE(wal.ok()) << wal.status();
  server.set_wal(wal->get());

  constexpr int kWriters = 8;
  auto& reg = obs::MetricsRegistry::Global();
  uint64_t fsyncs0 = reg.counter("ssp.wal.fsyncs")->Value();
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Response resp = server.Handle(
          Request::PutData(900 + w, 0, {static_cast<uint8_t>(w)}));
      EXPECT_EQ(resp.status, RespStatus::kOk);
    });
  }
  for (std::thread& t : writers) t.join();
  uint64_t delta = reg.counter("ssp.wal.fsyncs")->Value() - fsyncs0;
  EXPECT_GE(delta, 1u);
  EXPECT_LT(delta, static_cast<uint64_t>(kWriters))
      << "fsyncs-per-acked-op reached 1.0: group commit is not sharing "
      << "syncs across concurrent requests";
  server.set_wal(nullptr);
}

// Satellite of the group-commit change: concurrent writers + SIGKILL at
// seeded points inside the commit window. Each of the N writers streams
// 3-sub-op batches into a disjoint (inode, block) keyspace; after the
// kill, the recovered store must hold every acked batch in full, and the
// one in-flight batch per writer may survive only as a *prefix* — a
// later sub-op present while an earlier one is missing would mean the
// WAL replayed a torn batch suffix.
TEST(WalRecovery, GroupCommitConcurrentWritersSurviveSigkill) {
  WalOptions wal_opts;
  wal_opts.sync = WalSyncPolicy::kAlways;
  wal_opts.group_commit_us = 1000;
  RestartableDaemon::Options opts;
  opts.wal_dir = FreshDir("groupcommit_kill");
  opts.wal = wal_opts;
  RestartableDaemon daemon(opts);

  constexpr int kWriters = 8;
  constexpr uint32_t kSubOps = 3;
  auto payload_for = [](int round, int w, uint64_t i, uint32_t k) {
    Bytes p(48);
    for (size_t b = 0; b < p.size(); ++b) {
      p[b] = static_cast<uint8_t>(
          (round * 7 + w * 131 + i * 29 + k * 17 + b) & 0xFF);
    }
    return p;
  };
  auto inode_for = [](int round, int w) {
    return static_cast<fs::InodeNum>(50000 + round * 100 + w);
  };

  auto& reg = obs::MetricsRegistry::Global();
  uint64_t piggybacks0 = reg.counter("ssp.wal.commit_piggybacks")->Value();
  Rng rng(0xD15C);
  const int rounds = CrashRounds(5);
  for (int round = 0; round < rounds; ++round) {
    daemon.Start();
    struct WriterOutcome {
      uint64_t acked_batches = 0;
      bool had_in_flight = false;
    };
    std::vector<WriterOutcome> outcomes(kWriters);
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        auto channel = TcpSspChannel::Connect("127.0.0.1", daemon.port());
        if (!channel.ok()) return;  // Kill landed before the connect.
        fs::InodeNum inode = inode_for(round, w);
        for (uint64_t i = 0;; ++i) {
          std::vector<Request> subs;
          for (uint32_t k = 0; k < kSubOps; ++k) {
            subs.push_back(Request::PutData(
                inode, static_cast<uint32_t>(i) * kSubOps + k,
                payload_for(round, w, i, k)));
          }
          auto resp = (*channel)->Call(Request::Batch(std::move(subs)));
          if (resp.ok() && resp->ok()) {
            ++outcomes[w].acked_batches;
            continue;
          }
          outcomes[w].had_in_flight = true;
          break;
        }
      });
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.NextInRange(2000, 25000)));
    daemon.KillHard();
    for (std::thread& t : writers) t.join();

    daemon.Start();
    SspServer* server = daemon.server();
    for (int w = 0; w < kWriters; ++w) {
      fs::InodeNum inode = inode_for(round, w);
      // Every acked batch must be recovered in full.
      for (uint64_t i = 0; i < outcomes[w].acked_batches; ++i) {
        for (uint32_t k = 0; k < kSubOps; ++k) {
          Response got = server->Handle(Request::GetData(
              inode, static_cast<uint32_t>(i) * kSubOps + k));
          ASSERT_EQ(got.status, RespStatus::kOk)
              << "round " << round << " writer " << w << ": acked batch "
              << i << " sub-op " << k << " lost across SIGKILL";
          EXPECT_EQ(got.payload, payload_for(round, w, i, k));
        }
      }
      // The in-flight batch may survive only as a prefix of its sub-ops.
      uint64_t i = outcomes[w].acked_batches;
      bool prior_present = true;
      for (uint32_t k = 0; k < kSubOps; ++k) {
        Response got = server->Handle(Request::GetData(
            inode, static_cast<uint32_t>(i) * kSubOps + k));
        bool present = got.status == RespStatus::kOk;
        ASSERT_FALSE(present && !prior_present)
            << "round " << round << " writer " << w
            << ": torn batch suffix — sub-op " << k
            << " recovered without its predecessor";
        if (present) {
          EXPECT_EQ(got.payload, payload_for(round, w, i, k));
        }
        prior_present = present;
      }
    }
    daemon.KillHard();
  }
  // The writers really did meet inside the commit window: at least one
  // request rode another leader's fsync somewhere across the rounds.
  EXPECT_GT(reg.counter("ssp.wal.commit_piggybacks")->Value(), piggybacks0)
      << "no request ever shared a group commit; the window is not engaging";
}

}  // namespace
}  // namespace sharoes::ssp
