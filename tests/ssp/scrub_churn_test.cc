// Scrubber-under-churn proofs (satellite of the tombstone PR). The
// anti-entropy scrubber shares the process with live quorum traffic and
// a SIGKILL-flapping replica, so the suite drives exactly that mix —
// designed to run clean under -DSHAROES_SANITIZE=thread:
//
//   1. Scrubber passes on the stable nodes + a put/delete churn + the
//      Andrew workload, all while one replica flaps. Afterwards every
//      acked delete must still read deleted, every acked put must read
//      back byte-exact, and a full scrub converges the stores with no
//      tombstones left.
//   2. The daemonized form: Scrubber::Start(interval) threads on every
//      node GC a set of fully-replicated tombstones on their own, and
//      Stop() joins promptly mid-interval.

#include "ssp/scrub.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_channel.h"
#include "ssp/placement.h"
#include "testing/andrew_client.h"
#include "testing/cluster.h"
#include "testing/stress.h"

namespace sharoes::ssp {
namespace {

using testing::ReplicaFlapper;
using testing::TestCluster;

Bytes Payload(uint64_t tag) {
  Bytes payload;
  for (int b = 0; b < 24; ++b) {
    payload.push_back(static_cast<uint8_t>((tag * 131 + b * 17) & 0xFF));
  }
  return payload;
}

/// Raw-key churn range, far above anything the provisioner or the
/// Andrew client allocates.
constexpr uint64_t kChurnBase = 100000;
constexpr uint64_t kChurnKeys = 40;

bool EventuallyFor(int deadline_ms, const std::function<bool()>& cond) {
  for (int waited = 0; waited < deadline_ms; waited += 10) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

TEST(ScrubChurn, ScrubberRunsCleanUnderReplicaChurnAndLiveTraffic) {
  TestCluster::Options opts;  // 3 nodes, K=3, W=2, R=2, WAL, tombstones.
  opts.tag = "scrub_churn";
  TestCluster cluster(opts);
  cluster.Start();
  auto ent = testing::ProvisionOverCluster(&cluster);
  auto engine = testing::MakeEngine(&ent->clock, 7);
  auto channel = cluster.MakeChannel();
  auto client = testing::MakeClient(ent.get(), channel.get(), engine.get());
  ASSERT_TRUE(client->Mount().ok());

  // Continuous anti-entropy on the two STABLE nodes (a scrubber is
  // bound to one server incarnation, so the flapping node cannot host
  // one mid-test). Their passes overlap the workload, the delete churn,
  // and node 2's kill/recover cycles.
  std::atomic<bool> stop_scrub{false};
  std::atomic<int> scrub_passes{0};
  std::thread scrub_thread([&] {
    auto s0 = cluster.MakeScrubber(0);
    auto s1 = cluster.MakeScrubber(1);
    while (!stop_scrub.load()) {
      s0->RunOnce();
      s1->RunOnce();
      scrub_passes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // Put/delete churn on raw keys: odd keys end deleted, even keys end
  // live. Every op is quorum-acked, so afterwards the scrubber must
  // have preserved exactly this state — no resurrections, no losses.
  std::atomic<int> churn_errors{0};
  std::thread churn_thread([&] {
    auto ch = cluster.MakeChannel();
    for (uint64_t k = 0; k < kChurnKeys; ++k) {
      uint64_t inode = kChurnBase + k;
      auto put = ch->Call(Request::PutData(inode, 0, Payload(k)));
      if (!put.ok() || put->status != RespStatus::kOk) {
        churn_errors.fetch_add(1);
        continue;
      }
      if (k % 2 == 1) {
        auto del = ch->Call(Request::DeleteData(inode, 0));
        if (!del.ok() || del->status != RespStatus::kOk) {
          churn_errors.fetch_add(1);
        }
      }
    }
  });

  Bytes transcript;
  {
    ReplicaFlapper flapper(cluster.node(2), /*down_ms=*/60, /*up_ms=*/50);
    auto result = testing::RunAndrewSequence(client.get());
    ASSERT_TRUE(result.ok()) << result.status();
    transcript = std::move(*result);
    for (int round = 0;
         (flapper.flaps() < 2 || scrub_passes.load() < 3) && round < 2000;
         ++round) {
      client->DropCaches();
      for (int i = 0; i < testing::kSourceFiles; ++i) {
        auto content = client->Read("/proj/src/f" + std::to_string(i) + ".c");
        ASSERT_TRUE(content.ok()) << content.status();
        ASSERT_EQ(*content, testing::SourceContent(i));
      }
    }
    EXPECT_GE(flapper.flaps(), 2);
    EXPECT_GE(scrub_passes.load(), 3);
  }  // Flapper stops; node 2 is up, recovered from its WAL.
  churn_thread.join();
  stop_scrub.store(true);
  scrub_thread.join();
  EXPECT_EQ(churn_errors.load(), 0)
      << "quorum ops failed during churn — the end-state checks below "
         "would assert the wrong expectations";

  // Quiescent convergence: two full passes from every node (node 2 is
  // stable now, so it can host a scrubber) repair any divergence the
  // churn left and GC every tombstone on a full-quorum pass.
  auto s0 = cluster.MakeScrubber(0);
  auto s1 = cluster.MakeScrubber(1);
  auto s2 = cluster.MakeScrubber(2);
  for (int round = 0; round < 2; ++round) {
    s0->RunOnce();
    s1->RunOnce();
    s2->RunOnce();
  }

  // Acked deletes stayed deleted, acked puts stayed put — through a
  // fresh channel (quorum truth) AND on every replica (store truth).
  auto verify = cluster.MakeChannel();
  for (uint64_t k = 0; k < kChurnKeys; ++k) {
    uint64_t inode = kChurnBase + k;
    auto got = verify->Call(Request::GetData(inode, 0));
    ASSERT_TRUE(got.ok()) << got.status();
    if (k % 2 == 1) {
      EXPECT_EQ(got->status, RespStatus::kNotFound)
          << "key " << inode << " resurrected through the churn";
      for (int node = 0; node < 3; ++node) {
        EXPECT_FALSE(
            cluster.node(node)->server()->store().Get(ObjectRef::Data(inode, 0))
                .has_value())
            << "node " << node << " still offers deleted key " << inode;
      }
    } else {
      ASSERT_EQ(got->status, RespStatus::kOk) << "key " << inode << " lost";
      EXPECT_EQ(got->payload, Payload(k));
    }
  }
  for (int node = 0; node < 3; ++node) {
    EXPECT_EQ(cluster.node(node)->server()->store().Stats().tombstone_count,
              0u)
        << "node " << node << " kept tombstones past full-quorum GC";
  }

  // And the filesystem the workload built is still intact end to end.
  auto check_engine = testing::MakeEngine(&ent->clock, 11);
  auto check_channel = cluster.MakeChannel();
  auto check_client = testing::MakeClient(ent.get(), check_channel.get(),
                                          check_engine.get());
  ASSERT_TRUE(check_client->Mount().ok());
  for (int i = 0; i < testing::kSourceFiles; ++i) {
    auto content =
        check_client->Read("/proj/src/f" + std::to_string(i) + ".c");
    ASSERT_TRUE(content.ok()) << content.status();
    EXPECT_EQ(*content, testing::SourceContent(i));
  }
}

TEST(ScrubChurn, BackgroundScrubberGcsTombstonesOnItsInterval) {
  TestCluster::Options opts;
  opts.tag = "scrub_interval";
  TestCluster cluster(opts);
  cluster.Start();

  // Put+delete at full health: every replica ends holding a tombstone,
  // so the only work left for the scrubbers is the full-quorum GC.
  auto ch = cluster.MakeChannel();
  constexpr uint64_t kKeys = 6;
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto put = ch->Call(Request::PutData(kChurnBase + k, 0, Payload(k)));
    ASSERT_TRUE(put.ok() && put->status == RespStatus::kOk);
    auto del = ch->Call(Request::DeleteData(kChurnBase + k, 0));
    ASSERT_TRUE(del.ok() && del->status == RespStatus::kOk);
  }
  for (int node = 0; node < 3; ++node) {
    ASSERT_TRUE(EventuallyFor(2000, [&] {
      return cluster.node(node)->server()->store().Stats().tombstone_count ==
             kKeys;
    })) << "node " << node << " never saw all " << kKeys << " deletes";
  }

  // The daemonized form (`sharoes_sspd --scrub-interval-s 1`): each
  // node's background thread purges its OWN tombstones once its pass
  // sees all replicas tombstone-or-missing.
  std::vector<std::unique_ptr<Scrubber>> scrubbers;
  for (int node = 0; node < 3; ++node) {
    scrubbers.push_back(cluster.MakeScrubber(node));
    scrubbers.back()->Start(/*interval_s=*/1);
  }
  for (int node = 0; node < 3; ++node) {
    EXPECT_TRUE(EventuallyFor(15000, [&] {
      return cluster.node(node)->server()->store().Stats().tombstone_count ==
             0;
    })) << "node " << node << "'s background scrubber never GC'd";
  }

  // Stop() must interrupt the interval wait, not ride it out.
  auto begin = std::chrono::steady_clock::now();
  for (auto& s : scrubbers) s->Stop();
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  EXPECT_LT(waited.count(), 3000) << "Stop() rode out the scrub interval";
}

}  // namespace
}  // namespace sharoes::ssp
