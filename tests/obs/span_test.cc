// Span timelines (obs/span.h): exclusive-phase attribution, the
// AddPhaseNs back-charge, slow-ring + slowest-table capture semantics,
// the traced-only publish rule, and the JSON renderings the kGetTraces
// RPC serves. The timing asserts are deliberately one-sided (>=) or
// framed as truncation bounds so a loaded CI machine cannot flake them.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace sharoes::obs {
namespace {

void SpinFor(std::chrono::microseconds d) {
  auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Every test starts from an empty collector and restores the slow
/// threshold it found (the collector and threshold are process-global).
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_threshold_ = SlowRequestThresholdUs();
    SpanCollector::Global().Reset();
  }
  void TearDown() override {
    SetSlowRequestThresholdUs(prev_threshold_);
    SpanCollector::Global().Reset();
  }
  uint64_t prev_threshold_ = 0;
};

// Attribution is exclusive: nested scopes never double-count, and the
// per-phase durations sum to the total up to one microsecond of
// truncation per phase — the property that makes a timeline trustworthy.
TEST_F(SpanTest, ExclusivePhasesSumToTotal) {
  SetSlowRequestThresholdUs(0);  // Keep the ring out of this test.
  SpanTimeline tl;
  tl.Start(NextTraceId(), "TestOp", 0, 'S');
  SpinFor(std::chrono::microseconds(300));  // Unclaimed -> kOp.
  {
    PhaseScope store(Phase::kStore);
    SpinFor(std::chrono::microseconds(300));
    {
      PhaseScope lock(Phase::kLockWait);  // Nested inside kStore.
      SpinFor(std::chrono::microseconds(300));
    }
    SpinFor(std::chrono::microseconds(300));
  }
  SpanRecord rec = tl.Finish();

  EXPECT_GE(rec.phase_us[static_cast<size_t>(Phase::kOp)], 250u);
  EXPECT_GE(rec.phase_us[static_cast<size_t>(Phase::kStore)], 500u);
  EXPECT_GE(rec.phase_us[static_cast<size_t>(Phase::kLockWait)], 250u);
  // Exclusive attribution: kStore must NOT contain kLockWait's time
  // (inclusive accounting would put >= 900us into kStore).
  EXPECT_LT(rec.phase_us[static_cast<size_t>(Phase::kStore)],
            rec.total_us);
  // The sum property, with one microsecond of truncation slack per phase.
  uint64_t sum = rec.PhaseSumUs();
  EXPECT_LE(sum, rec.total_us + 1);
  EXPECT_GE(sum + kNumPhases, rec.total_us);
}

TEST_F(SpanTest, AddPhaseNsBackChargesAndWidensTheSpan) {
  SetSlowRequestThresholdUs(0);
  SpanTimeline tl;
  tl.Start(NextTraceId(), "TestOp", 0, 'S');
  tl.AddPhaseNs(Phase::kFrameParse, 5'000'000);  // 5ms measured pre-Start.
  SpanRecord rec = tl.Finish();
  EXPECT_GE(rec.phase_us[static_cast<size_t>(Phase::kFrameParse)], 5000u);
  EXPECT_GE(rec.total_us, 5000u);  // The back-charge widens the total...
  uint64_t sum = rec.PhaseSumUs();  // ...so the sum property still holds.
  EXPECT_LE(sum, rec.total_us + 1);
  EXPECT_GE(sum + kNumPhases, rec.total_us);
}

TEST_F(SpanTest, PhaseScopeWithoutActiveTimelineIsANoop) {
  ASSERT_FALSE(TimelineActive());
  PhaseScope scope(Phase::kWalAppend);  // Must not crash or record.
  EXPECT_FALSE(TimelineActive());
}

TEST_F(SpanTest, TracelessTimelinePublishesNothing) {
  SetSlowRequestThresholdUs(1);  // Everything would qualify as slow.
  SpanTimeline tl;
  tl.Start(/*trace_id=*/0, "TestOp", 0, 'C');
  SpinFor(std::chrono::microseconds(200));
  SpanRecord rec = tl.Finish();
  EXPECT_GE(rec.total_us, 150u);  // The record itself is still returned...
  auto snap = SpanCollector::Global().Snap();
  EXPECT_TRUE(snap.slow.empty());  // ...but nothing reached the collector.
  EXPECT_TRUE(snap.slowest.empty());
}

TEST_F(SpanTest, SlowRequestsLandInRingAndSlowestTable) {
  SetSlowRequestThresholdUs(100);
  SpanTimeline tl;
  uint64_t trace = NextTraceId();
  tl.Start(trace, "GetData", 3, 'S');
  SpinFor(std::chrono::microseconds(500));
  tl.Finish();

  auto snap = SpanCollector::Global().Snap();
  ASSERT_EQ(snap.slow.size(), 1u);
  ASSERT_EQ(snap.slowest.size(), 1u);
  const SpanRecord& rec = snap.slow[0];
  EXPECT_EQ(rec.trace_id, trace);
  EXPECT_STREQ(rec.op, "GetData");
  EXPECT_EQ(rec.attempt, 3u);
  EXPECT_EQ(rec.kind, 'S');
  EXPECT_GE(rec.total_us, 400u);
  EXPECT_GT(rec.end_unix_us, 0u);
}

TEST_F(SpanTest, FastRequestsSkipTheRing) {
  SetSlowRequestThresholdUs(60'000'000);  // Nothing is that slow here.
  SpanTimeline tl;
  tl.Start(NextTraceId(), "TestOp", 0, 'C');
  SpinFor(std::chrono::microseconds(200));  // Nonzero total_us.
  tl.Finish();
  auto snap = SpanCollector::Global().Snap();
  EXPECT_TRUE(snap.slow.empty());
  EXPECT_EQ(snap.slowest.size(), 1u);  // Slowest-ever still tracks it.
}

TEST_F(SpanTest, ZeroThresholdDisablesRingCaptureOnly) {
  SetSlowRequestThresholdUs(0);
  SpanTimeline tl;
  tl.Start(NextTraceId(), "TestOp", 0, 'C');
  SpinFor(std::chrono::microseconds(300));
  tl.Finish();
  auto snap = SpanCollector::Global().Snap();
  EXPECT_TRUE(snap.slow.empty());
  EXPECT_EQ(snap.slowest.size(), 1u);
}

TEST_F(SpanTest, SlowestTableKeepsTheHeaviestRecords) {
  SetSlowRequestThresholdUs(0);
  // Publish 3x the table size with increasing totals; the table must end
  // up holding exactly the top kSlowestSlots.
  const uint64_t n = 3 * SpanCollector::kSlowestSlots;
  for (uint64_t i = 1; i <= n; ++i) {
    SpanRecord rec;
    rec.trace_id = i;
    rec.op = "Synthetic";
    rec.kind = 'S';
    rec.total_us = i * 10;
    rec.phase_us[static_cast<size_t>(Phase::kOp)] =
        static_cast<uint32_t>(i * 10);
    SpanCollector::Global().Publish(rec);
  }
  auto snap = SpanCollector::Global().Snap();
  ASSERT_EQ(snap.slowest.size(), SpanCollector::kSlowestSlots);
  for (const SpanRecord& rec : snap.slowest) {
    EXPECT_GT(rec.total_us, (n - SpanCollector::kSlowestSlots) * 10)
        << "a light record survived in the slowest table";
  }
}

TEST_F(SpanTest, RingOverwritesOldestFirst) {
  SetSlowRequestThresholdUs(1);
  const uint64_t n = SpanCollector::kRingSlots + 5;
  for (uint64_t i = 1; i <= n; ++i) {
    SpanRecord rec;
    rec.trace_id = 1000 + i;
    rec.op = "Synthetic";
    rec.kind = 'C';
    rec.total_us = 50;
    SpanCollector::Global().Publish(rec);
  }
  auto snap = SpanCollector::Global().Snap();
  ASSERT_EQ(snap.slow.size(), SpanCollector::kRingSlots);
  for (const SpanRecord& rec : snap.slow) {
    EXPECT_GT(rec.trace_id, 1000u + 5u)
        << "an overwritten record is still visible";
  }
}

TEST_F(SpanTest, ServerSpanFramePublishesOnDestruction) {
  SetSlowRequestThresholdUs(100);
  uint64_t trace = NextTraceId();
  {
    ServerSpanFrame frame;
    ASSERT_TRUE(ServerSpanArmed());
    BeginServerSpan(trace, "PutData", 1, /*parse_ns=*/2'000'000);
    ASSERT_TRUE(TimelineActive());
    PhaseScope store(Phase::kStore);
    SpinFor(std::chrono::microseconds(400));
  }  // Frame destructor finishes + publishes.
  EXPECT_FALSE(ServerSpanArmed());
  EXPECT_FALSE(TimelineActive());
  auto snap = SpanCollector::Global().Snap();
  ASSERT_EQ(snap.slow.size(), 1u);
  const SpanRecord& rec = snap.slow[0];
  EXPECT_EQ(rec.trace_id, trace);
  EXPECT_EQ(rec.kind, 'S');
  EXPECT_GE(rec.phase_us[static_cast<size_t>(Phase::kFrameParse)], 2000u);
  EXPECT_GE(rec.phase_us[static_cast<size_t>(Phase::kStore)], 300u);
}

TEST_F(SpanTest, BeginServerSpanDeclinesWithoutAnArmedFrame) {
  BeginServerSpan(NextTraceId(), "GetData", 0, 0);  // In-process caller.
  EXPECT_FALSE(TimelineActive());
}

TEST_F(SpanTest, BeginServerSpanDeclinesWhenAClientTimelineIsActive) {
  // In-process client+server: the server phases must nest into the
  // client op's timeline instead of starting a second server span.
  SetSlowRequestThresholdUs(1);
  SpanTimeline client_tl;
  client_tl.Start(NextTraceId(), "client.read", 0, 'C');
  {
    ServerSpanFrame frame;
    BeginServerSpan(NextTraceId(), "GetData", 0, 0);
  }
  EXPECT_TRUE(TimelineActive());  // Still the client timeline.
  EXPECT_EQ(client_tl.Finish().kind, 'C');
  for (const SpanRecord& rec : SpanCollector::Global().Snap().slow) {
    EXPECT_EQ(rec.kind, 'C') << "a nested server span was published";
  }
}

TEST_F(SpanTest, ScopedTraceContextSetsAndRestores) {
  TraceContext before = CurrentTrace();
  {
    ScopedTraceContext scope(0xABCDu, 4);
    EXPECT_EQ(CurrentTrace().trace_id, 0xABCDu);
    EXPECT_EQ(CurrentTrace().attempt, 4u);
    {
      ScopedTraceContext inner(0x1111u, 0);  // Nested override.
      EXPECT_EQ(CurrentTrace().trace_id, 0x1111u);
    }
    EXPECT_EQ(CurrentTrace().trace_id, 0xABCDu);
  }
  EXPECT_EQ(CurrentTrace().trace_id, before.trace_id);
  // A zero trace id must be a no-op, not an override to zero.
  SetCurrentTrace(TraceContext{0x7777u, 1});
  {
    ScopedTraceContext scope(0, 9);
    EXPECT_EQ(CurrentTrace().trace_id, 0x7777u);
  }
  EXPECT_EQ(CurrentTrace().trace_id, 0x7777u);
  SetCurrentTrace(before);
}

TEST_F(SpanTest, RecordToJsonEmitsNonzeroPhasesOnly) {
  SpanRecord rec;
  rec.trace_id = 0x1234;
  rec.op = "GetData";
  rec.kind = 'S';
  rec.attempt = 2;
  rec.total_us = 150;
  rec.phase_us[static_cast<size_t>(Phase::kOp)] = 50;
  rec.phase_us[static_cast<size_t>(Phase::kFsyncWait)] = 100;
  std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"op\":\"GetData\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"attempt\":2"), std::string::npos);
  EXPECT_NE(json.find("\"fsync_wait\":100"), std::string::npos);
  EXPECT_NE(json.find("\"phase_sum_us\":150"), std::string::npos);
  EXPECT_EQ(json.find("\"wal_append\""), std::string::npos)
      << "zero phase leaked into the JSON: " << json;
}

TEST_F(SpanTest, CollectorToJsonHasThresholdAndBothArrays) {
  SetSlowRequestThresholdUs(77);
  SpanRecord rec;
  rec.trace_id = 9;
  rec.op = "Synthetic";
  rec.kind = 'C';
  rec.total_us = 100;
  SpanCollector::Global().Publish(rec);
  std::string json = SpanCollector::Global().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"slow_threshold_us\":77"), std::string::npos);
  EXPECT_NE(json.find("\"slow\":["), std::string::npos);
  EXPECT_NE(json.find("\"slowest\":["), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"Synthetic\""), std::string::npos);
}

TEST_F(SpanTest, ResetClearsBothTables) {
  SetSlowRequestThresholdUs(1);
  SpanRecord rec;
  rec.trace_id = 5;
  rec.op = "Synthetic";
  rec.total_us = 100;
  SpanCollector::Global().Publish(rec);
  ASSERT_FALSE(SpanCollector::Global().Snap().slow.empty());
  SpanCollector::Global().Reset();
  auto snap = SpanCollector::Global().Snap();
  EXPECT_TRUE(snap.slow.empty());
  EXPECT_TRUE(snap.slowest.empty());
  // And the slowest table accepts light records again post-reset (its
  // claim values were cleared, not just the visible words).
  SpanRecord light;
  light.trace_id = 6;
  light.op = "Synthetic";
  light.total_us = 1;
  SpanCollector::Global().Publish(light);
  EXPECT_EQ(SpanCollector::Global().Snap().slowest.size(), 1u);
}

}  // namespace
}  // namespace sharoes::obs
