// Histogram math and registry semantics: bucket boundaries, percentile
// error bounds, snapshot/merge associativity, gauge lifecycle, the
// runtime kill switch, and the JSON rendering consumed by kGetStats.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"
#include "util/random.h"

namespace sharoes::obs {
namespace {

TEST(CounterTest, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, DisabledCounterDoesNotMove) {
  Counter c;
  SetMetricsEnabled(false);
  c.Add(100);
  SetMetricsEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  c.Add(1);
  EXPECT_EQ(c.Value(), 1u);
}

TEST(HistogramTest, SmallValuesAreExactBuckets) {
  // Values below kSubBuckets land in their own bucket: no estimation
  // error at all in the range where latencies are small.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
  }
}

TEST(HistogramTest, BucketLowerBoundInvertsBucketIndex) {
  // Every bucket's lower bound must map back to that bucket, and the
  // value just below it must map to the previous bucket.
  for (size_t i = 0; i < 40 * Histogram::kSubBuckets; ++i) {
    uint64_t lo = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "lower bound of bucket " << i;
    if (lo > 0) {
      EXPECT_EQ(Histogram::BucketIndex(lo - 1), i - 1)
          << "value below bucket " << i;
    }
  }
}

TEST(HistogramTest, PowerOfTwoBoundaries) {
  // Octave edges are the interesting spots: 2^k starts a new octave.
  for (unsigned e = Histogram::kSubBucketBits; e < 63; ++e) {
    uint64_t v = 1ull << e;
    size_t at = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketLowerBound(at), v);
    EXPECT_EQ(Histogram::BucketIndex(v - 1), at - 1);
  }
  // The top of the u64 range must still map inside the bucket array.
  EXPECT_LT(Histogram::BucketIndex(~0ull), Histogram::kNumBuckets);
}

TEST(HistogramTest, BucketRelativeWidthIsBounded) {
  // The estimation-error guarantee: bucket width / lower bound is at
  // most 1/kSubBuckets for every bucket above the exact range.
  for (size_t i = Histogram::kSubBuckets;
       i + 1 < 40 * Histogram::kSubBuckets; ++i) {
    uint64_t lo = Histogram::BucketLowerBound(i);
    uint64_t width = Histogram::BucketLowerBound(i + 1) - lo;
    EXPECT_LE(static_cast<double>(width),
              static_cast<double>(lo) / Histogram::kSubBuckets + 1e-9)
        << "bucket " << i;
  }
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h;
  h.Record(5);
  h.Record(1000);
  h.Record(37);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 1042u);
  EXPECT_EQ(snap.min, 5u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 1042.0 / 3.0);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, PercentileErrorBound) {
  // Percentiles of a log-uniform sample must land within the documented
  // relative error (1/kSubBuckets) of the exact order statistic.
  Histogram h;
  std::vector<uint64_t> values;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [1, 2^30): exercises many octaves.
    uint64_t v = 1ull << (rng.NextU64() % 30);
    v += rng.NextU64() % v;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  HistogramSnapshot snap = h.Snapshot();
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
    if (rank >= values.size()) rank = values.size() - 1;
    double exact = static_cast<double>(values[rank]);
    double est = static_cast<double>(snap.Percentile(q));
    double rel_err = std::abs(est - exact) / exact;
    EXPECT_LE(rel_err, 1.0 / Histogram::kSubBuckets + 0.01)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(HistogramTest, PercentilesAreClampedToRecordedRange) {
  Histogram h;
  h.Record(100);
  h.Record(100);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.Percentile(0.0), 100u);
  EXPECT_EQ(snap.Percentile(1.0), 100u);
}

TEST(HistogramTest, MergeIsAssociative) {
  Histogram ha, hb, hc;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) ha.Record(rng.NextU64() % 10000);
  for (int i = 0; i < 300; ++i) hb.Record(rng.NextU64() % 100);
  for (int i = 0; i < 700; ++i) hc.Record(1 + rng.NextU64() % 1000000);
  HistogramSnapshot a = ha.Snapshot(), b = hb.Snapshot(), c = hc.Snapshot();

  HistogramSnapshot left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  HistogramSnapshot bc = b;     // a + (b + c)
  bc.Merge(c);
  HistogramSnapshot right = a;
  right.Merge(bc);

  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.sum, right.sum);
  EXPECT_EQ(left.min, right.min);
  EXPECT_EQ(left.max, right.max);
  EXPECT_EQ(left.buckets, right.buckets);
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(left.Percentile(q), right.Percentile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram h;
  h.Record(42);
  HistogramSnapshot snap = h.Snapshot();
  HistogramSnapshot empty;
  snap.Merge(empty);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min, 42u);
  HistogramSnapshot other = empty;
  other.Merge(snap);
  EXPECT_EQ(other.count, 1u);
  EXPECT_EQ(other.min, 42u);
  EXPECT_EQ(other.max, 42u);
}

TEST(HistogramTest, DisabledHistogramDoesNotRecord) {
  Histogram h;
  SetMetricsEnabled(false);
  h.Record(7);
  SetMetricsEnabled(true);
  EXPECT_EQ(h.Snapshot().count, 0u);
}

TEST(HistogramTest, UntracedSamplesLeaveNoExemplars) {
  Histogram h;
  h.Record(100);
  h.Record(5000);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_TRUE(snap.exemplars.empty());
  EXPECT_EQ(snap.ExemplarNear(0.99), 0u);
  EXPECT_EQ(snap.ToJson().find("p99_trace"), std::string::npos);
}

TEST(HistogramTest, TracedSampleLeavesAnExemplar) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(10);  // Untraced low filler.
  SetCurrentTrace(TraceContext{0xBEEF, 0});
  for (int i = 0; i < 90; ++i) h.Record(5000);  // The traced tail.
  SetCurrentTrace(TraceContext{});
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_FALSE(snap.exemplars.empty());
  // The bucket holding the traced sample carries its trace id...
  EXPECT_EQ(snap.exemplars[Histogram::BucketIndex(5000)], 0xBEEFu);
  // ...and quantile lookups near the tail resolve to it.
  EXPECT_EQ(snap.ExemplarNear(0.99), 0xBEEFu);
  EXPECT_EQ(snap.PercentileBucket(0.99), Histogram::BucketIndex(5000));
  // The untraced bucket stays exemplar-free.
  EXPECT_EQ(snap.exemplars[Histogram::BucketIndex(10)], 0u);
}

TEST(HistogramTest, ExemplarNearWalksToTheNearestTracedBucket) {
  // p50 lands in an untraced bucket; the lookup must fall back to the
  // closest occupied bucket that does have an exemplar.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(100);
  SetCurrentTrace(TraceContext{0xF00D, 0});
  h.Record(90000);
  SetCurrentTrace(TraceContext{});
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.ExemplarNear(0.5), 0xF00Du);
}

TEST(HistogramTest, LastTracedSampleWinsTheBucket) {
  Histogram h;
  SetCurrentTrace(TraceContext{0x1, 0});
  h.Record(777);
  SetCurrentTrace(TraceContext{0x2, 0});
  h.Record(777);  // Same bucket, newer trace.
  SetCurrentTrace(TraceContext{});
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.exemplars[Histogram::BucketIndex(777)], 0x2u);
}

TEST(HistogramTest, MergePropagatesExemplars) {
  Histogram ha, hb;
  ha.Record(50);
  SetCurrentTrace(TraceContext{0xCAFE, 0});
  hb.Record(3000);
  SetCurrentTrace(TraceContext{});
  HistogramSnapshot merged = ha.Snapshot();
  merged.Merge(hb.Snapshot());
  EXPECT_EQ(merged.exemplars[Histogram::BucketIndex(3000)], 0xCAFEu);
}

TEST(HistogramTest, ToJsonHasExactMinMaxSumAndTraceJoins) {
  // The snapshot JSON reports *exact* min/max/sum/count (not bucket
  // estimates) plus the p99/max exemplar joins when traces exist.
  Histogram h;
  h.Record(17);
  SetCurrentTrace(TraceContext{0xAB, 0});
  h.Record(9001);
  SetCurrentTrace(TraceContext{});
  std::string json = h.Snapshot().ToJson();
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":9018"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\":17"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\":9001"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_trace\":\"00000000000000ab\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"max_trace\":\"00000000000000ab\""),
            std::string::npos)
      << json;
}

TEST(RegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter("a"), reg.counter("a"));
  EXPECT_NE(reg.counter("a"), reg.counter("b"));
  EXPECT_EQ(reg.histogram("h"), reg.histogram("h"));
}

TEST(RegistryTest, SnapshotCollectsEverything) {
  MetricsRegistry reg;
  reg.counter("x")->Add(3);
  reg.histogram("lat")->Record(10);
  auto gauge = reg.AddGauge("g", [] { return 99ull; });
  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("x"), 3u);
  EXPECT_EQ(snap.histograms.at("lat").count, 1u);
  EXPECT_EQ(snap.gauges.at("g"), 99u);
}

TEST(RegistryTest, SnapshotPrefixFiltersEveryKind) {
  MetricsRegistry reg;
  reg.counter("ssp.wal.appends")->Add(3);
  reg.counter("ssp.requests.GetData")->Add(9);
  reg.histogram("ssp.wal.fsync_us")->Record(120);
  reg.histogram("client.op_latency_us.read")->Record(7);
  auto g1 = reg.AddGauge("ssp.wal.segment_bytes", [] { return 11ull; });
  auto g2 = reg.AddGauge("ssp.store.objects", [] { return 5ull; });

  RegistrySnapshot snap = reg.Snapshot("ssp.wal");
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters.at("ssp.wal.appends"), 3u);
  EXPECT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms.count("ssp.wal.fsync_us"), 1u);
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges.at("ssp.wal.segment_bytes"), 11u);
  // The empty prefix stays the full snapshot.
  RegistrySnapshot all = reg.Snapshot();
  EXPECT_EQ(all.counters.size(), 2u);
  EXPECT_EQ(all.histograms.size(), 2u);
  EXPECT_EQ(all.gauges.size(), 2u);
  // A prefix matching nothing yields an empty (but valid) document.
  RegistrySnapshot none = reg.Snapshot("nope.");
  EXPECT_TRUE(none.counters.empty());
  EXPECT_TRUE(none.histograms.empty());
  EXPECT_TRUE(none.gauges.empty());
  EXPECT_EQ(none.ToJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(RegistryTest, SameNamedGaugesSum) {
  MetricsRegistry reg;
  auto g1 = reg.AddGauge("pool.size", [] { return 10ull; });
  auto g2 = reg.AddGauge("pool.size", [] { return 32ull; });
  EXPECT_EQ(reg.Snapshot().gauges.at("pool.size"), 42u);
}

TEST(RegistryTest, GaugeHandleUnregistersOnDestruction) {
  MetricsRegistry reg;
  {
    auto gauge = reg.AddGauge("ephemeral", [] { return 1ull; });
    EXPECT_EQ(reg.Snapshot().gauges.count("ephemeral"), 1u);
  }
  EXPECT_EQ(reg.Snapshot().gauges.count("ephemeral"), 0u);
}

TEST(RegistryTest, GaugeHandleMoveTransfersOwnership) {
  MetricsRegistry reg;
  MetricsRegistry::GaugeHandle outer;
  {
    auto inner = reg.AddGauge("moved", [] { return 1ull; });
    outer = std::move(inner);
  }  // inner's destructor must not unregister after the move.
  EXPECT_EQ(reg.Snapshot().gauges.count("moved"), 1u);
}

TEST(RegistryTest, JsonHasAllSections) {
  MetricsRegistry reg;
  reg.counter("ssp.requests.GetData")->Add(5);
  reg.histogram("ssp.service_us.GetData")->Record(120);
  auto gauge = reg.AddGauge("ssp.store.objects", [] { return 7ull; });
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"ssp.requests.GetData\":5"), std::string::npos);
  EXPECT_NE(json.find("\"ssp.store.objects\":7"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\n\t\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonTest, NestedObjectsAndCommas) {
  JsonObjectWriter w;
  w.Field("a", uint64_t{1});
  w.BeginObject("b");
  w.Field("c", "x");
  w.EndObject();
  w.Field("d", true);
  EXPECT_EQ(w.Take(), "{\"a\":1,\"b\":{\"c\":\"x\"},\"d\":true}");
}

}  // namespace
}  // namespace sharoes::obs
