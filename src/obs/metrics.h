// Process-wide metrics: sharded counters, log-bucketed latency
// histograms, gauge callbacks, and a registry that snapshots everything
// into one JSON document (the payload of the SSP's kGetStats RPC).
//
// Design constraints (DESIGN.md §9):
//  - the record path is lock-free and TSan-clean: counters are
//    cache-line-padded atomic stripes, histograms are atomic bucket
//    arrays; the registry mutex guards *registration* only, and callers
//    cache the returned pointers;
//  - percentile estimation is bounded: buckets are log-spaced with
//    kSubBuckets linear sub-buckets per octave, so any reported
//    percentile is within a factor of 1/kSubBuckets of the true value;
//  - everything can be disabled at runtime (SHAROES_METRICS=off) so the
//    instrumentation overhead itself is measurable (BENCH_obs_overhead).

#ifndef SHAROES_OBS_METRICS_H_
#define SHAROES_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace sharoes::obs {

/// Global kill switch, initialized once from the SHAROES_METRICS env var
/// ("off"/"0" disables). Counter::Add and Histogram::Record early-return
/// when disabled; snapshots still work (they just stop moving).
bool MetricsEnabled();
/// Runtime override (benchmarks flip it to measure their own overhead).
void SetMetricsEnabled(bool enabled);

/// Monotonic counter striped over cache-line-padded atomic cells so
/// concurrent writers on different cores do not bounce one line.
class Counter {
 public:
  static constexpr size_t kStripes = 8;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n);
  void Increment() { Add(1); }
  uint64_t Value() const;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kStripes> cells_;
};

/// Point-in-time copy of a Histogram, safe to merge / query offline.
struct HistogramSnapshot {
  std::vector<uint64_t> buckets;
  /// Per-bucket exemplars: last trace id recorded into the bucket (0 =
  /// none). Empty when the histogram never saw a traced sample.
  std::vector<uint64_t> exemplars;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // Meaningful only when count > 0.
  uint64_t max = 0;

  /// Estimated value at quantile q in [0, 1]; interpolates inside the
  /// containing bucket and clamps to the recorded [min, max]. Relative
  /// error is bounded by the bucket width (<= 1/kSubBuckets above the
  /// exact range). Returns 0 when empty.
  uint64_t Percentile(double q) const;
  /// Index of the occupied bucket containing quantile q; SIZE_MAX when
  /// the snapshot is empty.
  size_t PercentileBucket(double q) const;
  /// Trace id exemplifying quantile q: the exemplar of the bucket
  /// containing q, or the nearest occupied bucket that has one. 0 when
  /// no traced sample landed anywhere near q.
  uint64_t ExemplarNear(double q) const;
  double Mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }

  /// Pointwise accumulation; associative and commutative, so shards of
  /// a distributed histogram can be merged in any grouping.
  void Merge(const HistogramSnapshot& other);

  /// One JSON object: {count,sum,min,max,mean,p50,...}; adds
  /// "p99_trace"/"max_trace" hex fields when exemplars link those
  /// quantiles to captured spans (the sharoes_cli stats -> slow join).
  std::string ToJson() const;
};

/// Lock-free log-bucketed histogram of uint64 samples (latencies in
/// microseconds, sizes in bytes, ...). Values below kSubBuckets are
/// recorded exactly; above that, each power-of-two octave is split into
/// kSubBuckets linear sub-buckets (relative error <= 1/kSubBuckets).
class Histogram {
 public:
  static constexpr uint64_t kSubBucketBits = 5;
  static constexpr uint64_t kSubBuckets = 1u << kSubBucketBits;  // 32.
  static constexpr size_t kNumBuckets =
      (64 - kSubBucketBits) * kSubBuckets + kSubBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value);
  HistogramSnapshot Snapshot() const;

  /// Bucket index for `value` (exposed for the bucket-boundary tests).
  static size_t BucketIndex(uint64_t value);
  /// Smallest value mapping to bucket `index` (inverse of BucketIndex).
  static uint64_t BucketLowerBound(size_t index);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  // Last trace id recorded per bucket (histogram exemplars). Written
  // only for samples recorded under an active trace, so untraced fast
  // paths pay one thread-local read and a predictable branch.
  std::array<std::atomic<uint64_t>, kNumBuckets> exemplars_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ull};
  std::atomic<uint64_t> max_{0};
  std::atomic<bool> has_exemplars_{false};
};

/// Everything the registry knows, frozen. Gauges are sampled at snapshot
/// time; same-named gauges (several instances of one component) sum.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// One JSON document: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,min,max,mean,p50,p90,p99,p999}}}.
  std::string ToJson() const;

  /// Accumulates another node's snapshot into this one: counters and
  /// gauges sum by name, histograms merge pointwise. Associative and
  /// commutative like HistogramSnapshot::Merge, so a cluster-wide view
  /// is the fold of the per-daemon snapshots in any order (the
  /// ShardedChannel's kGetStats fan-out).
  void Merge(const RegistrySnapshot& other);

  /// Wire form for shipping a snapshot between processes (the kGetStats
  /// reply, which readers render with ToJson): JSON cannot be merged
  /// without a parser, this round-trips losslessly — including raw
  /// histogram buckets and exemplars, so percentiles computed from a
  /// merged snapshot are as good as local ones. Sparse bucket encoding
  /// keeps it compact.
  Bytes SerializeBinary() const;
  static Result<RegistrySnapshot> DeserializeBinary(const Bytes& data);
};

/// Name -> metric directory. Metric objects are owned by the registry
/// and live as long as it does, so a pointer from counter()/histogram()
/// may be cached and used lock-free forever after.
///
/// Naming scheme (DESIGN.md §9): dot-separated `<component>.<metric>`
/// with an optional trailing label, e.g. "ssp.requests.GetData",
/// "ssp.errors.kBadRequest", "client.cache.hits".
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every production component records into.
  /// Tests wanting isolation construct their own instance.
  static MetricsRegistry& Global();

  Counter* counter(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// A gauge is sampled by callback at snapshot time (for state that is
  /// already maintained elsewhere, e.g. ObjectStore byte accounting).
  /// The returned handle unregisters on destruction; the callback must
  /// stay valid until then. Same-named gauges sum in the snapshot.
  using GaugeFn = std::function<uint64_t()>;
  class GaugeHandle {
   public:
    GaugeHandle() = default;
    GaugeHandle(GaugeHandle&& other) noexcept;
    GaugeHandle& operator=(GaugeHandle&& other) noexcept;
    GaugeHandle(const GaugeHandle&) = delete;
    GaugeHandle& operator=(const GaugeHandle&) = delete;
    ~GaugeHandle();

   private:
    friend class MetricsRegistry;
    GaugeHandle(MetricsRegistry* reg, uint64_t id) : reg_(reg), id_(id) {}
    MetricsRegistry* reg_ = nullptr;
    uint64_t id_ = 0;
  };
  [[nodiscard]] GaugeHandle AddGauge(std::string name, GaugeFn fn);

  /// Freezes every metric whose name starts with `prefix` (empty =
  /// everything). The prefix filter is what lets a load harness scrape
  /// one subsystem ("ssp.wal") every second without shipping the full
  /// registry JSON (kGetStats carries the prefix in its payload).
  RegistrySnapshot Snapshot(std::string_view prefix = {}) const;

 private:
  struct GaugeEntry {
    std::string name;
    GaugeFn fn;
  };
  void RemoveGauge(uint64_t id);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<uint64_t, GaugeEntry> gauges_;
  uint64_t next_gauge_id_ = 1;
};

}  // namespace sharoes::obs

#endif  // SHAROES_OBS_METRICS_H_
