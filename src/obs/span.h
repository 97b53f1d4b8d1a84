// Per-request span timelines: where did this request spend its time?
//
// PR 3's histograms answer "how slow is p99" in aggregate; this layer
// answers "*why* was that request slow" by attributing each traced
// request's wall-clock to named phases (lock wait, WAL append, fsync
// wait, crypto, wire wait, ...). Design (DESIGN.md §14):
//
//  - Attribution is *exclusive* (profiler-style): a PhaseScope charges
//    the elapsed time since the innermost open phase's checkpoint to
//    that enclosing phase on entry, and to itself on exit. Phases
//    therefore never double-count, and the per-phase durations sum to
//    the span's total by construction — time not claimed by any named
//    phase lands in the implicit wrapper phase `op`.
//  - The active timeline is ambient (thread-local), like TraceContext:
//    instrumentation sites construct a PhaseScope unconditionally, and
//    when no timeline is active (untraced request, metrics disabled,
//    in-process test harness) the scope is two branches and no clock
//    reads — zero-trace requests pay nothing.
//  - Completed timelines above the slow threshold are published into a
//    fixed-size lock-free ring (seqlock per slot, all-atomic words, so
//    concurrent capture and drain are TSan-clean); the N slowest ever
//    are kept separately via per-slot CAS claims. Readers never block
//    writers and vice versa; an overwritten slot is simply re-read.
//  - Drains (kGetTraces / sharoes_cli slow) are non-destructive reads.

#ifndef SHAROES_OBS_SPAN_H_
#define SHAROES_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sharoes::obs {

/// Phase taxonomy. kOp is the implicit wrapper: time inside the span
/// not claimed by any named phase (client-side compute, dispatch, ...).
enum class Phase : uint8_t {
  kOp = 0,
  // Server-side request phases.
  kFrameParse,     // Wire bytes -> Request (Deserialize).
  kLockWait,       // ObjectStore shard lock acquisition.
  kStore,          // Hashtable work under the shard lock.
  kWalAppend,      // WAL record encode + buffered write.
  kFsyncWait,      // Group-commit wait: leader fsync or follower block.
  kRespSerialize,  // Response -> wire bytes.
  kSocketWrite,    // SendFrame back to the client.
  // Client-side op phases.
  kRenderEncrypt,  // Path render + metadata/data encode (AEAD seal).
  kDecryptVerify,  // Block decode: AEAD open + signature/Merkle verify.
  kStageFlush,     // Write-behind stage flush (batch build + issue).
  kWireWait,       // Blocked in Channel::Call (network + server + retry).
};
inline constexpr size_t kNumPhases = 12;

/// Short stable identifier used in JSON and logs ("fsync_wait", ...).
const char* PhaseName(Phase p);

/// A completed span, decoded from the collector (or returned by
/// SpanTimeline::Finish). Durations are exclusive per phase; their sum
/// equals total_us up to microsecond rounding (one truncation per
/// phase), which is what makes attribution trustworthy.
struct SpanRecord {
  uint64_t trace_id = 0;
  const char* op = "";  // Static-storage opcode / op name.
  uint8_t attempt = 0;
  char kind = '?';  // 'C' = client op span, 'S' = server request span.
  uint64_t end_unix_us = 0;  // Wall clock at Finish (for operators).
  uint64_t total_us = 0;
  uint32_t phase_us[kNumPhases] = {};

  /// Sum over all phases including the kOp remainder (== total_us
  /// modulo per-phase truncation; the span_test pins the bound).
  uint64_t PhaseSumUs() const;
  std::string ToJson() const;
};

/// One request's in-flight timeline. Start() installs it as the calling
/// thread's ambient phase sink; Finish() computes the exclusive phase
/// durations, uninstalls it, publishes to SpanCollector::Global() and
/// returns the record. Not thread-safe: a timeline lives and dies on
/// one thread (Start/PhaseScopes/Finish must be LIFO on that thread).
class SpanTimeline {
 public:
  SpanTimeline() = default;
  SpanTimeline(const SpanTimeline&) = delete;
  SpanTimeline& operator=(const SpanTimeline&) = delete;

  void Start(uint64_t trace_id, const char* op, uint8_t attempt, char kind);
  bool started() const { return started_; }
  uint64_t trace_id() const { return trace_id_; }

  /// Charges `ns` to phase `p` out-of-band and widens the span to
  /// include it (for work measured before Start could run, e.g. frame
  /// parse: the trace id is only known once the frame is parsed).
  void AddPhaseNs(Phase p, uint64_t ns);

  /// Closes the span: charges the tail to the innermost phase,
  /// uninstalls the thread-local sink, publishes, returns the record.
  SpanRecord Finish();

 private:
  friend class PhaseScope;

  uint64_t phase_ns_[kNumPhases] = {};
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point checkpoint_;
  uint64_t extra_ns_ = 0;  // AddPhaseNs widening, added to total.
  uint64_t trace_id_ = 0;
  const char* op_ = "";
  uint8_t attempt_ = 0;
  char kind_ = '?';
  Phase current_ = Phase::kOp;
  bool started_ = false;
};

/// RAII phase marker. Cheap no-op when the thread has no active
/// timeline or when `p` is already the open phase (nested same-phase
/// scopes attribute identically, so they skip the clock); otherwise two
/// clock reads (enter/exit) and exclusive-time bookkeeping against the
/// enclosing phase. Scopes nest arbitrarily.
class PhaseScope {
 public:
  explicit PhaseScope(Phase p);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  SpanTimeline* tl_;  // Null = inactive scope.
  Phase prev_ = Phase::kOp;
};

/// Threshold above which a finished span is captured into the slow
/// ring. 0 disables ring capture (the N-slowest table still updates).
/// Defaults to 10000 (10 ms); set by `sharoes_sspd --slow-request-us`.
uint64_t SlowRequestThresholdUs();
void SetSlowRequestThresholdUs(uint64_t us);

/// Lock-free capture of slow spans: a kRingSlots ring of the most
/// recent threshold-crossers plus a kSlowestSlots table of the slowest
/// ever seen. Publish is wait-free for the ring (a same-slot wrap race
/// drops the newcomer) and lock-free for the slowest table; Snapshot
/// uses bounded seqlock retries and never blocks a writer.
class SpanCollector {
 public:
  static constexpr size_t kRingSlots = 64;
  static constexpr size_t kSlowestSlots = 8;
  // Atomic u64 words per encoded record; see span.cc for the layout.
  static constexpr size_t kWordsPerRecord = 11;

  static SpanCollector& Global();

  SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  void Publish(const SpanRecord& rec);

  struct Snapshot {
    std::vector<SpanRecord> slow;     // Ring contents, unordered.
    std::vector<SpanRecord> slowest;  // Slowest-ever table.
  };
  Snapshot Snap() const;

  /// {"slow_threshold_us":...,"slow":[span...],"slowest":[span...]}
  /// — the kGetTraces payload.
  std::string ToJson() const;

  /// Clears all slots (benchmarks drop their setup-phase spans).
  void Reset();

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // Even = stable, odd = mid-write.
    std::atomic<uint64_t> words[kWordsPerRecord] = {};
  };

  static void WriteSlot(Slot& slot, const SpanRecord& rec);
  static bool ReadSlot(const Slot& slot, SpanRecord* out);

  Slot ring_[kRingSlots];
  std::atomic<uint64_t> ring_head_{0};
  Slot slowest_[kSlowestSlots];
  // Fast-path claim values (total_us) so Publish can skip the table
  // without touching record words.
  std::atomic<uint64_t> slowest_claim_[kSlowestSlots] = {};
};

/// Server-side span arming. The transport (TcpSspDaemon) cannot start
/// the span itself — the trace id is inside the frame it hands to
/// HandleWire — but it *does* own the socket write that should be the
/// span's last phase. So the transport arms a frame-scoped slot before
/// dispatching, HandleWire activates it via BeginServerSpan once the
/// request is parsed (no-op when nothing is armed, which is how
/// in-process Handle callers stay span-free), and the frame destructor
/// finishes + publishes after the response bytes hit the socket.
class ServerSpanFrame {
 public:
  ServerSpanFrame();
  ~ServerSpanFrame();
  ServerSpanFrame(const ServerSpanFrame&) = delete;
  ServerSpanFrame& operator=(const ServerSpanFrame&) = delete;

 private:
  friend void BeginServerSpan(uint64_t, const char*, uint8_t, uint64_t);
  SpanTimeline tl_;
  ServerSpanFrame* prev_;
};

/// True when a ServerSpanFrame is armed on this thread (lets HandleWire
/// skip the pre-parse clock read entirely for in-process callers).
bool ServerSpanArmed();

/// True when some timeline is installed as this thread's phase sink
/// (outermost-wins nesting checks in ClientSpan / BeginServerSpan).
bool TimelineActive();

/// Starts the armed frame's timeline (no-op without an armed frame, a
/// zero trace id, metrics disabled, or another active timeline on this
/// thread — the latter keeps in-process client+server setups sane).
/// `parse_ns` back-charges the Deserialize cost measured before the
/// trace id was known.
void BeginServerSpan(uint64_t trace_id, const char* op, uint8_t attempt,
                     uint64_t parse_ns);

/// Scoped override of the ambient TraceContext from a server request
/// envelope, so log lines, histogram exemplars and span phases emitted
/// while handling it (including kBatch sub-ops) join the caller's
/// trace. No-op when trace_id is 0.
class ScopedTraceContext {
 public:
  ScopedTraceContext(uint64_t trace_id, uint8_t attempt);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  uint64_t prev_trace_ = 0;
  uint8_t prev_attempt_ = 0;
  bool restore_ = false;
};

}  // namespace sharoes::obs

#endif  // SHAROES_OBS_SPAN_H_
