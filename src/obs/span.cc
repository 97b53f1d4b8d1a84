#include "obs/span.h"

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sharoes::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// The thread's innermost active timeline (the PhaseScope sink).
thread_local SpanTimeline* t_active_timeline = nullptr;
/// The thread's armed server frame, if any (see ServerSpanFrame).
thread_local ServerSpanFrame* t_server_frame = nullptr;

std::atomic<uint64_t> g_slow_threshold_us{10000};  // 10 ms.

uint64_t NowUnixUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// Encoded record layout (SpanCollector::kWordsPerRecord atomic words).
// The op name is stored as a pointer: every op string handed to a
// timeline is static storage (OpCodeName / client op literals), so the
// pointer stays valid for the life of the process and the collector
// never owns memory — which is what keeps slots all-atomic.
//   w0   trace_id
//   w1   op (const char*, static storage)
//   w2   kind (low 8) | attempt (next 8)
//   w3   end_unix_us
//   w4   total_us
//   w5+  phase_us pairs: word i holds phases 2i (low 32) / 2i+1 (high)
constexpr size_t kPhaseWords = (kNumPhases + 1) / 2;
static_assert(SpanCollector::kWordsPerRecord == 5 + kPhaseWords);

}  // namespace

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kOp:
      return "op";
    case Phase::kFrameParse:
      return "frame_parse";
    case Phase::kLockWait:
      return "lock_wait";
    case Phase::kStore:
      return "store";
    case Phase::kWalAppend:
      return "wal_append";
    case Phase::kFsyncWait:
      return "fsync_wait";
    case Phase::kRespSerialize:
      return "resp_serialize";
    case Phase::kSocketWrite:
      return "socket_write";
    case Phase::kRenderEncrypt:
      return "render_encrypt";
    case Phase::kDecryptVerify:
      return "decrypt_verify";
    case Phase::kStageFlush:
      return "stage_flush";
    case Phase::kWireWait:
      return "wire_wait";
  }
  return "unknown";
}

uint64_t SpanRecord::PhaseSumUs() const {
  uint64_t sum = 0;
  for (size_t i = 0; i < kNumPhases; ++i) sum += phase_us[i];
  return sum;
}

std::string SpanRecord::ToJson() const {
  JsonObjectWriter w;
  w.Field("trace", TraceIdHex(trace_id));
  w.Field("op", op);
  w.Field("kind", kind == 'S' ? "server" : "client");
  w.Field("attempt", static_cast<uint64_t>(attempt));
  w.Field("end_unix_us", end_unix_us);
  w.Field("total_us", total_us);
  w.BeginObject("phases");
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (phase_us[i] == 0) continue;
    w.Field(PhaseName(static_cast<Phase>(i)), uint64_t{phase_us[i]});
  }
  w.EndObject();
  w.Field("phase_sum_us", PhaseSumUs());
  return w.Take();
}

void SpanTimeline::Start(uint64_t trace_id, const char* op, uint8_t attempt,
                         char kind) {
  for (size_t i = 0; i < kNumPhases; ++i) phase_ns_[i] = 0;
  extra_ns_ = 0;
  trace_id_ = trace_id;
  op_ = op;
  attempt_ = attempt;
  kind_ = kind;
  current_ = Phase::kOp;
  started_ = true;
  start_ = checkpoint_ = Clock::now();
  t_active_timeline = this;
}

void SpanTimeline::AddPhaseNs(Phase p, uint64_t ns) {
  phase_ns_[static_cast<size_t>(p)] += ns;
  extra_ns_ += ns;
}

SpanRecord SpanTimeline::Finish() {
  Clock::time_point now = Clock::now();
  phase_ns_[static_cast<size_t>(current_)] +=
      static_cast<uint64_t>((now - checkpoint_).count());
  uint64_t total_ns =
      static_cast<uint64_t>((now - start_).count()) + extra_ns_;
  started_ = false;
  if (t_active_timeline == this) t_active_timeline = nullptr;

  SpanRecord rec;
  rec.trace_id = trace_id_;
  rec.op = op_;
  rec.attempt = attempt_;
  rec.kind = kind_;
  rec.end_unix_us = NowUnixUs();
  rec.total_us = total_ns / 1000;
  for (size_t i = 0; i < kNumPhases; ++i) {
    rec.phase_us[i] = static_cast<uint32_t>(phase_ns_[i] / 1000);
  }
  if (rec.trace_id != 0) SpanCollector::Global().Publish(rec);
  return rec;
}

PhaseScope::PhaseScope(Phase p) : tl_(t_active_timeline) {
  if (tl_ == nullptr) return;
  if (tl_->current_ == p) {
    // Re-entering the phase that is already open (per-block codec calls
    // nested inside a per-object scope): elapsed time keeps accruing to
    // the same phase either way, so skip the clock reads entirely.
    tl_ = nullptr;
    return;
  }
  Clock::time_point now = Clock::now();
  tl_->phase_ns_[static_cast<size_t>(tl_->current_)] +=
      static_cast<uint64_t>((now - tl_->checkpoint_).count());
  prev_ = tl_->current_;
  tl_->current_ = p;
  tl_->checkpoint_ = now;
}

PhaseScope::~PhaseScope() {
  if (tl_ == nullptr) return;
  Clock::time_point now = Clock::now();
  tl_->phase_ns_[static_cast<size_t>(tl_->current_)] +=
      static_cast<uint64_t>((now - tl_->checkpoint_).count());
  tl_->current_ = prev_;
  tl_->checkpoint_ = now;
}

uint64_t SlowRequestThresholdUs() {
  return g_slow_threshold_us.load(std::memory_order_relaxed);
}

void SetSlowRequestThresholdUs(uint64_t us) {
  g_slow_threshold_us.store(us, std::memory_order_relaxed);
}

SpanCollector& SpanCollector::Global() {
  static SpanCollector* collector = new SpanCollector();  // Never dies.
  return *collector;
}

SpanCollector::SpanCollector() = default;

void SpanCollector::WriteSlot(Slot& slot, const SpanRecord& rec) {
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if (seq & 1) return;  // Another writer mid-flight: drop the newcomer.
  if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    return;
  }
  slot.words[0].store(rec.trace_id, std::memory_order_relaxed);
  slot.words[1].store(reinterpret_cast<uint64_t>(rec.op),
                      std::memory_order_relaxed);
  slot.words[2].store(static_cast<uint64_t>(static_cast<uint8_t>(rec.kind)) |
                          (static_cast<uint64_t>(rec.attempt) << 8),
                      std::memory_order_relaxed);
  slot.words[3].store(rec.end_unix_us, std::memory_order_relaxed);
  slot.words[4].store(rec.total_us, std::memory_order_relaxed);
  for (size_t i = 0; i < kPhaseWords; ++i) {
    uint64_t lo = rec.phase_us[2 * i];
    uint64_t hi = (2 * i + 1 < kNumPhases) ? rec.phase_us[2 * i + 1] : 0;
    slot.words[5 + i].store(lo | (hi << 32), std::memory_order_relaxed);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
}

bool SpanCollector::ReadSlot(const Slot& slot, SpanRecord* out) {
  for (int tries = 0; tries < 4; ++tries) {
    uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // Mid-write; retry.
    uint64_t w[kWordsPerRecord];
    for (size_t i = 0; i < kWordsPerRecord; ++i) {
      w[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    // Order the validation read after the payload loads (seqlock recipe;
    // the payload words are themselves atomic, so this is about blend
    // detection, not data races).
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
    if (s1 != s2) continue;  // Torn by a concurrent writer; retry.
    if (w[0] == 0) return false;  // Never written.
    out->trace_id = w[0];
    out->op = reinterpret_cast<const char*>(w[1]);
    out->kind = static_cast<char>(w[2] & 0xff);
    out->attempt = static_cast<uint8_t>((w[2] >> 8) & 0xff);
    out->end_unix_us = w[3];
    out->total_us = w[4];
    for (size_t i = 0; i < kPhaseWords; ++i) {
      out->phase_us[2 * i] = static_cast<uint32_t>(w[5 + i] & 0xffffffff);
      if (2 * i + 1 < kNumPhases) {
        out->phase_us[2 * i + 1] = static_cast<uint32_t>(w[5 + i] >> 32);
      }
    }
    return true;
  }
  return false;  // Persistently contended slot: skip it.
}

void SpanCollector::Publish(const SpanRecord& rec) {
  static Counter* finished =
      MetricsRegistry::Global().counter("obs.span.finished");
  static Counter* slow = MetricsRegistry::Global().counter("obs.span.slow");
  finished->Increment();

  uint64_t threshold = SlowRequestThresholdUs();
  if (threshold != 0 && rec.total_us >= threshold) {
    slow->Increment();
    size_t slot = static_cast<size_t>(
                      ring_head_.fetch_add(1, std::memory_order_relaxed)) %
                  kRingSlots;
    WriteSlot(ring_[slot], rec);
  }

  // Slowest-ever table: claim the current minimum slot if we beat it.
  // The claim CAS makes eviction monotone; the slot write afterwards is
  // seqlocked, so a reader either sees the old record or the new one.
  for (int attempt = 0; attempt < 2; ++attempt) {
    size_t min_i = 0;
    uint64_t min_v = slowest_claim_[0].load(std::memory_order_relaxed);
    for (size_t i = 1; i < kSlowestSlots; ++i) {
      uint64_t v = slowest_claim_[i].load(std::memory_order_relaxed);
      if (v < min_v) {
        min_v = v;
        min_i = i;
      }
    }
    if (rec.total_us <= min_v) break;
    if (slowest_claim_[min_i].compare_exchange_weak(
            min_v, rec.total_us, std::memory_order_relaxed)) {
      WriteSlot(slowest_[min_i], rec);
      break;
    }
  }
}

SpanCollector::Snapshot SpanCollector::Snap() const {
  Snapshot snap;
  SpanRecord rec;
  for (size_t i = 0; i < kRingSlots; ++i) {
    if (ReadSlot(ring_[i], &rec)) snap.slow.push_back(rec);
  }
  for (size_t i = 0; i < kSlowestSlots; ++i) {
    if (ReadSlot(slowest_[i], &rec)) snap.slowest.push_back(rec);
  }
  return snap;
}

std::string SpanCollector::ToJson() const {
  Snapshot snap = Snap();
  std::string out = "{\"slow_threshold_us\":";
  out += std::to_string(SlowRequestThresholdUs());
  out += ",\"slow\":[";
  for (size_t i = 0; i < snap.slow.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += snap.slow[i].ToJson();
  }
  out += "],\"slowest\":[";
  for (size_t i = 0; i < snap.slowest.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += snap.slowest[i].ToJson();
  }
  out += "]}";
  return out;
}

void SpanCollector::Reset() {
  for (size_t i = 0; i < kRingSlots; ++i) {
    for (size_t j = 0; j < kWordsPerRecord; ++j) {
      ring_[i].words[j].store(0, std::memory_order_relaxed);
    }
  }
  for (size_t i = 0; i < kSlowestSlots; ++i) {
    for (size_t j = 0; j < kWordsPerRecord; ++j) {
      slowest_[i].words[j].store(0, std::memory_order_relaxed);
    }
    slowest_claim_[i].store(0, std::memory_order_relaxed);
  }
  ring_head_.store(0, std::memory_order_relaxed);
}

ServerSpanFrame::ServerSpanFrame() : prev_(t_server_frame) {
  t_server_frame = this;
}

ServerSpanFrame::~ServerSpanFrame() {
  if (tl_.started()) tl_.Finish();
  t_server_frame = prev_;
}

bool ServerSpanArmed() { return t_server_frame != nullptr; }

bool TimelineActive() { return t_active_timeline != nullptr; }

void BeginServerSpan(uint64_t trace_id, const char* op, uint8_t attempt,
                     uint64_t parse_ns) {
  ServerSpanFrame* frame = t_server_frame;
  if (frame == nullptr || trace_id == 0 || !MetricsEnabled()) return;
  // Another timeline already active on this thread means client and
  // server share a process (in-process channel); the server phases
  // then nest inside the client op's span instead of starting one.
  if (t_active_timeline != nullptr) return;
  frame->tl_.Start(trace_id, op, attempt, 'S');
  frame->tl_.AddPhaseNs(Phase::kFrameParse, parse_ns);
}

ScopedTraceContext::ScopedTraceContext(uint64_t trace_id, uint8_t attempt) {
  if (trace_id == 0) return;
  TraceContext prev = CurrentTrace();
  prev_trace_ = prev.trace_id;
  prev_attempt_ = prev.attempt;
  restore_ = true;
  SetCurrentTrace(TraceContext{trace_id, attempt});
}

ScopedTraceContext::~ScopedTraceContext() {
  if (!restore_) return;
  SetCurrentTrace(TraceContext{prev_trace_, prev_attempt_});
}

}  // namespace sharoes::obs
