#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/json.h"
#include "obs/metrics.h"

namespace sharoes::obs {

namespace {

Severity SeverityFromEnv() {
  const char* env = std::getenv("SHAROES_LOG");
  if (env == nullptr) return Severity::kWarn;
  if (std::strcmp(env, "off") == 0) return Severity::kOff;
  if (std::strcmp(env, "error") == 0) return Severity::kError;
  if (std::strcmp(env, "warn") == 0) return Severity::kWarn;
  if (std::strcmp(env, "info") == 0) return Severity::kInfo;
  if (std::strcmp(env, "debug") == 0) return Severity::kDebug;
  return Severity::kWarn;
}

const Severity g_floor = SeverityFromEnv();
std::atomic<uint32_t> g_rate_limit{200};

std::mutex g_mu;  // Guards the sink, the limiter window, and emission.
std::function<void(const std::string&)>& Sink() {
  static std::function<void(const std::string&)>* sink =
      new std::function<void(const std::string&)>();
  return *sink;
}
int64_t g_window_start_s = -1;
uint32_t g_window_count = 0;

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string_view SeverityName(Severity sev) {
  switch (sev) {
    case Severity::kDebug:
      return "debug";
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
    case Severity::kOff:
      return "off";
  }
  return "unknown";
}

bool LogEnabled(Severity sev) { return sev >= g_floor; }

void SetLogRateLimit(uint32_t lines_per_second) {
  g_rate_limit.store(lines_per_second, std::memory_order_relaxed);
}

void SetLogSinkForTest(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(g_mu);
  Sink() = std::move(sink);
}

void Log(Severity sev, std::string_view event,
         std::initializer_list<LogField> fields) {
  if (!LogEnabled(sev)) return;
  uint64_t ts_us = NowMicros();

  JsonObjectWriter w;
  w.Field("ts_us", ts_us);
  w.Field("sev", SeverityName(sev));
  w.Field("event", event);
  for (const LogField& f : fields) {
    if (f.is_str) {
      w.Field(f.key, f.str);
    } else {
      w.Field(f.key, f.num);
    }
  }
  std::string line = w.Take();

  std::lock_guard<std::mutex> lock(g_mu);
  uint32_t limit = g_rate_limit.load(std::memory_order_relaxed);
  if (limit > 0) {
    int64_t now_s = static_cast<int64_t>(ts_us / 1000000);
    if (now_s != g_window_start_s) {
      g_window_start_s = now_s;
      g_window_count = 0;
    }
    if (++g_window_count > limit) {
      MetricsRegistry::Global().counter("obs.log.dropped")->Increment();
      return;
    }
  }
  if (Sink()) {
    Sink()(line);
  } else {
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), stderr);
  }
}

}  // namespace sharoes::obs
