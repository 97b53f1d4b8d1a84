// Structured logging: JSON-lines with severity and rate limiting.
//
// One line per event, machine-joinable: every line carries a wall-clock
// timestamp, severity, event name, and caller-provided fields (notably
// "trace" + "attempt" on the SSP serving path, which join a server-side
// error to the client op and retry attempt that caused it — see
// obs/trace.h). Lines go to stderr by default; tests install a capture
// callback. A token-bucket limiter caps lines per second so a fault
// storm cannot melt the daemon's stderr; drops are counted in the
// registry counter "obs.log.dropped".
//
// Severity floor comes from SHAROES_LOG (off|error|warn|info|debug,
// default warn) and can be overridden at runtime.

#ifndef SHAROES_OBS_LOG_H_
#define SHAROES_OBS_LOG_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

namespace sharoes::obs {

enum class Severity : uint8_t { kDebug = 0, kInfo, kWarn, kError, kOff };

std::string_view SeverityName(Severity sev);

/// One key/value in a log line; value is a string or an unsigned int.
struct LogField {
  LogField(std::string_view key, std::string_view value)
      : key(key), str(value), is_str(true) {}
  LogField(std::string_view key, const char* value)
      : key(key), str(value), is_str(true) {}
  LogField(std::string_view key, uint64_t value) : key(key), num(value) {}
  LogField(std::string_view key, uint32_t value) : key(key), num(value) {}
  LogField(std::string_view key, int value)
      : key(key), num(static_cast<uint64_t>(value)) {}

  std::string_view key;
  std::string_view str;
  uint64_t num = 0;
  bool is_str = false;
};

/// Emits one JSON line if `sev` clears the floor and the rate limiter
/// admits it. Thread-safe.
void Log(Severity sev, std::string_view event,
         std::initializer_list<LogField> fields);

/// True iff a Log() at `sev` would be emitted (cheap pre-check so hot
/// paths can skip building fields).
bool LogEnabled(Severity sev);

/// Max lines admitted per second (default 200); 0 = unlimited.
void SetLogRateLimit(uint32_t lines_per_second);

/// Test hook: capture lines instead of writing stderr (nullptr
/// restores stderr). The callback runs under the log mutex — keep it
/// trivial.
void SetLogSinkForTest(std::function<void(const std::string&)> sink);

}  // namespace sharoes::obs

#endif  // SHAROES_OBS_LOG_H_
