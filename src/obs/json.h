// Minimal JSON emission for the observability layer (zero-dependency).
//
// Only what snapshots and structured log lines need: objects, string /
// unsigned / double values, and correct escaping. Emission only — the
// repo never *parses* JSON (the stats RPC payload is consumed by
// operators and CI scripts, not by the system itself).

#ifndef SHAROES_OBS_JSON_H_
#define SHAROES_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace sharoes::obs {

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
void AppendJsonString(std::string* out, std::string_view s);

/// Streams one JSON object: Key(...) then a value, repeated. Nested
/// objects open with BeginObject(key)/EndObject. Keys are emitted in
/// call order; the writer inserts commas and braces.
class JsonObjectWriter {
 public:
  JsonObjectWriter() { out_.push_back('{'); }

  void Field(std::string_view key, std::string_view value);
  // Without this overload a string literal would prefer the standard
  // const char* -> bool conversion over string_view and emit true/false.
  void Field(std::string_view key, const char* value) {
    Field(key, std::string_view(value));
  }
  void Field(std::string_view key, uint64_t value);
  void Field(std::string_view key, double value);
  void Field(std::string_view key, bool value);
  /// Emits `raw` verbatim as the value (caller guarantees valid JSON).
  void RawField(std::string_view key, std::string_view raw);
  void BeginObject(std::string_view key);
  void EndObject();

  /// Closes the root object and returns the document.
  std::string Take();

 private:
  void Key(std::string_view key);

  std::string out_;
  bool need_comma_ = false;
  int depth_ = 1;
};

}  // namespace sharoes::obs

#endif  // SHAROES_OBS_JSON_H_
