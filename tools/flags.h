// The flag table of sharoes_sspd and sharoes_cli: every flag a tool
// knows is named in it, a flag that takes a value must get one (an
// argument starting with "--" is not a value), and numbers parse whole
// and in range. The tools print ParseFlags' error and exit 1.

#ifndef SHAROES_TOOLS_FLAGS_H_
#define SHAROES_TOOLS_FLAGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>

namespace sharoes::tools {

/// Parses all of `text` as an integer in [0, max], written in `base`.
inline bool ParseUint(const char* text, uint64_t max, uint64_t* out,
                      int base = 10) {
  if (*text < '0' || *text > '9') return false;  // No sign, no blank.
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, base);
  if (errno != 0 || *end != '\0' || v > max) return false;
  *out = v;
  return true;
}

/// A flag's value parser: false rejects the value.
using FlagParser = std::function<bool(const char*)>;

/// A table entry: its value's parser, or for a switch (no value) the
/// action its presence takes, called with nullptr.
struct Flag {
  template <typename F>
  Flag(F parse, bool takes_value = true)
      : parse(std::move(parse)), takes_value(takes_value) {}
  FlagParser parse;
  bool takes_value;
};

template <typename T>
FlagParser UintFlag(T* field) {
  return [field](const char* text) {
    uint64_t v = 0;
    if (!ParseUint(text, std::numeric_limits<T>::max(), &v)) return false;
    *field = static_cast<T>(v);
    return true;
  };
}

inline FlagParser StringFlag(std::string* field) {
  return [field](const char* text) {
    *field = text;
    return true;
  };
}

inline Flag SwitchFlag(bool* field) {
  return Flag([field](const char*) { return *field = true; }, false);
}

/// Applies argv[1..argc) to `flags`; an argument not starting with "--"
/// goes to `positional`, which says what is wrong with it ("" = ok).
/// Returns the first error, or "".
inline std::string ParseFlags(
    int argc, char** argv, const std::map<std::string, Flag>& flags,
    const std::function<std::string(const char*)>& positional) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::string error = positional(argv[i]);
      if (!error.empty()) return error;
      continue;
    }
    auto flag = flags.find(arg);
    if (flag == flags.end()) return "unknown flag " + arg;
    if (!flag->second.takes_value) {
      flag->second.parse(nullptr);
      continue;
    }
    if (i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
      return arg + " needs a value";
    }
    ++i;
    if (!flag->second.parse(argv[i])) {
      return "bad value '" + std::string(argv[i]) + "' for " + arg;
    }
  }
  return "";
}

}  // namespace sharoes::tools

#endif  // SHAROES_TOOLS_FLAGS_H_
