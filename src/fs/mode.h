// *nix permission bits and access kinds (paper §III).

#ifndef SHAROES_FS_MODE_H_
#define SHAROES_FS_MODE_H_

#include <cstdint>
#include <string>

namespace sharoes::fs {

/// The three *nix access kinds.
enum class Access : uint8_t {
  kRead = 4,
  kWrite = 2,
  kExec = 1,
};

/// A 9-bit *nix mode (rwxrwxrwx for owner/group/others). Stored exactly
/// like the low 9 bits of a POSIX st_mode.
class Mode {
 public:
  constexpr Mode() = default;
  constexpr explicit Mode(uint16_t bits) : bits_(bits & 0777) {}

  /// Parses "rwxr-x--x" (9 chars). Returns false on malformed input.
  static bool Parse(const std::string& s, Mode* out);
  /// Octal convenience, e.g. Mode::FromOctal(0751).
  static constexpr Mode FromOctal(uint16_t octal) { return Mode(octal); }

  uint16_t bits() const { return bits_; }
  /// 3-bit rwx triple for owner (0), group (1), others (2).
  uint8_t ClassBits(int cls) const {
    return static_cast<uint8_t>((bits_ >> (6 - 3 * cls)) & 7);
  }

  bool OwnerHas(Access a) const { return ClassHas(0, a); }
  bool GroupHas(Access a) const { return ClassHas(1, a); }
  bool OtherHas(Access a) const { return ClassHas(2, a); }
  bool ClassHas(int cls, Access a) const {
    return (ClassBits(cls) & static_cast<uint8_t>(a)) != 0;
  }

  /// "rwxr-x--x" form.
  std::string ToString() const;

  bool operator==(const Mode&) const = default;

 private:
  uint16_t bits_ = 0;
};

/// The rwx triple of one permission class, as used by CAP design:
/// values 0..7 (r=4, w=2, x=1).
using PermTriple = uint8_t;

inline std::string PermTripleToString(PermTriple t) {
  std::string s;
  s += (t & 4) ? 'r' : '-';
  s += (t & 2) ? 'w' : '-';
  s += (t & 1) ? 'x' : '-';
  return s;
}

}  // namespace sharoes::fs

#endif  // SHAROES_FS_MODE_H_
