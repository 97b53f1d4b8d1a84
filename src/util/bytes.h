// Byte-buffer helpers shared across the codebase.

#ifndef SHAROES_UTIL_BYTES_H_
#define SHAROES_UTIL_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sharoes {

/// The universal owning byte container in SHAROES.
using Bytes = std::vector<uint8_t>;

/// Builds a Bytes from a string's raw contents.
Bytes ToBytes(std::string_view s);

/// Interprets a byte buffer as a string (lossless; bytes may be non-ASCII).
std::string ToString(const Bytes& b);

/// Lowercase hex encoding, e.g. {0xde, 0xad} -> "dead".
std::string HexEncode(const Bytes& b);

/// Decodes lowercase/uppercase hex; returns empty on malformed input with
/// `ok` (if provided) set to false.
Bytes HexDecode(std::string_view hex, bool* ok = nullptr);

/// Constant-time equality for secrets (avoids timing side channels; also
/// simply correct for comparing MACs/signatures). Every comparison of a
/// secret-derived digest — HMAC, AEAD tag, signature block, derived row
/// id — must go through here, never Bytes::operator==.
bool ConstantTimeEquals(const Bytes& a, const Bytes& b);

/// Appends `src` to `dst`.
void Append(Bytes& dst, const Bytes& src);

}  // namespace sharoes

#endif  // SHAROES_UTIL_BYTES_H_
