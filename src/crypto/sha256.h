// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for: content hashes that get signed (data/metadata integrity), the
// HMAC underlying exec-only row-key derivation, and key fingerprints.

#ifndef SHAROES_CRYPTO_SHA256_H_
#define SHAROES_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace sharoes::crypto {

constexpr size_t kSha256DigestSize = 32;
constexpr size_t kSha256BlockSize = 64;

/// Incremental SHA-256 hasher.
///
/// Example:
///   Sha256 h;
///   h.Update(part1);
///   h.Update(part2);
///   Bytes digest = h.Finish();
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finalizes and returns the 32-byte digest. The hasher must be Reset()
  /// before reuse.
  Bytes Finish();

 private:
  void ProcessBlock(const uint8_t* block);

  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, kSha256BlockSize> buffer_;
  size_t buffer_len_ = 0;
};

/// One-shot convenience.
Bytes Sha256Digest(const Bytes& data);

}  // namespace sharoes::crypto

#endif  // SHAROES_CRYPTO_SHA256_H_
