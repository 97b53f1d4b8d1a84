// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for: content hashes that get signed (data/metadata integrity), the
// HMAC underlying exec-only row-key derivation, key fingerprints, and the
// blob digests of conditional gets (ssp::BlobDigest).
//
// The compression function has a portable path and a SHA-NI path picked
// at runtime by CPUID, in the style of crypto/aes_accel.h: the SHA-NI
// function is compiled with a per-function target attribute, so the build
// needs no global flags and the binary runs on CPUs without the
// extensions. Both are cross-checked byte-for-byte
// (tests/crypto/sha256_test.cc and `bench_crypto --self-check`).

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
  /// Compresses `n` whole blocks into state_.
  void ProcessBlocks(const uint8_t* data, size_t n);

  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, kSha256BlockSize> buffer_;
  size_t buffer_len_ = 0;
};

/// One-shot convenience.
Bytes Sha256Digest(const Bytes& data);

/// True iff the CPU has SHA-NI and SSE4.1 (probed once, cached).
bool Sha256AccelAvailable();
/// True iff Sha256 compresses through SHA-NI right now: available and
/// not pinned to the portable path.
bool Sha256AccelActive();
/// Pins the portable compression (`true`; cross-checks, benchmarks) or
/// returns to runtime dispatch (`false`). Thread-safe.
void ForceSha256Portable(bool portable);

}  // namespace sharoes::crypto

#endif  // SHAROES_CRYPTO_SHA256_H_
