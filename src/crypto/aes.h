// AES-128 block cipher (FIPS 197), implemented from scratch.
//
// The paper uses 128-bit AES for all symmetric encryption (DEK, MEK) per
// the NIST SP 800-78 parameter set. This file provides the raw block
// transform; crypto/ctr.h builds the stream mode used for data, metadata
// and directory-table encryption.

#ifndef SHAROES_CRYPTO_AES_H_
#define SHAROES_CRYPTO_AES_H_

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace sharoes::crypto {

constexpr size_t kAesBlockSize = 16;
constexpr size_t kAes128KeySize = 16;

/// AES-128 with a fixed expanded key schedule.
///
/// Thread-compatible: const methods may be called concurrently.
class Aes128 {
 public:
  /// `key` must be exactly kAes128KeySize bytes.
  explicit Aes128(const Bytes& key);

  /// Encrypts one 16-byte block (out may alias in).
  void EncryptBlock(const uint8_t in[kAesBlockSize],
                    uint8_t out[kAesBlockSize]) const;

 private:
  // 11 round keys x 16 bytes.
  std::array<uint8_t, 176> round_keys_;
};

}  // namespace sharoes::crypto

#endif  // SHAROES_CRYPTO_AES_H_
