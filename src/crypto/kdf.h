// Key derivation for exec-only directory rows (paper §III-A).
//
// "This new key is derived by using a keyed hash function like MD5 or
//  SHA1 with DEK_this as the key and taking the hash of the name."
// We use HMAC-SHA-256 truncated to the AES key size.

#ifndef SHAROES_CRYPTO_KDF_H_
#define SHAROES_CRYPTO_KDF_H_

#include <string_view>

#include "crypto/keys.h"

namespace sharoes::crypto::kdf {

/// Derives the per-row key H_DEK(name).
SymmetricKey DeriveNameKey(const SymmetricKey& dek, std::string_view name);

/// Generic labelled derivation (used for the exec-only row ids of a
/// directory table): 16 bytes of HMAC(base, label).
SymmetricKey DeriveLabeled(const SymmetricKey& base, std::string_view label);

}  // namespace sharoes::crypto::kdf

#endif  // SHAROES_CRYPTO_KDF_H_
