// RSA: the public-key primitive of the paper (NIST SP 800-78 parameter
// set: 2048-bit keys). Used for
//   - per-user superblock encryption (in-band bootstrap, paper §III-C),
//   - group key distribution (paper §II-A),
//   - Scheme-2 split-point metadata (paper §III-D),
//   - the PUBLIC and PUB-OPT baselines (paper §V),
//   - DSK/DVK and MSK/MVK signatures (standing in for ESIGN; the cost
//     model charges ESIGN-calibrated prices, see crypto/keys.h).
//
// Padding is PKCS#1 v1.5 style (type 2 for encryption, type 1 with a
// SHA-256 DigestInfo for signatures). Private-key operations use the CRT.

#ifndef SHAROES_CRYPTO_RSA_H_
#define SHAROES_CRYPTO_RSA_H_

#include <string>

#include "crypto/bignum.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/result.h"

namespace sharoes::crypto {

struct RsaPublicKey {
  BigInt n;
  BigInt e;

  /// Modulus size in bytes (the RSA block size k).
  size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }
  /// Largest plaintext chunk an encryption block can carry (k - 11).
  size_t MaxMessageBytes() const { return ModulusBytes() - 11; }

  Bytes Serialize() const;
  static Result<RsaPublicKey> Deserialize(const Bytes& data);
  bool operator==(const RsaPublicKey& o) const { return n == o.n && e == o.e; }
};

struct RsaPrivateKey {
  BigInt n, e, d;
  // CRT components.
  BigInt p, q, dp, dq, qinv;

  RsaPublicKey PublicKey() const { return RsaPublicKey{n, e}; }
  size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }

  Bytes Serialize() const;
  static Result<RsaPrivateKey> Deserialize(const Bytes& data);
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generates a fresh key pair with a `bits`-bit modulus and e = 65537.
RsaKeyPair GenerateRsaKeyPair(size_t bits, Rng& rng);

/// Encrypts one chunk (<= MaxMessageBytes) into one k-byte block.
Result<Bytes> RsaEncryptBlock(const RsaPublicKey& pub, const Bytes& msg,
                              Rng& rng);
/// Decrypts one k-byte block.
Result<Bytes> RsaDecryptBlock(const RsaPrivateKey& priv, const Bytes& block);

/// Multi-block encryption of arbitrary-length messages (used by the
/// PUBLIC baseline, which RSA-encrypts entire metadata objects). Output is
/// a whole number of k-byte blocks; length framing is embedded.
Result<Bytes> RsaEncrypt(const RsaPublicKey& pub, const Bytes& msg, Rng& rng);
Result<Bytes> RsaDecrypt(const RsaPrivateKey& priv, const Bytes& ct);

/// Returns the number of k-byte RSA blocks RsaEncrypt will produce for a
/// message of `msg_len` bytes (cost-model input).
size_t RsaBlockCount(const RsaPublicKey& pub, size_t msg_len);

/// Signs SHA-256(msg) with PKCS#1 v1.5 type-1 padding.
Bytes RsaSign(const RsaPrivateKey& priv, const Bytes& msg);
/// Verifies a signature produced by RsaSign.
bool RsaVerify(const RsaPublicKey& pub, const Bytes& msg, const Bytes& sig);

}  // namespace sharoes::crypto

#endif  // SHAROES_CRYPTO_RSA_H_
