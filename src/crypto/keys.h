// Key types and the CryptoEngine.
//
// SHAROES key taxonomy (paper §II):
//   - DEK / MEK : 128-bit AES keys encrypting a data block / metadata
//     object (SymmetricKey).
//   - DSK / MSK : signing keys; DVK / MVK the matching verification keys.
//     The paper recommends ESIGN for these ("over an order of magnitude
//     faster" than RSA). We substitute RSA signatures functionally and
//     charge ESIGN-calibrated virtual costs.
//   - User / group identity keys: 2048-bit RSA pairs (RsaKeyPair).
//
// All cryptographic operations on the simulated timeline flow through the
// CryptoEngine, which (a) really executes the primitive and (b) charges a
// virtual cost to the shared SimClock. Costs come from a CryptoCostModel
// calibrated to the paper's Pentium-4 1 GHz client, or — in kMeasured
// mode — from the actual wall-clock duration of the primitive.

#ifndef SHAROES_CRYPTO_KEYS_H_
#define SHAROES_CRYPTO_KEYS_H_

#include <deque>
#include <memory>
#include <string_view>

#include "crypto/rsa.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace sharoes::crypto {

/// A 128-bit AES key (DEK or MEK).
struct SymmetricKey {
  Bytes key;  // 16 bytes.

  bool empty() const { return key.empty(); }
  bool operator==(const SymmetricKey& o) const { return key == o.key; }
  Bytes Serialize() const { return key; }
  static Result<SymmetricKey> Deserialize(const Bytes& b);
};

/// Verification half of a signing pair (DVK or MVK).
struct VerifyKey {
  RsaPublicKey pub;

  bool empty() const { return pub.n.IsZero(); }
  Bytes Serialize() const { return pub.Serialize(); }
  static Result<VerifyKey> Deserialize(const Bytes& b);
  bool operator==(const VerifyKey& o) const { return pub == o.pub; }
};

/// Signing half of a signing pair (DSK or MSK).
struct SigningKey {
  RsaPrivateKey priv;

  bool empty() const { return priv.n.IsZero(); }
  Bytes Serialize() const { return priv.Serialize(); }
  static Result<SigningKey> Deserialize(const Bytes& b);
};

struct SigningKeyPair {
  SigningKey sign;
  VerifyKey verify;
};

/// Virtual-time prices for each primitive, calibrated to the paper's
/// client hardware (Pentium-4 1 GHz laptop; 128-bit AES, 2048-bit RSA,
/// ESIGN-class signatures).
struct CryptoCostModel {
  double aes_mb_per_s = 40.0;     // Symmetric bulk throughput.
  double sha_mb_per_s = 80.0;     // Hash throughput.
  double sym_setup_ms = 0.02;     // Key schedule + IV handling per call.
  double rsa_public_ms = 15.0;    // Per 2048-bit public-key block op.
  double rsa_private_ms = 270.0;  // Per 2048-bit private-key block op.
  double sign_ms = 2.0;           // ESIGN-class signature.
  double verify_ms = 2.0;         // ESIGN-class verification.
  double sign_keygen_ms = 2.0;    // ESIGN-class key generation.

  /// The default paper-calibrated model.
  static CryptoCostModel PaperCalibrated() { return CryptoCostModel(); }
  /// All-zero model for functional tests that only care about behaviour.
  static CryptoCostModel Zero();
};

/// How the engine charges the SimClock.
enum class ChargePolicy {
  kCalibrated,  // Charge CryptoCostModel prices (paper reproduction mode).
  kMeasured,    // Charge actual wall-clock duration of each primitive.
};

/// Bits of the RSA substitute for ESIGN-class signing keys. Small to keep
/// real key generation cheap; the *virtual* cost charged is
/// sign_keygen_ms regardless.
inline constexpr size_t kSigningKeyBits = 512;

/// Options controlling the engine.
struct CryptoEngineOptions {
  CryptoCostModel cost_model = CryptoCostModel::PaperCalibrated();
  ChargePolicy charge_policy = ChargePolicy::kCalibrated;
  /// If > 0, signing key pairs are served from a pool of this many
  /// distinct pre-generated pairs, cycling after exhaustion. This keeps
  /// wall-clock time of large benchmarks low; virtual keygen cost is
  /// still charged per request. Use 0 (always-fresh) for security tests.
  size_t signing_key_pool = 0;
  uint64_t rng_seed = 0;  // 0 = nondeterministic.
};

/// Executes crypto primitives and charges their virtual cost.
///
/// Thread-compatible; one engine per client.
class CryptoEngine {
 public:
  CryptoEngine(SimClock* clock, const CryptoEngineOptions& options);

  // --- Symmetric (AES-128-CTR) ---
  SymmetricKey NewSymmetricKey();
  /// Seals plaintext as [iv || ctr-ciphertext]; charges AES cost.
  Bytes SymEncrypt(const SymmetricKey& key, const Bytes& plaintext);
  /// Opens a seal; Status::CryptoError on malformed envelope.
  Result<Bytes> SymDecrypt(const SymmetricKey& key, const Bytes& sealed);

  // --- AEAD (AES-128-GCM, data blocks) ---
  /// A sealed block: fresh nonce, same-length ciphertext, 16-byte tag
  /// authenticating ciphertext + the caller's associated data.
  struct AeadSealed {
    Bytes nonce;
    Bytes ciphertext;
    Bytes tag;
  };
  /// Counts/charges as a symmetric encryption (identical bulk cost to
  /// SymEncrypt, so the paper-calibrated Figure-8/13 numbers are
  /// unchanged — the tag math rides within the same charge).
  AeadSealed AeadSeal(const SymmetricKey& key, const Bytes& aad,
                      const Bytes& plaintext);
  /// Counts/charges as a symmetric decryption. Status::Corruption when
  /// the tag does not authenticate (ciphertext, aad, nonce).
  Result<Bytes> AeadOpen(const SymmetricKey& key, const Bytes& aad,
                         const Bytes& nonce, const Bytes& ciphertext,
                         const Bytes& tag);

  // --- Derivation ---
  /// H_DEK(name): derives the per-row key for exec-only directory tables
  /// (paper §III-A) from the directory's DEK and the child's name.
  SymmetricKey DeriveNameKey(const SymmetricKey& dek, std::string_view name);

  // --- ESIGN-class signatures (DSK/DVK, MSK/MVK) ---
  SigningKeyPair NewSigningKeyPair();
  Bytes Sign(const SigningKey& key, const Bytes& message);
  bool Verify(const VerifyKey& key, const Bytes& message, const Bytes& sig);

  // --- RSA-2048 (user/group identity keys) ---
  RsaKeyPair NewUserKeyPair(size_t bits = 2048);
  /// Multi-block public-key encryption; charges rsa_public per block.
  Result<Bytes> PkEncrypt(const RsaPublicKey& pub, const Bytes& msg);
  /// Charges rsa_private per block.
  Result<Bytes> PkDecrypt(const RsaPrivateKey& priv, const Bytes& ct);

  Rng& rng() { return rng_; }
  SimClock* clock() { return clock_; }
  const CryptoCostModel& cost_model() const { return options_.cost_model; }

  /// Count of primitive invocations (used by tests that pin down the
  /// paper's Figure-8 cost table).
  struct OpCounts {
    uint64_t sym_encrypt = 0;
    uint64_t sym_decrypt = 0;
    uint64_t sign = 0;
    uint64_t verify = 0;
    uint64_t pk_encrypt_blocks = 0;
    uint64_t pk_decrypt_blocks = 0;
    uint64_t keygen = 0;
  };
  const OpCounts& op_counts() const { return counts_; }
  void ResetOpCounts() { counts_ = OpCounts(); }

 private:
  void ChargeBulk(size_t bytes, double mb_per_s, double setup_ms);
  void ChargeFixed(double ms);
  /// Runs `fn` and, in kMeasured mode, charges its wall-clock duration.
  template <typename Fn>
  auto Measured(double calibrated_ms, Fn&& fn);

  SimClock* clock_;  // Not owned; may be null (no charging).
  CryptoEngineOptions options_;
  Rng rng_;
  std::deque<SigningKeyPair> pool_;
  size_t pool_next_ = 0;
  OpCounts counts_;
};

}  // namespace sharoes::crypto

#endif  // SHAROES_CRYPTO_KEYS_H_
