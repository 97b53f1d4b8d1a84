#include "crypto/keys.h"

#include <chrono>

#include "crypto/aead.h"
#include "crypto/ctr.h"
#include "crypto/kdf.h"
#include "crypto/sha256.h"

namespace sharoes::crypto {

Result<SymmetricKey> SymmetricKey::Deserialize(const Bytes& b) {
  if (b.size() != kAes128KeySize) {
    return Status::Corruption("symmetric key must be 16 bytes");
  }
  return SymmetricKey{b};
}

Result<VerifyKey> VerifyKey::Deserialize(const Bytes& b) {
  SHAROES_ASSIGN_OR_RETURN(RsaPublicKey pub, RsaPublicKey::Deserialize(b));
  return VerifyKey{std::move(pub)};
}

Result<SigningKey> SigningKey::Deserialize(const Bytes& b) {
  SHAROES_ASSIGN_OR_RETURN(RsaPrivateKey priv, RsaPrivateKey::Deserialize(b));
  return SigningKey{std::move(priv)};
}

CryptoCostModel CryptoCostModel::Zero() {
  CryptoCostModel m;
  m.aes_mb_per_s = 0;  // 0 throughput => no bulk charge (see ChargeBulk).
  m.sha_mb_per_s = 0;
  m.sym_setup_ms = 0;
  m.rsa_public_ms = 0;
  m.rsa_private_ms = 0;
  m.sign_ms = 0;
  m.verify_ms = 0;
  m.sign_keygen_ms = 0;
  return m;
}

CryptoEngine::CryptoEngine(SimClock* clock, const CryptoEngineOptions& options)
    : clock_(clock),
      options_(options),
      rng_(options.rng_seed != 0 ? Rng(options.rng_seed) : Rng()) {}

void CryptoEngine::ChargeBulk(size_t bytes, double mb_per_s, double setup_ms) {
  if (clock_ == nullptr ||
      options_.charge_policy != ChargePolicy::kCalibrated) {
    return;
  }
  double ms = setup_ms;
  if (mb_per_s > 0) {
    ms += static_cast<double>(bytes) / (mb_per_s * 1e6) * 1e3;
  }
  clock_->AdvanceMs(ms, CostCategory::kCrypto);
}

void CryptoEngine::ChargeFixed(double ms) {
  if (clock_ == nullptr ||
      options_.charge_policy != ChargePolicy::kCalibrated) {
    return;
  }
  clock_->AdvanceMs(ms, CostCategory::kCrypto);
}

template <typename Fn>
auto CryptoEngine::Measured(double calibrated_ms, Fn&& fn) {
  if (clock_ != nullptr && options_.charge_policy == ChargePolicy::kMeasured) {
    auto start = std::chrono::steady_clock::now();
    auto result = fn();
    auto end = std::chrono::steady_clock::now();
    clock_->Advance(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count(),
        CostCategory::kCrypto);
    return result;
  }
  ChargeFixed(calibrated_ms);
  return fn();
}

SymmetricKey CryptoEngine::NewSymmetricKey() {
  return SymmetricKey{rng_.NextBytes(kAes128KeySize)};
}

Bytes CryptoEngine::SymEncrypt(const SymmetricKey& key,
                               const Bytes& plaintext) {
  ++counts_.sym_encrypt;
  const auto& m = options_.cost_model;
  if (options_.charge_policy == ChargePolicy::kMeasured) {
    return Measured(0, [&] { return CtrSeal(key.key, plaintext, rng_); });
  }
  ChargeBulk(plaintext.size(), m.aes_mb_per_s, m.sym_setup_ms);
  return CtrSeal(key.key, plaintext, rng_);
}

Result<Bytes> CryptoEngine::SymDecrypt(const SymmetricKey& key,
                                       const Bytes& sealed) {
  ++counts_.sym_decrypt;
  const auto& m = options_.cost_model;
  if (options_.charge_policy == ChargePolicy::kMeasured) {
    return Measured(0, [&] { return CtrOpen(key.key, sealed); });
  }
  ChargeBulk(sealed.size(), m.aes_mb_per_s, m.sym_setup_ms);
  return CtrOpen(key.key, sealed);
}

CryptoEngine::AeadSealed CryptoEngine::AeadSeal(const SymmetricKey& key,
                                                const Bytes& aad,
                                                const Bytes& plaintext) {
  ++counts_.sym_encrypt;
  const auto& m = options_.cost_model;
  AeadSealed out;
  out.nonce = FreshNonce(rng_);
  if (options_.charge_policy == ChargePolicy::kMeasured) {
    out.ciphertext = Measured(
        0, [&] { return GcmSeal(key.key, out.nonce, aad, plaintext,
                                &out.tag); });
  } else {
    ChargeBulk(plaintext.size(), m.aes_mb_per_s, m.sym_setup_ms);
    out.ciphertext = GcmSeal(key.key, out.nonce, aad, plaintext, &out.tag);
  }
  return out;
}

Result<Bytes> CryptoEngine::AeadOpen(const SymmetricKey& key,
                                     const Bytes& aad, const Bytes& nonce,
                                     const Bytes& ciphertext,
                                     const Bytes& tag) {
  ++counts_.sym_decrypt;
  const auto& m = options_.cost_model;
  if (options_.charge_policy == ChargePolicy::kMeasured) {
    return Measured(0,
                    [&] { return GcmOpen(key.key, nonce, aad, ciphertext,
                                         tag); });
  }
  ChargeBulk(ciphertext.size(), m.aes_mb_per_s, m.sym_setup_ms);
  return GcmOpen(key.key, nonce, aad, ciphertext, tag);
}

SymmetricKey CryptoEngine::DeriveNameKey(const SymmetricKey& dek,
                                         std::string_view name) {
  const auto& m = options_.cost_model;
  ChargeBulk(name.size() + kSha256BlockSize, m.sha_mb_per_s, 0);
  return kdf::DeriveNameKey(dek, name);
}

SigningKeyPair CryptoEngine::NewSigningKeyPair() {
  ++counts_.keygen;
  ChargeFixed(options_.cost_model.sign_keygen_ms);
  if (options_.signing_key_pool > 0) {
    if (pool_.size() < options_.signing_key_pool) {
      RsaKeyPair kp = GenerateRsaKeyPair(kSigningKeyBits, rng_);
      pool_.push_back(SigningKeyPair{SigningKey{kp.priv}, VerifyKey{kp.pub}});
      return pool_.back();
    }
    SigningKeyPair pair = pool_[pool_next_];
    pool_next_ = (pool_next_ + 1) % pool_.size();
    return pair;
  }
  RsaKeyPair kp = GenerateRsaKeyPair(kSigningKeyBits, rng_);
  return SigningKeyPair{SigningKey{kp.priv}, VerifyKey{kp.pub}};
}

Bytes CryptoEngine::Sign(const SigningKey& key, const Bytes& message) {
  ++counts_.sign;
  return Measured(options_.cost_model.sign_ms,
                  [&] { return RsaSign(key.priv, message); });
}

bool CryptoEngine::Verify(const VerifyKey& key, const Bytes& message,
                          const Bytes& sig) {
  ++counts_.verify;
  return Measured(options_.cost_model.verify_ms,
                  [&] { return RsaVerify(key.pub, message, sig); });
}

RsaKeyPair CryptoEngine::NewUserKeyPair(size_t bits) {
  return GenerateRsaKeyPair(bits, rng_);
}

Result<Bytes> CryptoEngine::PkEncrypt(const RsaPublicKey& pub,
                                      const Bytes& msg) {
  size_t blocks = RsaBlockCount(pub, msg.size());
  counts_.pk_encrypt_blocks += blocks;
  return Measured(options_.cost_model.rsa_public_ms *
                      static_cast<double>(blocks),
                  [&] { return RsaEncrypt(pub, msg, rng_); });
}

Result<Bytes> CryptoEngine::PkDecrypt(const RsaPrivateKey& priv,
                                      const Bytes& ct) {
  size_t k = priv.ModulusBytes();
  size_t blocks = k == 0 ? 0 : (ct.size() + k - 1) / k;
  counts_.pk_decrypt_blocks += blocks;
  return Measured(options_.cost_model.rsa_private_ms *
                      static_cast<double>(blocks),
                  [&] { return RsaDecrypt(priv, ct); });
}

}  // namespace sharoes::crypto
