#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include "util/bytes.h"

namespace sharoes::crypto {
namespace {

// Key generation is the slow part; share one pair across the suite.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(0xC0FFEE);
    key_ = new RsaKeyPair(GenerateRsaKeyPair(768, *rng_));
  }
  static void TearDownTestSuite() {
    delete key_;
    delete rng_;
    key_ = nullptr;
    rng_ = nullptr;
  }

  static Rng* rng_;
  static RsaKeyPair* key_;
};

Rng* RsaTest::rng_ = nullptr;
RsaKeyPair* RsaTest::key_ = nullptr;

TEST_F(RsaTest, KeyStructure) {
  EXPECT_EQ(key_->pub.n.BitLength(), 768u);
  EXPECT_EQ(key_->pub.e, BigInt(65537));
  EXPECT_EQ(BigInt::Mul(key_->priv.p, key_->priv.q), key_->priv.n);
}

TEST_F(RsaTest, EncryptDecryptBlockRoundTrip) {
  Bytes msg = ToBytes("superblock for alice");
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->size(), key_->pub.ModulusBytes());
  auto pt = RsaDecryptBlock(key_->priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  Bytes msg = ToBytes("same message");
  auto c1 = RsaEncryptBlock(key_->pub, msg, *rng_);
  auto c2 = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(*c1, *c2);
}

TEST_F(RsaTest, RejectsOversizedBlockMessage) {
  Bytes msg(key_->pub.MaxMessageBytes() + 1, 0x41);
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  EXPECT_FALSE(ct.ok());
  EXPECT_EQ(ct.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RsaTest, MaxSizeBlockMessage) {
  Bytes msg(key_->pub.MaxMessageBytes(), 0x42);
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecryptBlock(key_->priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST_F(RsaTest, EmptyMessage) {
  auto ct = RsaEncrypt(key_->pub, Bytes{}, *rng_);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecrypt(key_->priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_TRUE(pt->empty());
}

TEST_F(RsaTest, MultiBlockRoundTrip) {
  // Larger than one block: the PUBLIC-baseline metadata path.
  Bytes msg;
  for (int i = 0; i < 500; ++i) msg.push_back(static_cast<uint8_t>(i));
  auto ct = RsaEncrypt(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->size() % key_->pub.ModulusBytes(), 0u);
  EXPECT_EQ(ct->size() / key_->pub.ModulusBytes(),
            RsaBlockCount(key_->pub, msg.size()));
  auto pt = RsaDecrypt(key_->priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST_F(RsaTest, DecryptRejectsTamperedBlock) {
  Bytes msg = ToBytes("tamper me");
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  Bytes bad = *ct;
  bad[bad.size() / 2] ^= 0xFF;
  auto pt = RsaDecryptBlock(key_->priv, bad);
  // Either padding fails or the plaintext differs; both are acceptable
  // detections for PKCS#1 v1.5.
  if (pt.ok()) {
    EXPECT_NE(*pt, msg);
  }
}

TEST_F(RsaTest, DecryptRejectsWrongSize) {
  Bytes short_ct(key_->pub.ModulusBytes() - 1, 0);
  EXPECT_FALSE(RsaDecryptBlock(key_->priv, short_ct).ok());
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Bytes msg = ToBytes("hash of file contents");
  Bytes sig = RsaSign(key_->priv, msg);
  EXPECT_TRUE(RsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsModifiedMessage) {
  Bytes msg = ToBytes("original");
  Bytes sig = RsaSign(key_->priv, msg);
  EXPECT_FALSE(RsaVerify(key_->pub, ToBytes("0riginal"), sig));
}

TEST_F(RsaTest, VerifyRejectsModifiedSignature) {
  Bytes msg = ToBytes("message");
  Bytes sig = RsaSign(key_->priv, msg);
  sig[0] ^= 1;
  EXPECT_FALSE(RsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  Rng rng2(999);
  RsaKeyPair other = GenerateRsaKeyPair(768, rng2);
  Bytes msg = ToBytes("message");
  Bytes sig = RsaSign(key_->priv, msg);
  EXPECT_FALSE(RsaVerify(other.pub, msg, sig));
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  Bytes ser = key_->pub.Serialize();
  auto back = RsaPublicKey::Deserialize(ser);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->n, key_->pub.n);
  EXPECT_EQ(back->e, key_->pub.e);
}

TEST_F(RsaTest, PrivateKeySerializationRoundTrip) {
  Bytes ser = key_->priv.Serialize();
  auto back = RsaPrivateKey::Deserialize(ser);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->d, key_->priv.d);
  EXPECT_EQ(back->qinv, key_->priv.qinv);
  // The deserialized key must actually work.
  Bytes msg = ToBytes("round trip");
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecryptBlock(*back, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST_F(RsaTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::Deserialize(ToBytes("junk")).ok());
  EXPECT_FALSE(RsaPrivateKey::Deserialize(ToBytes("junk")).ok());
}

TEST(RsaSmallKeyTest, Various512BitKeys) {
  Rng rng(77);
  for (int i = 0; i < 3; ++i) {
    RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
    Bytes msg = ToBytes("msg");
    auto ct = RsaEncryptBlock(kp.pub, msg, rng);
    ASSERT_TRUE(ct.ok());
    auto pt = RsaDecryptBlock(kp.priv, *ct);
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(*pt, msg);
    Bytes sig = RsaSign(kp.priv, msg);
    EXPECT_TRUE(RsaVerify(kp.pub, msg, sig));
  }
}

// Known-answer signatures. Keygen and PKCS#1 v1.5 signing are both
// deterministic, so a seeded key and a fixed message pin the exact bytes
// every modular-exponentiation change must reproduce.
struct SignatureKat {
  size_t bits;
  const char* n_hex;
  const char* sig_hex;
};

const SignatureKat kSignatureKats[] = {
    {512,
     "c58ed336e783dba0f04651f21866d60b8767c3c194d7f196c7b1afa72c0f8f93"
     "a5eb58ac41b95b20fc47185a419f6abb39fbadb0ae33c5ef3fc144b4db5e6aed",
     "bbbdbb1fbeddd670a7cd5acdd10f70561f5206fb7c8073ef4fe69b3136eb885e"
     "afc1b5097b33772a669e202b1f9e270b1331af6096a0e5a74ffcd67af197c714"},
    {1024,
     "a854daac4279030a7c8c46854192a738e9d5dea6b3474988668d6304172233b7"
     "bf6a1f2862d69f8a3fb6872db33cca9e22f315f8577d451e1b0612dadd103262"
     "52d7a13be777ece2a3736c913c92a4cc6928604a21ac732d2dca67b8fa46e718"
     "ae85b1715d15e5d071766b551da991d3711c186f783b4dfe8b45c9519579c741",
     "1cf0b364e764ecce5a09d126e4c8e5044be8594ac99a3c44fee51d8bf5ecc9a0"
     "53e23dfc74ec4067debeecd98fb124915b66f4c81272e45f2a0874c537c337c9"
     "16a03299bd6d2f8286aaa56425029692c92610be63251e726c624feff1010a27"
     "8a52413339ad66bc5db7be0c874e78be3ec2afc7925e2556aaea9c438a17665a"},
};

TEST(RsaKatTest, SeededSignaturesArePinned) {
  for (const SignatureKat& kat : kSignatureKats) {
    Rng rng(0x5EED0000 + kat.bits);
    RsaKeyPair kp = GenerateRsaKeyPair(kat.bits, rng);
    EXPECT_EQ(HexEncode(kp.pub.n.ToBytes()), kat.n_hex) << kat.bits;
    Bytes msg = ToBytes("sharoes rsa kat");
    Bytes sig = RsaSign(kp.priv, msg);
    EXPECT_EQ(HexEncode(sig), kat.sig_hex) << kat.bits;
    EXPECT_TRUE(RsaVerify(kp.pub, msg, sig));
  }
}

}  // namespace
}  // namespace sharoes::crypto
