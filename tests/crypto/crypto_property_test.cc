// Parameterized property sweeps over the crypto substrate: encrypt/
// decrypt inversion across sizes and seeds, serialization stability,
// algebraic laws of the bignum layer, and sign/verify totality.

#include <gtest/gtest.h>

#include "crypto/bignum.h"
#include "crypto/ctr.h"
#include "crypto/hmac.h"
#include "crypto/kdf.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace sharoes::crypto {
namespace {

// --- CTR inversion across a size sweep ------------------------------------

class CtrSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CtrSizeSweep, SealOpenIsIdentity) {
  Rng rng(GetParam() * 2654435761u + 1);
  Bytes key = rng.NextBytes(kAes128KeySize);
  Bytes pt = rng.NextBytes(GetParam());
  Bytes sealed = CtrSeal(key, pt, rng);
  Result<Bytes> back = CtrOpen(key, sealed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
  // Ciphertext differs from plaintext for nonempty inputs.
  if (!pt.empty()) {
    Bytes body(sealed.begin() + kCtrIvSize, sealed.end());
    EXPECT_NE(body, pt);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CtrSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 64, 255, 256,
                                           1000, 4096, 4097, 65536));

// --- Keyed-hash derivation properties --------------------------------------

class KdfSweep : public ::testing::TestWithParam<int> {};

TEST_P(KdfSweep, DerivationIsDeterministicAndKeySeparated) {
  Rng rng(GetParam());
  SymmetricKey k1{rng.NextBytes(16)};
  SymmetricKey k2{rng.NextBytes(16)};
  std::string name = "file" + std::to_string(GetParam()) + ".txt";
  // Deterministic.
  EXPECT_EQ(kdf::DeriveNameKey(k1, name).key, kdf::DeriveNameKey(k1, name).key);
  // Separated by key.
  EXPECT_NE(kdf::DeriveNameKey(k1, name).key, kdf::DeriveNameKey(k2, name).key);
  // Separated by name.
  EXPECT_NE(kdf::DeriveNameKey(k1, name).key,
            kdf::DeriveNameKey(k1, name + "x").key);
  // Separated by label namespace (row-id vs row-key derivations must
  // never collide; exec-only tables rely on this).
  EXPECT_NE(kdf::DeriveNameKey(k1, name).key,
            kdf::DeriveLabeled(k1, "sharoes-rowid:" + name).key);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KdfSweep, ::testing::Range(1, 25));

// --- Bignum algebraic laws --------------------------------------------------

class BignumLawSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BignumLawSweep, RingLawsHold) {
  Rng rng(GetParam());
  BigInt a = BigInt::RandomWithBits(1 + rng.NextBelow(320), rng);
  BigInt b = BigInt::RandomWithBits(1 + rng.NextBelow(320), rng);
  BigInt c = BigInt::RandomWithBits(1 + rng.NextBelow(160), rng);
  // Commutativity and associativity of +.
  EXPECT_EQ(BigInt::Add(a, b), BigInt::Add(b, a));
  EXPECT_EQ(BigInt::Add(BigInt::Add(a, b), c),
            BigInt::Add(a, BigInt::Add(b, c)));
  // Associativity of *.
  EXPECT_EQ(BigInt::Mul(BigInt::Mul(a, b), c),
            BigInt::Mul(a, BigInt::Mul(b, c)));
  // (a + b) - b == a.
  EXPECT_EQ(BigInt::Sub(BigInt::Add(a, b), b), a);
  // Division identity: a == (a/b)*b + a%b, 0 <= a%b < b.
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(BigInt::Add(BigInt::Mul(q, b), r), a);
  EXPECT_LT(r.Compare(b), 0);
  // Hex/byte round trips.
  EXPECT_EQ(BigInt::FromHexUnchecked(a.ToHex()), a);
  EXPECT_EQ(BigInt::FromBytes(a.ToBytes()), a);
}

TEST_P(BignumLawSweep, ModExpLawsHold) {
  Rng rng(GetParam() ^ 0xFEED);
  // Odd moduli (the Montgomery path), including odd 32-bit limb counts.
  const size_t kBits[] = {96, 128, 256, 544, 1056};
  BigInt m = BigInt::RandomWithBits(kBits[GetParam() % 5], rng);
  m.SetBit(0);
  BigInt a = BigInt::RandomBelow(m, rng);
  if (GetParam() % 2 == 0) a = BigInt::Add(a, m);  // Unreduced base.
  uint64_t x = 1 + rng.NextBelow(40);
  uint64_t y = 1 + rng.NextBelow(40);
  // a^(x+y) == a^x * a^y (mod m).
  BigInt lhs = BigInt::ModExp(a, BigInt(x + y), m);
  BigInt rhs = BigInt::ModMul(BigInt::ModExp(a, BigInt(x), m),
                              BigInt::ModExp(a, BigInt(y), m), m);
  EXPECT_EQ(lhs, rhs);
  // (a^x)^y == a^(x*y) (mod m).
  EXPECT_EQ(BigInt::ModExp(BigInt::ModExp(a, BigInt(x), m), BigInt(y), m),
            BigInt::ModExp(a, BigInt(x * y), m));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BignumLawSweep,
                         ::testing::Range<uint64_t>(1, 30));

// --- RSA totality across key sizes -----------------------------------------

class RsaKeySizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(RsaKeySizeSweep, EncryptSignRoundTrip) {
  Rng rng(GetParam());
  RsaKeyPair kp = GenerateRsaKeyPair(GetParam(), rng);
  EXPECT_EQ(kp.pub.n.BitLength(), GetParam());
  Bytes msg = rng.NextBytes(kp.pub.MaxMessageBytes());
  auto ct = RsaEncryptBlock(kp.pub, msg, rng);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecryptBlock(kp.priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
  Bytes sig = RsaSign(kp.priv, msg);
  EXPECT_TRUE(RsaVerify(kp.pub, msg, sig));
  msg[0] ^= 1;
  EXPECT_FALSE(RsaVerify(kp.pub, msg, sig));
  // Compact private-key serialization round-trips functionally.
  auto back = RsaPrivateKey::Deserialize(kp.priv.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->d, kp.priv.d);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaKeySizeSweep,
                         ::testing::Values(512, 768, 1024));

// --- SHA-256 structural properties -----------------------------------------

class ShaSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ShaSizeSweep, LengthExtensionBoundaryStability) {
  Rng rng(GetParam() + 99);
  Bytes msg = rng.NextBytes(GetParam());
  Bytes d1 = Sha256Digest(msg);
  EXPECT_EQ(d1.size(), kSha256DigestSize);
  // Chunked hashing agrees regardless of chunk size.
  for (size_t chunk : {1u, 7u, 64u}) {
    Sha256 h;
    for (size_t pos = 0; pos < msg.size(); pos += chunk) {
      size_t n = std::min(chunk, msg.size() - pos);
      h.Update(msg.data() + pos, n);
    }
    EXPECT_EQ(h.Finish(), d1) << "chunk " << chunk;
  }
  // Appending one byte changes the digest.
  Bytes extended = msg;
  extended.push_back(0x00);
  EXPECT_NE(Sha256Digest(extended), d1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShaSizeSweep,
                         ::testing::Values(0, 1, 55, 56, 63, 64, 65, 119,
                                           128, 1000));

// --- HMAC as a PRF-shaped function ------------------------------------------

TEST(HmacPropertyTest, OutputsLookIndependentAcrossKeys) {
  // 64 single-bit-different keys must give 64 distinct MACs.
  std::set<Bytes> macs;
  Bytes base(16, 0);
  Bytes msg = ToBytes("fixed message");
  for (int bit = 0; bit < 64; ++bit) {
    Bytes key = base;
    key[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    macs.insert(HmacSha256(key, msg));
  }
  EXPECT_EQ(macs.size(), 64u);
}

}  // namespace
}  // namespace sharoes::crypto
