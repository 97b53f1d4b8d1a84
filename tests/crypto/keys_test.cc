#include "crypto/keys.h"

#include <gtest/gtest.h>

#include "crypto/kdf.h"
#include "util/binary_io.h"
#include "util/sim_clock.h"

namespace sharoes::crypto {
namespace {

CryptoEngineOptions FastOptions() {
  CryptoEngineOptions o;
  o.rng_seed = 42;
  return o;
}

TEST(CryptoEngineTest, SymmetricRoundTrip) {
  SimClock clock;
  CryptoEngine eng(&clock, FastOptions());
  SymmetricKey key = eng.NewSymmetricKey();
  Bytes pt = ToBytes("a data block");
  Bytes sealed = eng.SymEncrypt(key, pt);
  auto back = eng.SymDecrypt(key, sealed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(CryptoEngineTest, SymmetricChargesCryptoCost) {
  SimClock clock;
  CryptoEngine eng(&clock, FastOptions());
  SymmetricKey key = eng.NewSymmetricKey();
  uint64_t before = clock.snapshot().crypto_ns();
  eng.SymEncrypt(key, Bytes(1 << 20, 0));  // 1 MiB
  uint64_t delta = clock.snapshot().crypto_ns() - before;
  // 1 MiB at 40 MB/s ~ 26 ms.
  EXPECT_GT(delta, 20ull * 1000 * 1000);
  EXPECT_LT(delta, 40ull * 1000 * 1000);
}

TEST(CryptoEngineTest, ZeroCostModelChargesNothing) {
  SimClock clock;
  CryptoEngineOptions o = FastOptions();
  o.cost_model = CryptoCostModel::Zero();
  CryptoEngine eng(&clock, o);
  SymmetricKey key = eng.NewSymmetricKey();
  eng.SymEncrypt(key, Bytes(4096, 1));
  auto pair = eng.NewSigningKeyPair();
  eng.Sign(pair.sign, ToBytes("x"));
  EXPECT_EQ(clock.snapshot().crypto_ns(), 0u);
}

TEST(CryptoEngineTest, SignVerify) {
  SimClock clock;
  CryptoEngine eng(&clock, FastOptions());
  SigningKeyPair pair = eng.NewSigningKeyPair();
  Bytes msg = ToBytes("metadata bytes");
  Bytes sig = eng.Sign(pair.sign, msg);
  EXPECT_TRUE(eng.Verify(pair.verify, msg, sig));
  EXPECT_FALSE(eng.Verify(pair.verify, ToBytes("other"), sig));
}

TEST(CryptoEngineTest, SignChargesEsignCalibratedCost) {
  SimClock clock;
  CryptoEngine eng(&clock, FastOptions());
  SigningKeyPair pair = eng.NewSigningKeyPair();
  uint64_t before = clock.snapshot().crypto_ns();
  eng.Sign(pair.sign, ToBytes("m"));
  uint64_t delta = clock.snapshot().crypto_ns() - before;
  EXPECT_EQ(delta, 2ull * 1000 * 1000);  // sign_ms = 2.
}

TEST(CryptoEngineTest, PkRoundTripAndCost) {
  SimClock clock;
  CryptoEngineOptions o = FastOptions();
  CryptoEngine eng(&clock, o);
  RsaKeyPair user = eng.NewUserKeyPair(512);
  Bytes msg = ToBytes("the superblock");
  uint64_t before = clock.snapshot().crypto_ns();
  auto ct = eng.PkEncrypt(user.pub, msg);
  ASSERT_TRUE(ct.ok());
  uint64_t enc_cost = clock.snapshot().crypto_ns() - before;
  EXPECT_EQ(enc_cost, 15ull * 1000 * 1000);  // One block at 15 ms.

  before = clock.snapshot().crypto_ns();
  auto pt = eng.PkDecrypt(user.priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
  uint64_t dec_cost = clock.snapshot().crypto_ns() - before;
  EXPECT_EQ(dec_cost, 270ull * 1000 * 1000);  // One block at 270 ms.
}

TEST(CryptoEngineTest, MultiBlockPkCostScalesWithBlocks) {
  SimClock clock;
  CryptoEngine eng(&clock, FastOptions());
  RsaKeyPair user = eng.NewUserKeyPair(512);
  size_t chunk = user.pub.MaxMessageBytes();
  Bytes msg(3 * chunk + 1, 0x5A);  // 4 blocks.
  uint64_t before = clock.snapshot().crypto_ns();
  auto ct = eng.PkEncrypt(user.pub, msg);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(clock.snapshot().crypto_ns() - before, 4 * 15ull * 1000 * 1000);
}

TEST(CryptoEngineTest, DeriveNameKeyMatchesKdfAndIsStable) {
  SimClock clock;
  CryptoEngine eng(&clock, FastOptions());
  SymmetricKey dek = eng.NewSymmetricKey();
  SymmetricKey k1 = eng.DeriveNameKey(dek, "report.txt");
  SymmetricKey k2 = kdf::DeriveNameKey(dek, "report.txt");
  EXPECT_EQ(k1, k2);
  EXPECT_NE(eng.DeriveNameKey(dek, "a").key, eng.DeriveNameKey(dek, "b").key);
}

TEST(CryptoEngineTest, SigningKeyPoolCyclesDistinctKeys) {
  SimClock clock;
  CryptoEngineOptions o = FastOptions();
  o.signing_key_pool = 2;
  CryptoEngine eng(&clock, o);
  auto a = eng.NewSigningKeyPair();
  auto b = eng.NewSigningKeyPair();
  auto c = eng.NewSigningKeyPair();  // Recycles a.
  EXPECT_FALSE(a.verify == b.verify);
  EXPECT_TRUE(c.verify == a.verify);
}

TEST(CryptoEngineTest, OpCountsTrackUsage) {
  SimClock clock;
  CryptoEngine eng(&clock, FastOptions());
  SymmetricKey key = eng.NewSymmetricKey();
  Bytes sealed = eng.SymEncrypt(key, ToBytes("x"));
  ASSERT_TRUE(eng.SymDecrypt(key, sealed).ok());
  EXPECT_EQ(eng.op_counts().sym_encrypt, 1u);
  EXPECT_EQ(eng.op_counts().sym_decrypt, 1u);
  eng.ResetOpCounts();
  EXPECT_EQ(eng.op_counts().sym_encrypt, 0u);
}

TEST(CryptoEngineTest, DeterministicWithSeed) {
  SimClock c1, c2;
  CryptoEngine e1(&c1, FastOptions());
  CryptoEngine e2(&c2, FastOptions());
  EXPECT_EQ(e1.NewSymmetricKey().key, e2.NewSymmetricKey().key);
}

TEST(CryptoEngineTest, MeasuredModeChargesWallClock) {
  SimClock clock;
  CryptoEngineOptions o = FastOptions();
  o.charge_policy = ChargePolicy::kMeasured;
  CryptoEngine eng(&clock, o);
  SymmetricKey key = eng.NewSymmetricKey();
  eng.SymEncrypt(key, Bytes(1 << 16, 0));
  // Real AES of 64 KiB takes *some* time, far below the calibrated price.
  EXPECT_GT(clock.snapshot().crypto_ns(), 0u);
  EXPECT_LT(clock.snapshot().crypto_ns(), 1ull * 1000 * 1000 * 1000);
}

TEST(KeyTypesTest, SerializeDeserialize) {
  SimClock clock;
  CryptoEngine eng(&clock, FastOptions());
  SymmetricKey sk = eng.NewSymmetricKey();
  auto sk2 = SymmetricKey::Deserialize(sk.Serialize());
  ASSERT_TRUE(sk2.ok());
  EXPECT_EQ(*sk2, sk);
  EXPECT_FALSE(SymmetricKey::Deserialize(ToBytes("short")).ok());

  SigningKeyPair pair = eng.NewSigningKeyPair();
  auto vk = VerifyKey::Deserialize(pair.verify.Serialize());
  ASSERT_TRUE(vk.ok());
  EXPECT_TRUE(*vk == pair.verify);
  auto sg = SigningKey::Deserialize(pair.sign.Serialize());
  ASSERT_TRUE(sg.ok());
  Bytes sig = eng.Sign(*sg, ToBytes("m"));
  EXPECT_TRUE(eng.Verify(pair.verify, ToBytes("m"), sig));
}

// Verify keys arrive from the untrusted SSP, so the modulus can be any
// size. Oversized ones (odd: the Montgomery path; even: the fallback)
// must verify garbage as false without overrunning any buffer.
TEST(KeyTypesTest, OversizedVerifyKeyRejectsGarbage) {
  SimClock clock;
  CryptoEngine eng(&clock, FastOptions());
  Rng rng(4096);
  for (size_t bits : {4096u, 8192u}) {
    for (bool odd : {true, false}) {
      Bytes n = BigInt::RandomWithBits(bits, rng).ToBytes();
      n.back() = odd ? (n.back() | 1) : (n.back() & 0xFE);
      BinaryWriter w;
      w.PutBytes(n);
      w.PutBytes(BigInt(65537).ToBytes());
      auto vk = VerifyKey::Deserialize(w.Take());
      ASSERT_TRUE(vk.ok()) << vk.status().ToString();
      EXPECT_EQ(vk->pub.n.BitLength(), bits);
      Bytes sig = rng.NextBytes(n.size());
      sig[0] = 0;  // Below n, so the exponentiation really runs.
      EXPECT_FALSE(eng.Verify(*vk, ToBytes("m"), sig)) << bits;
      EXPECT_FALSE(eng.Verify(*vk, ToBytes("m"), rng.NextBytes(64))) << bits;
    }
  }
}

}  // namespace
}  // namespace sharoes::crypto
