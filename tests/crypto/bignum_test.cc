#include "crypto/bignum.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace sharoes::crypto {
namespace {

TEST(BigIntTest, ConstructionAndBasics) {
  BigInt zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.BitLength(), 0u);
  BigInt one(1);
  EXPECT_TRUE(one.IsOne());
  EXPECT_TRUE(one.IsOdd());
  BigInt big(0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(big.ToU64(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(big.BitLength(), 64u);
}

TEST(BigIntTest, HexRoundTrip) {
  const char* cases[] = {"0", "1", "ff", "100", "deadbeef",
                         "123456789abcdef0123456789abcdef"};
  for (const char* c : cases) {
    BigInt x;
    ASSERT_TRUE(BigInt::FromHex(c, &x));
    EXPECT_EQ(x.ToHex(), c);
  }
}

TEST(BigIntTest, FromHexRejectsGarbage) {
  BigInt x;
  EXPECT_FALSE(BigInt::FromHex("xyz", &x));
  EXPECT_FALSE(BigInt::FromHex("12g4", &x));
}

TEST(BigIntTest, BytesRoundTrip) {
  Rng rng(1);
  for (size_t len : {1u, 4u, 5u, 16u, 31u, 32u, 100u, 256u}) {
    Bytes b = rng.NextBytes(len);
    b[0] |= 1;  // Avoid a leading zero so lengths match.
    BigInt x = BigInt::FromBytes(b);
    EXPECT_EQ(x.ToBytes(len), b) << "len " << len;
  }
}

TEST(BigIntTest, AddSubInverse) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::RandomWithBits(1 + rng.NextBelow(256), rng);
    BigInt b = BigInt::RandomWithBits(1 + rng.NextBelow(256), rng);
    BigInt sum = BigInt::Add(a, b);
    EXPECT_EQ(BigInt::Sub(sum, b), a);
    EXPECT_EQ(BigInt::Sub(sum, a), b);
  }
}

TEST(BigIntTest, MulMatchesU64) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.NextU64() >> 33;  // Keep the product within 64 bits.
    uint64_t b = rng.NextU64() >> 33;
    EXPECT_EQ(BigInt::Mul(BigInt(a), BigInt(b)).ToU64(), a * b);
  }
}

TEST(BigIntTest, MulCommutativeAndDistributive) {
  Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::RandomWithBits(200, rng);
    BigInt b = BigInt::RandomWithBits(150, rng);
    BigInt c = BigInt::RandomWithBits(100, rng);
    EXPECT_EQ(BigInt::Mul(a, b), BigInt::Mul(b, a));
    // a*(b+c) == a*b + a*c
    EXPECT_EQ(BigInt::Mul(a, BigInt::Add(b, c)),
              BigInt::Add(BigInt::Mul(a, b), BigInt::Mul(a, c)));
  }
}

TEST(BigIntTest, DivModReconstruction) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    size_t abits = 1 + rng.NextBelow(512);
    size_t bbits = 1 + rng.NextBelow(300);
    BigInt a = BigInt::RandomWithBits(abits, rng);
    BigInt b = BigInt::RandomWithBits(bbits, rng);
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_LT(r.Compare(b), 0);
    EXPECT_EQ(BigInt::Add(BigInt::Mul(q, b), r), a)
        << "a=" << a.ToHex() << " b=" << b.ToHex();
  }
}

TEST(BigIntTest, DivModSmallDivisor) {
  BigInt a = BigInt::FromHexUnchecked("123456789abcdef0fedcba9876543210");
  BigInt q, r;
  BigInt::DivMod(a, BigInt(7), &q, &r);
  EXPECT_EQ(BigInt::Add(BigInt::Mul(q, BigInt(7)), r), a);
  EXPECT_LT(r.ToU64(), 7u);
}

TEST(BigIntTest, DivModKnuthAddBackCase) {
  // A divisor/dividend pair engineered so qhat overshoots (exercises the
  // rare "add back" branch): u = B^4 - 1, v = B^2 + B - 1 in base 2^32.
  BigInt u = BigInt::FromHexUnchecked("ffffffffffffffffffffffffffffffff");
  BigInt v = BigInt::FromHexUnchecked("10000fffeffff");
  BigInt q, r;
  BigInt::DivMod(u, v, &q, &r);
  EXPECT_EQ(BigInt::Add(BigInt::Mul(q, v), r), u);
  EXPECT_LT(r.Compare(v), 0);
}

TEST(BigIntTest, Shifts) {
  BigInt x = BigInt::FromHexUnchecked("deadbeef");
  EXPECT_EQ(BigInt::ShiftLeft(x, 4).ToHex(), "deadbeef0");
  EXPECT_EQ(BigInt::ShiftRight(x, 4).ToHex(), "deadbee");
  EXPECT_EQ(BigInt::ShiftLeft(x, 64).ToHex(), "deadbeef0000000000000000");
  EXPECT_TRUE(BigInt::ShiftRight(x, 32).IsZero());
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomWithBits(1 + rng.NextBelow(300), rng);
    size_t s = rng.NextBelow(100);
    EXPECT_EQ(BigInt::ShiftRight(BigInt::ShiftLeft(a, s), s), a);
  }
}

TEST(BigIntTest, ModExpSmallNumbers) {
  // 3^7 mod 11 = 2187 mod 11 = 9.
  EXPECT_EQ(BigInt::ModExp(BigInt(3), BigInt(7), BigInt(11)).ToU64(), 9u);
  // Fermat: a^(p-1) = 1 mod p for prime p.
  uint64_t p = 1000000007ULL;
  for (uint64_t a : {2ULL, 3ULL, 12345ULL, 999999999ULL}) {
    EXPECT_EQ(
        BigInt::ModExp(BigInt(a), BigInt(p - 1), BigInt(p)).ToU64(), 1u);
  }
}

// Square-and-multiply over ModMul (full multiply, then Knuth-D reduce):
// shares no code with the Montgomery engine behind ModExp.
BigInt ReferenceModExp(const BigInt& base, const BigInt& exp,
                       const BigInt& m) {
  BigInt result = BigInt::Mod(BigInt(1), m);
  BigInt acc = BigInt::Mod(base, m);
  for (size_t i = 0; i < exp.BitLength(); ++i) {
    if (exp.GetBit(i)) result = BigInt::ModMul(result, acc, m);
    acc = BigInt::ModMul(acc, acc, m);
  }
  return result;
}

TEST(BigIntTest, ModExpMatchesNaive) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    BigInt base = BigInt::RandomWithBits(96, rng);
    BigInt exp = BigInt::RandomWithBits(16, rng);
    BigInt m = BigInt::RandomWithBits(96, rng);
    m.SetBit(0);  // Odd modulus: exercise the Montgomery path.
    // Naive repeated ModMul.
    BigInt naive(1);
    uint64_t e = exp.ToU64();
    BigInt b = BigInt::Mod(base, m);
    for (uint64_t j = 0; j < e; ++j) naive = BigInt::ModMul(naive, b, m);
    EXPECT_EQ(BigInt::ModExp(base, exp, m), naive) << "i=" << i;
  }
  // RSA sizes, plus moduli with an odd count of 32-bit limbs (96, 544,
  // 1056 bits), whose top 64-bit limb is half empty.
  for (size_t bits : {96u, 256u, 512u, 544u, 1024u, 1056u, 2048u}) {
    BigInt m = BigInt::RandomWithBits(bits, rng);
    m.SetBit(0);
    BigInt m1 = BigInt::Sub(m, BigInt(1));
    for (int i = 0; i < 2; ++i) {
      BigInt base = BigInt::RandomBelow(m, rng);
      BigInt exp = BigInt::RandomWithBits(bits, rng);
      EXPECT_EQ(BigInt::ModExp(base, exp, m), ReferenceModExp(base, exp, m))
          << "bits=" << bits;
    }
    const BigInt bases[] = {
        BigInt(), BigInt(1), m1, m,
        BigInt::Add(m, BigInt::RandomBelow(m, rng)),
        BigInt::RandomWithBits(2 * bits + 5, rng)};
    // 1; a top window of one bit; 67 bits, whose top window holds 3.
    const BigInt exps[] = {BigInt(1), BigInt(2), BigInt(0x1d),
                           BigInt::RandomWithBits(67, rng)};
    for (const BigInt& base : bases) {
      for (const BigInt& exp : exps) {
        EXPECT_EQ(BigInt::ModExp(base, exp, m), ReferenceModExp(base, exp, m))
            << "bits=" << bits << " base=" << base.ToHex()
            << " exp=" << exp.ToHex();
      }
    }
    EXPECT_EQ(BigInt::ModExp(m1, BigInt(0x1d), m), m1);
    EXPECT_TRUE(BigInt::ModExp(m1, BigInt(2), m).IsOne());
    EXPECT_TRUE(BigInt::ModExp(m, BigInt(1), m).IsZero());
  }
}

TEST(BigIntTest, ModExpEvenModulus) {
  // 5^3 mod 8 = 125 mod 8 = 5.
  EXPECT_EQ(BigInt::ModExp(BigInt(5), BigInt(3), BigInt(8)).ToU64(), 5u);
}

TEST(BigIntTest, ModExpZeroExponent) {
  EXPECT_TRUE(BigInt::ModExp(BigInt(123), BigInt(), BigInt(77)).IsOne());
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(18)).ToU64(), 6u);
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToU64(), 1u);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToU64(), 5u);
  Rng rng(8);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::RandomWithBits(128, rng);
    BigInt b = BigInt::RandomWithBits(128, rng);
    BigInt g = BigInt::Gcd(a, b);
    EXPECT_TRUE(BigInt::Mod(a, g).IsZero());
    EXPECT_TRUE(BigInt::Mod(b, g).IsZero());
  }
}

TEST(BigIntTest, ModInverse) {
  Rng rng(9);
  BigInt m = BigInt::FromHexUnchecked("fffffffb");  // Prime 2^32-5.
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::Add(BigInt::RandomBelow(
        BigInt::Sub(m, BigInt(1)), rng), BigInt(1));
    BigInt inv;
    ASSERT_TRUE(BigInt::ModInverse(a, m, &inv));
    EXPECT_TRUE(BigInt::ModMul(a, inv, m).IsOne());
  }
}

TEST(BigIntTest, ModInverseEvenModulus) {
  // Inverse of odd a mod even m exists when gcd == 1 (the RSA e/phi case).
  BigInt m(100);
  BigInt a(7);
  BigInt inv;
  ASSERT_TRUE(BigInt::ModInverse(a, m, &inv));
  EXPECT_TRUE(BigInt::ModMul(a, inv, m).IsOne());
}

TEST(BigIntTest, ModInverseFailsWhenNotCoprime) {
  BigInt inv;
  EXPECT_FALSE(BigInt::ModInverse(BigInt(6), BigInt(9), &inv));
}

TEST(BigIntTest, RandomWithBitsHasExactBitLength) {
  Rng rng(10);
  for (size_t bits : {8u, 17u, 64u, 100u, 512u}) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(BigInt::RandomWithBits(bits, rng).BitLength(), bits);
    }
  }
}

TEST(BigIntTest, RandomBelowIsBelow) {
  Rng rng(11);
  BigInt bound = BigInt::FromHexUnchecked("1000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::RandomBelow(bound, rng).Compare(bound), 0);
  }
}

TEST(BigIntTest, CompareOrdering) {
  BigInt a(5), b(7);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(a == a);
  EXPECT_TRUE(a != b);
  BigInt big = BigInt::ShiftLeft(BigInt(1), 200);
  EXPECT_TRUE(b < big);
}

}  // namespace
}  // namespace sharoes::crypto
