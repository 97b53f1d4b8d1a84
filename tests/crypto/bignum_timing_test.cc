// Timing regression test for private-key exponentiation, dudect style.
//
// Two exponents of the same bit length, one of minimal and one of maximal
// Hamming weight, are timed in interleaved samples against an RSA-512
// modulus. ModExp must not branch on exponent bits, so the median times
// agree; square-and-multiply, which multiplies once per set bit, puts the
// sparse/dense ratio near 0.5-0.7. Registered RUN_SERIAL so other tests do
// not share the CPU while it measures.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/rsa.h"

namespace sharoes::crypto {
namespace {

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

TEST(ModExpTimingTest, IndependentOfExponentHammingWeight) {
  Rng rng(0x7135);
  RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
  const BigInt& n = kp.priv.n;
  size_t bits = kp.priv.d.BitLength();
  BigInt sparse = BigInt::Add(BigInt::ShiftLeft(BigInt(1), bits - 1),
                              BigInt(1));  // Weight 2.
  BigInt dense = BigInt::Sub(BigInt::ShiftLeft(BigInt(1), bits),
                             BigInt(1));  // Weight `bits`.
  ASSERT_EQ(sparse.BitLength(), dense.BitLength());
  BigInt x = BigInt::RandomBelow(n, rng);

  uint64_t sink = 0;
  auto time_us = [&](const BigInt& exp) {
    auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 2; ++rep) {
      sink += BigInt::ModExp(x, exp, n).BitLength();
    }
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::vector<double> sparse_us, dense_us;
  for (int i = 0; i < 301; ++i) {
    // Alternate which side goes first so drift hits both equally.
    if (i % 2 == 0) {
      sparse_us.push_back(time_us(sparse));
      dense_us.push_back(time_us(dense));
    } else {
      dense_us.push_back(time_us(dense));
      sparse_us.push_back(time_us(sparse));
    }
  }
  double ratio = Median(sparse_us) / Median(dense_us);
  std::printf("sparse/dense median ratio %.3f\n", ratio);
  EXPECT_NEAR(ratio, 1.0, 0.15)
      << "sparse median " << Median(sparse_us) << " us, dense median "
      << Median(dense_us) << " us (sink " << sink << ")";
}

}  // namespace
}  // namespace sharoes::crypto
