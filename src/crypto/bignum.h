// Arbitrary-precision unsigned integers for the RSA implementation.
//
// Limbs are base-2^32, little-endian, normalized (no leading zero limb).
// The API covers exactly what RSA key generation and the RSA primitives
// need: comparison, +, -, *, divmod (Knuth algorithm D), shifts, bit
// access, modular exponentiation (fixed-window Montgomery on 64-bit limbs
// for odd moduli) and modular inverse.

#ifndef SHAROES_CRYPTO_BIGNUM_H_
#define SHAROES_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/random.h"

namespace sharoes::crypto {

/// Non-negative arbitrary-precision integer.
class BigInt {
 public:
  BigInt() = default;
  /// From a machine word.
  explicit BigInt(uint64_t v);

  /// Parses a hexadecimal string (no 0x prefix); false on a non-hex digit.
  static bool FromHex(std::string_view hex, BigInt* out);
  /// Big-endian byte import/export (the RSA wire format).
  static BigInt FromBytes(const Bytes& be);
  /// Exports exactly `len` big-endian bytes (zero-padded); `len` must be
  /// >= ByteLength().
  Bytes ToBytes(size_t len) const;
  /// Exports with minimal length (empty for zero).
  Bytes ToBytes() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  /// Number of significant bits (0 for zero).
  size_t BitLength() const;
  size_t ByteLength() const { return (BitLength() + 7) / 8; }
  /// Bit i (0 = least significant).
  bool GetBit(size_t i) const;

  // Comparison: -1, 0, +1.
  int Compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  static BigInt Add(const BigInt& a, const BigInt& b);
  /// Requires a >= b.
  static BigInt Sub(const BigInt& a, const BigInt& b);
  static BigInt Mul(const BigInt& a, const BigInt& b);
  /// q = a / b, r = a % b. b must be nonzero. Either out may be null.
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* q, BigInt* r);
  static BigInt Mod(const BigInt& a, const BigInt& m);
  static BigInt ShiftLeft(const BigInt& a, size_t bits);
  static BigInt ShiftRight(const BigInt& a, size_t bits);

  /// (a * b) mod m via full multiply + reduce.
  static BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);
  /// base^exp mod m. m must be > 1. For odd m (every RSA modulus and
  /// prime) the time depends on the bit lengths of exp and m, not on the
  /// bits of exp. Even m falls back to square-and-multiply over ModMul.
  static BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m);
  /// Inverse of a mod m (gcd(a, m) must be 1). Returns false otherwise.
  static bool ModInverse(const BigInt& a, const BigInt& m, BigInt* out);

  /// Uniform random integer with exactly `bits` bits (top bit set).
  static BigInt RandomWithBits(size_t bits, Rng& rng);
  /// Uniform random integer in [0, bound).
  static BigInt RandomBelow(const BigInt& bound, Rng& rng);

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  void Normalize();
  static BigInt FromLimbs(std::vector<uint32_t> limbs);

  std::vector<uint32_t> limbs_;
};

}  // namespace sharoes::crypto

#endif  // SHAROES_CRYPTO_BIGNUM_H_
