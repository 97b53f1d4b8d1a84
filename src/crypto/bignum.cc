#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sharoes::crypto {

namespace {
constexpr uint64_t kBase = 1ULL << 32;

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::FromLimbs(std::vector<uint32_t> limbs) {
  BigInt x;
  x.limbs_ = std::move(limbs);
  x.Normalize();
  return x;
}

BigInt::BigInt(uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
}

bool BigInt::FromHex(std::string_view hex, BigInt* out) {
  BigInt x;
  for (char c : hex) {
    int v = HexValue(c);
    if (v < 0) return false;
    // x = x * 16 + v.
    uint64_t carry = static_cast<uint64_t>(v);
    for (auto& limb : x.limbs_) {
      uint64_t cur = (static_cast<uint64_t>(limb) << 4) | carry;
      limb = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    if (carry != 0) x.limbs_.push_back(static_cast<uint32_t>(carry));
  }
  x.Normalize();
  *out = std::move(x);
  return true;
}

BigInt BigInt::FromHexUnchecked(std::string_view hex) {
  BigInt x;
  FromHex(hex, &x);
  return x;
}

BigInt BigInt::FromBytes(const Bytes& be) {
  BigInt x;
  size_t n = be.size();
  x.limbs_.resize((n + 3) / 4, 0);
  for (size_t i = 0; i < n; ++i) {
    // be[i] is byte (n-1-i) from the little end.
    size_t pos = n - 1 - i;
    x.limbs_[pos / 4] |= static_cast<uint32_t>(be[i]) << (8 * (pos % 4));
  }
  x.Normalize();
  return x;
}

Bytes BigInt::ToBytes(size_t len) const {
  assert(len >= ByteLength());
  Bytes out(len, 0);
  size_t n = ByteLength();
  for (size_t i = 0; i < n; ++i) {
    uint32_t limb = limbs_[i / 4];
    out[len - 1 - i] = static_cast<uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

Bytes BigInt::ToBytes() const { return ToBytes(ByteLength()); }

std::string BigInt::ToHex() const {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (size_t nibble = (BitLength() + 3) / 4; nibble-- > 0;) {
    out.push_back(digits[(limbs_[nibble / 8] >> (4 * (nibble % 8))) & 0xF]);
  }
  return out.empty() ? "0" : out;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 32 + std::bit_width(limbs_.back());
}

bool BigInt::GetBit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

void BigInt::SetBit(size_t i) {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) limbs_.resize(limb + 1, 0);
  limbs_[limb] |= 1U << (i % 32);
}

uint64_t BigInt::ToU64() const {
  uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<uint64_t>(limbs_[1]) << 32;
  return v;
}

int BigInt::Compare(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b) {
  std::vector<uint32_t> out(std::max(a.limbs_.size(), b.limbs_.size()) + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::Sub(const BigInt& a, const BigInt& b) {
  assert(a.Compare(b) >= 0);
  std::vector<uint32_t> out(a.limbs_.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t diff = static_cast<uint64_t>(a.limbs_[i]) - borrow -
                    (i < b.limbs_.size() ? b.limbs_[i] : 0);
    out[i] = static_cast<uint32_t>(diff);
    borrow = diff >> 63;  // Wrapped below zero.
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::Mul(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  std::vector<uint32_t> out(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(out[i + j]) + carry +
                     ai * b.limbs_[j];
      out[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      uint64_t cur = static_cast<uint64_t>(out[k]) + carry;
      out[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::ShiftLeft(const BigInt& a, size_t bits) {
  if (a.IsZero()) return BigInt();
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  std::vector<uint32_t> out(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<uint32_t>(v);
    out[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::ShiftRight(const BigInt& a, size_t bits) {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= a.limbs_.size()) return BigInt();
  std::vector<uint32_t> out(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t v = a.limbs_[i + limb_shift];
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1]) << 32;
    }
    out[i] = static_cast<uint32_t>(v >> bit_shift);
  }
  return FromLimbs(std::move(out));
}

// Knuth TAOCP Vol.2 Algorithm D, base 2^32.
void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* q, BigInt* r) {
  assert(!b.IsZero());
  if (a.Compare(b) < 0) {
    if (q != nullptr) *q = BigInt();
    if (r != nullptr) *r = a;
    return;
  }
  if (b.limbs_.size() == 1) {
    // Short division.
    uint64_t d = b.limbs_[0];
    std::vector<uint32_t> quot(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      quot[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    if (q != nullptr) *q = FromLimbs(std::move(quot));
    if (r != nullptr) *r = BigInt(rem);
    return;
  }

  // Normalize so the divisor's top limb has its high bit set.
  int shift = std::countl_zero(b.limbs_.back());
  BigInt u = ShiftLeft(a, shift);
  BigInt v = ShiftLeft(b, shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;

  std::vector<uint32_t> un(u.limbs_);
  un.resize(u.limbs_.size() + 1, 0);  // Extra high limb for step D1.
  const std::vector<uint32_t>& vn = v.limbs_;
  std::vector<uint32_t> quot(m + 1, 0);

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate qhat = (un[j+n]*B + un[j+n-1]) / vn[n-1].
    uint64_t num = (static_cast<uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    uint64_t qhat = num / vn[n - 1];
    uint64_t rhat = num % vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-and-subtract.
    uint64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      uint64_t t = static_cast<uint64_t>(un[i + j]) - (p & 0xFFFFFFFFULL) -
                   borrow;
      un[i + j] = static_cast<uint32_t>(t);
      borrow = t >> 63;  // Wrapped below zero.
    }
    int64_t t = static_cast<int64_t>(un[j + n]) -
                static_cast<int64_t>(carry) - static_cast<int64_t>(borrow);
    if (t < 0) {
      // qhat was one too large: add back.
      t += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<uint32_t>(sum);
        c = sum >> 32;
      }
      t += static_cast<int64_t>(c);
      t &= 0xFFFFFFFFLL;  // Discard the carry out of the top (mod B).
    }
    un[j + n] = static_cast<uint32_t>(t);
    quot[j] = static_cast<uint32_t>(qhat);
  }

  if (q != nullptr) *q = FromLimbs(std::move(quot));
  if (r != nullptr) {
    un.resize(n);
    *r = ShiftRight(FromLimbs(std::move(un)), shift);
  }
}

BigInt BigInt::Mod(const BigInt& a, const BigInt& m) {
  BigInt r;
  DivMod(a, m, nullptr, &r);
  return r;
}

BigInt BigInt::ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(Mul(a, b), m);
}

namespace {

using u128 = unsigned __int128;

// Returns the low limb of a * b + c + d and stores the high limb in *hi.
// Cannot overflow: (2^64-1)^2 + 2(2^64-1) = 2^128-1.
inline uint64_t MulAdd(uint64_t a, uint64_t b, uint64_t c, uint64_t d,
                       uint64_t* hi) {
  u128 p = static_cast<u128>(a) * b;
  uint64_t lo = static_cast<uint64_t>(p) + c;
  uint64_t h = static_cast<uint64_t>(p >> 64) + (lo < c);
  lo += d;
  *hi = h + (lo < d);
  return lo;
}

// out = a * b * R^{-1} mod m for an odd m of n 64-bit limbs, R = 2^(64n),
// by CIOS; t is n + 1 limbs of scratch. Operands are little-endian and
// fully reduced below m; out may alias a or b. Runs the same instructions
// whatever the operand values.
void MontMul(uint64_t* out, const uint64_t* a, const uint64_t* b,
             const uint64_t* m, size_t n, uint64_t m_inv, uint64_t* t) {
  std::fill(t, t + n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    // t = (t + a * b[i] + u * m) / 2^64, u chosen so the low limb cancels;
    // both products share one pass over the limbs.
    const uint64_t bi = b[i];
    uint64_t cx, cy;
    uint64_t x = MulAdd(a[0], bi, t[0], 0, &cx);
    const uint64_t u = x * m_inv;
    MulAdd(u, m[0], x, 0, &cy);
    for (size_t j = 1; j < n; ++j) {
      x = MulAdd(a[j], bi, t[j], cx, &cx);
      t[j - 1] = MulAdd(u, m[j], x, cy, &cy);
    }
    u128 top = static_cast<u128>(t[n]) + cx + cy;
    t[n - 1] = static_cast<uint64_t>(top);
    t[n] = static_cast<uint64_t>(top >> 64);
  }
  // t < 2m: out = t - m unless that borrows past t's top limb.
  uint64_t borrow = 0;
  for (size_t j = 0; j < n; ++j) {
    u128 d = static_cast<u128>(t[j]) - m[j] - borrow;
    out[j] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
  uint64_t keep_diff = 0 - (t[n] | (borrow ^ 1));
  for (size_t j = 0; j < n; ++j) {
    out[j] = (out[j] & keep_diff) | (t[j] & ~keep_diff);
  }
}

// Packs 32-bit limbs into n zero-padded 64-bit limbs.
void Pack(const std::vector<uint32_t>& in, uint64_t* out, size_t n) {
  std::fill(out, out + n, 0);
  for (size_t i = 0; i < in.size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(in[i]) << (32 * (i % 2));
  }
}

constexpr size_t kWindowBits = 4;
constexpr size_t kTableSize = size_t{1} << kWindowBits;

}  // namespace

BigInt BigInt::ModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  assert(!m.IsZero() && !m.IsOne());
  BigInt b = Mod(base, m);
  if (exp.IsZero()) return BigInt(1);

  if (m.IsOdd()) {
    // Fixed 4-bit windows, top window first. Every window costs the same
    // squarings and one multiply by a table entry fetched with a masked
    // scan of the whole table, so the running time depends on the
    // exponent's bit length only, never on its bits.
    const size_t n = (m.limbs_.size() + 1) / 2;
    // One buffer sized from the modulus: m, table, acc, entry, scratch.
    std::vector<uint64_t> buf((kTableSize + 4) * n + 1);
    uint64_t* mod = buf.data();
    uint64_t* table = mod + n;
    uint64_t* acc = table + kTableSize * n;
    uint64_t* entry = acc + n;
    Pack(m.limbs_, mod, n);
    uint64_t inv = mod[0];  // Newton: 3 correct bits, doubling per step.
    for (int i = 0; i < 5; ++i) inv *= 2 - mod[0] * inv;
    auto mul = [&](uint64_t* out, const uint64_t* x, const uint64_t* y) {
      MontMul(out, x, y, mod, n, 0 - inv, entry + n);
    };
    // table[k] = b^k in Montgomery form (times R mod m).
    Pack(Mod(ShiftLeft(BigInt(1), 64 * n), m).limbs_, table, n);
    Pack(Mod(ShiftLeft(b, 64 * n), m).limbs_, table + n, n);
    for (size_t k = 2; k < kTableSize; ++k) {
      mul(table + k * n, table + (k - 1) * n, table + n);
    }
    auto select = [&](uint64_t w, uint64_t* out) {
      std::fill(out, out + n, 0);
      for (uint64_t k = 0; k < kTableSize; ++k) {
        uint64_t d = k ^ w;
        uint64_t hit = ((d | (0 - d)) >> 63) - 1;  // All ones iff k == w.
        for (size_t j = 0; j < n; ++j) out[j] |= table[k * n + j] & hit;
      }
    };
    auto window = [&exp](size_t w) -> uint64_t {
      return (exp.limbs_[w * kWindowBits / 32] >> (w * kWindowBits % 32)) &
             (kTableSize - 1);
    };
    size_t windows = (exp.BitLength() + kWindowBits - 1) / kWindowBits;
    select(window(windows - 1), acc);
    for (size_t w = windows - 1; w-- > 0;) {
      for (size_t s = 0; s < kWindowBits; ++s) mul(acc, acc, acc);
      select(window(w), entry);
      mul(acc, acc, entry);
    }
    // Leave Montgomery form: multiply by 1.
    std::fill(entry, entry + n, 0);
    entry[0] = 1;
    mul(acc, acc, entry);
    std::vector<uint32_t> out(2 * n);
    for (size_t j = 0; j < 2 * n; ++j) {
      out[j] = static_cast<uint32_t>(acc[j / 2] >> (32 * (j % 2)));
    }
    return FromLimbs(std::move(out));
  }

  if (b.IsZero()) return BigInt();
  // Even modulus: plain square-and-multiply (not on RSA hot paths).
  BigInt result(1);
  BigInt acc = b;
  size_t bits = exp.BitLength();
  for (size_t i = 0; i < bits; ++i) {
    if (exp.GetBit(i)) result = ModMul(result, acc, m);
    if (i + 1 < bits) acc = ModMul(acc, acc, m);
  }
  return result;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a, y = b;
  while (!y.IsZero()) {
    BigInt r = Mod(x, y);
    x = y;
    y = r;
  }
  return x;
}

bool BigInt::ModInverse(const BigInt& a, const BigInt& m, BigInt* out) {
  // Extended Euclid with explicit sign tracking for the Bezout coefficient.
  BigInt r0 = m, r1 = Mod(a, m);
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.IsZero()) {
    BigInt q, r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q * t1 with signs.
    BigInt qt1 = Mul(q, t1);
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // t0 and q*t1 have the same sign: result sign depends on magnitudes.
      if (t0.Compare(qt1) >= 0) {
        t2 = Sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt1);
      t2_neg = t0_neg;
    }
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
  }
  if (!r0.IsOne()) return false;  // Not coprime.
  if (t0_neg) t0 = Sub(m, Mod(t0, m));
  *out = Mod(t0, m);
  return true;
}

BigInt BigInt::RandomWithBits(size_t bits, Rng& rng) {
  assert(bits > 0);
  size_t bytes = (bits + 7) / 8;
  Bytes b = rng.NextBytes(bytes);
  // Clear excess top bits, then force the top bit.
  size_t excess = bytes * 8 - bits;
  b[0] &= static_cast<uint8_t>(0xFF >> excess);
  b[0] |= static_cast<uint8_t>(0x80 >> excess);
  return FromBytes(b);
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng& rng) {
  assert(!bound.IsZero());
  size_t bits = bound.BitLength();
  size_t bytes = (bits + 7) / 8;
  for (;;) {
    Bytes b = rng.NextBytes(bytes);
    size_t excess = bytes * 8 - bits;
    b[0] &= static_cast<uint8_t>(0xFF >> excess);
    BigInt x = FromBytes(b);
    if (x.Compare(bound) < 0) return x;
  }
}

}  // namespace sharoes::crypto
