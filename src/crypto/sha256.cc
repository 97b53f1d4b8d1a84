#include "crypto/sha256.h"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define SHAROES_SHA_ACCEL_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sharoes::crypto {

namespace {

std::atomic<bool> g_force_portable{false};

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void CompressPortable(uint32_t state[8], const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
           static_cast<uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if SHAROES_SHA_ACCEL_X86

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx >> 29) & 1;
  return sha && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

/// SHA-NI compression of `n` blocks. The state is kept as the two
/// registers SHA256RNDS2 works on, ABEF and CDGH; each 4-round group adds
/// its constants to a message schedule vector, and SHA256MSG1/MSG2
/// extend the schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t n) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                 // CDAB.
  state1 = _mm_shuffle_epi32(state1, 0x1B);           // EFGH.
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF.
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH.

  for (; n > 0; --n, data += kSha256BlockSize) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = msg[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            kByteSwap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (g >= 3 && g <= 14) {
        // Words 4(g+1)..4(g+1)+3 of the schedule.
        __m128i& next = msg[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
      if (g >= 1 && g <= 12) {
        __m128i& prev = msg[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA.
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG.
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA.
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE.
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#else

bool CpuHasShaNi() { return false; }
void CompressShaNi(uint32_t*, const uint8_t*, size_t) {}

#endif  // SHAROES_SHA_ACCEL_X86

}  // namespace

bool Sha256AccelAvailable() {
  static const bool has = CpuHasShaNi();
  return has;
}

bool Sha256AccelActive() {
  return Sha256AccelAvailable() &&
         !g_force_portable.load(std::memory_order_relaxed);
}

void ForceSha256Portable(bool portable) {
  g_force_portable.store(portable, std::memory_order_relaxed);
}

void Sha256::Reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t n) {
  if (Sha256AccelActive()) {
    CompressShaNi(state_.data(), data, n);
    return;
  }
  for (; n > 0; --n, data += kSha256BlockSize) {
    CompressPortable(state_.data(), data);
  }
}

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, kSha256BlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kSha256BlockSize) {
      ProcessBlocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const size_t whole = len / kSha256BlockSize;
  if (whole > 0) {
    ProcessBlocks(data, whole);
    data += whole * kSha256BlockSize;
    len -= whole * kSha256BlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Bytes Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80 then zeros until 8 bytes remain in the block, then the
  // big-endian bit length.
  uint8_t pad[kSha256BlockSize * 2];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  size_t rem = (buffer_len_ + 1) % kSha256BlockSize;
  size_t zeros = (rem <= 56) ? (56 - rem) : (56 + kSha256BlockSize - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  Update(pad, pad_len);

  Bytes digest(kSha256DigestSize);
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Bytes Sha256Digest(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace sharoes::crypto
