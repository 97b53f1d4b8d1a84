// Micro-benchmarks of the from-scratch crypto primitives underlying the
// cost model: AES-128-CTR, AES-128-GCM (portable and AES-NI/CLMUL),
// SHA-256, HMAC, RSA public/private operations and the ESIGN-substitute
// signatures. These are real wall-clock numbers on the build machine;
// the calibrated virtual costs used in the paper reproduction are
// documented in crypto/keys.h and are NOT derived from this binary.
//
// Besides the google-benchmark suite, two special modes back the CI
// crypto job:
//
//   bench_crypto --self-check
//     Cross-checks the AES-NI/CLMUL fast paths byte-for-byte against the
//     portable implementations over a random corpus. Prints SKIP and
//     exits 0 on CPUs without the extensions.
//
//   bench_crypto --json <path>
//     Writes a GiB/s throughput table (aes_ctr / ghash / gcm_seal /
//     gcm_open, portable and accelerated, 4 KiB and 1 MiB payloads) and
//     a microseconds-per-op RSA table (512-bit sign / verify / keygen,
//     2048-bit public / private op) as JSON — the BENCH_crypto.json
//     artifact.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/aes_accel.h"
#include "crypto/ctr.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace sharoes::crypto {
namespace {

Rng& BenchRng() {
  static Rng* rng = new Rng(0xBEBC);
  return *rng;
}

const RsaKeyPair& Rsa2048() {
  static RsaKeyPair* kp =
      new RsaKeyPair(GenerateRsaKeyPair(2048, BenchRng()));
  return *kp;
}

const RsaKeyPair& Rsa512() {
  static RsaKeyPair* kp = new RsaKeyPair(GenerateRsaKeyPair(512, BenchRng()));
  return *kp;
}

// ---------------------------------------------------------------------
// Portable CTR reference (the exact ctr.cc fallback loop), used both to
// cross-check CtrXorAccel and as the portable aes_ctr throughput row.
// ---------------------------------------------------------------------

Bytes PortableCtr(const Bytes& key, const Bytes& iv, const Bytes& input,
                  size_t ctr_bytes) {
  Aes128 aes(key);
  Bytes out(input.size());
  uint8_t counter[kAesBlockSize];
  std::memcpy(counter, iv.data(), kAesBlockSize);
  uint8_t keystream[kAesBlockSize];
  size_t pos = 0;
  while (pos < input.size()) {
    aes.EncryptBlock(counter, keystream);
    size_t n = std::min(input.size() - pos, kAesBlockSize);
    for (size_t i = 0; i < n; ++i) out[pos + i] = input[pos + i] ^ keystream[i];
    pos += n;
    for (int i = kAesBlockSize - 1; i >= static_cast<int>(16 - ctr_bytes);
         --i) {
      if (++counter[i] != 0) break;
    }
  }
  return out;
}

Bytes AccelCtr(const Bytes& key, const Bytes& iv, const Bytes& input,
               size_t ctr_bytes) {
  AesAccelSchedule sched;
  ExpandKeyAccel(key.data(), &sched);
  uint8_t counter[kAesBlockSize];
  std::memcpy(counter, iv.data(), kAesBlockSize);
  Bytes out(input.size());
  CtrXorAccel(sched, counter, ctr_bytes, input.data(), out.data(),
              input.size());
  return out;
}

// ---------------------------------------------------------------------
// --self-check: byte-for-byte agreement of the fast paths.
// ---------------------------------------------------------------------

int SelfCheck() {
  if (!CpuHasAesClmul()) {
    std::printf("SKIP: CPU lacks AES-NI/PCLMUL/SSSE3; no fast path to "
                "cross-check\n");
    return 0;
  }
  Rng rng(0x5E1F);
  size_t cases = 0;
  for (int iter = 0; iter < 400; ++iter) {
    Bytes key = rng.NextBytes(16);
    Bytes iv = rng.NextBytes(kAesBlockSize);
    Bytes data = rng.NextBytes(rng.NextU64() % 8192);
    // CTR keystream, both counter widths the codebase uses (ctr.cc uses
    // 8, GCM's inc32 uses 4).
    for (size_t ctr_bytes : {4u, 8u}) {
      if (PortableCtr(key, iv, data, ctr_bytes) !=
          AccelCtr(key, iv, data, ctr_bytes)) {
        std::printf("FAIL: CTR mismatch (ctr_bytes=%zu, len=%zu)\n",
                    ctr_bytes, data.size());
        return 1;
      }
      ++cases;
    }
    // Full GCM seal + open, portable vs accelerated, both directions.
    Bytes nonce = rng.NextBytes(kAeadNonceSize);
    Bytes aad = rng.NextBytes(rng.NextU64() % 128);
    ForceAeadImpl(AeadImpl::kPortable);
    Bytes tag_p;
    Bytes ct_p = GcmSeal(key, nonce, aad, data, &tag_p);
    ForceAeadImpl(AeadImpl::kAccelerated);
    Bytes tag_a;
    Bytes ct_a = GcmSeal(key, nonce, aad, data, &tag_a);
    if (ct_p != ct_a || tag_p != tag_a) {
      ResetAeadImpl();
      std::printf("FAIL: GCM seal mismatch (len=%zu)\n", data.size());
      return 1;
    }
    auto open_a = GcmOpen(key, nonce, aad, ct_p, tag_p);
    ForceAeadImpl(AeadImpl::kPortable);
    auto open_p = GcmOpen(key, nonce, aad, ct_a, tag_a);
    ResetAeadImpl();
    if (!open_a.ok() || !open_p.ok() || *open_a != data || *open_p != data) {
      std::printf("FAIL: GCM cross-open mismatch (len=%zu)\n", data.size());
      return 1;
    }
    cases += 2;
  }
  std::printf("OK: %zu cross-implementation cases agree byte-for-byte\n",
              cases);
  return 0;
}

// ---------------------------------------------------------------------
// --json: GiB/s throughput table and RSA latency table.
// ---------------------------------------------------------------------

/// Measures `fn` and returns seconds per call.
template <typename Fn>
double SecondsPerCall(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // Warm-up (key schedules, caches).
  size_t iters = 1;
  for (;;) {
    auto start = clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    double secs = std::chrono::duration<double>(clock::now() - start).count();
    if (secs >= 0.05) return secs / static_cast<double>(iters);
    iters *= 4;
  }
}

/// Measures `fn` (which processes `bytes` per call) and returns GiB/s.
template <typename Fn>
double Throughput(size_t bytes, Fn&& fn) {
  return static_cast<double>(bytes) / SecondsPerCall(fn) /
         (1024.0 * 1024.0 * 1024.0);
}

struct JsonRow {
  const char* primitive;
  const char* impl;
  size_t size;
  double gib_s;
};

int WriteJson(const std::string& path) {
  Rng rng(0x71B5);
  Bytes key = rng.NextBytes(16);
  Bytes iv = rng.NextBytes(kAesBlockSize);
  Bytes nonce = rng.NextBytes(kAeadNonceSize);
  std::vector<JsonRow> rows;
  std::vector<const char*> impls = {"portable"};
  if (CpuHasAesClmul()) impls.push_back("accelerated");

  for (size_t size : {size_t{4096}, size_t{1} << 20}) {
    Bytes data = rng.NextBytes(size);
    Bytes tag;
    Bytes ct = GcmSeal(key, nonce, {}, data, &tag);
    for (const char* impl : impls) {
      bool accel = std::strcmp(impl, "accelerated") == 0;
      ForceAeadImpl(accel ? AeadImpl::kAccelerated : AeadImpl::kPortable);
      rows.push_back({"aes_ctr", impl, size,
                      Throughput(size, [&] {
                        benchmark::DoNotOptimize(
                            accel ? AccelCtr(key, iv, data, 8)
                                  : PortableCtr(key, iv, data, 8));
                      })});
      // GHASH-dominated: authenticate `size` bytes of AAD, empty payload.
      rows.push_back({"ghash", impl, size,
                      Throughput(size, [&] {
                        Bytes t;
                        benchmark::DoNotOptimize(
                            GcmSeal(key, nonce, data, {}, &t));
                      })});
      rows.push_back({"gcm_seal", impl, size,
                      Throughput(size, [&] {
                        Bytes t;
                        benchmark::DoNotOptimize(
                            GcmSeal(key, nonce, {}, data, &t));
                      })});
      rows.push_back({"gcm_open", impl, size,
                      Throughput(size, [&] {
                        benchmark::DoNotOptimize(
                            GcmOpen(key, nonce, {}, ct, tag));
                      })});
    }
  }
  ResetAeadImpl();

  Bytes msg = rng.NextBytes(100);
  Bytes sig = RsaSign(Rsa512().priv, msg);
  Bytes ct = *RsaEncryptBlock(Rsa2048().pub, msg, rng);
  auto micros = [](auto&& fn) { return 1e6 * SecondsPerCall(fn); };
  std::vector<std::pair<const char*, double>> rsa_us = {
      {"rsa512_sign", micros([&] {
         benchmark::DoNotOptimize(RsaSign(Rsa512().priv, msg));
       })},
      {"rsa512_verify", micros([&] {
         benchmark::DoNotOptimize(RsaVerify(Rsa512().pub, msg, sig));
       })},
      {"rsa2048_public", micros([&] {
         benchmark::DoNotOptimize(RsaEncryptBlock(Rsa2048().pub, msg, rng));
       })},
      {"rsa2048_private", micros([&] {
         benchmark::DoNotOptimize(RsaDecryptBlock(Rsa2048().priv, ct));
       })},
      {"rsa512_keygen", micros([&] {
         benchmark::DoNotOptimize(GenerateRsaKeyPair(512, rng));
       })},
  };

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAIL: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"crypto\",\n  \"unit\": \"GiB/s\",\n");
  std::fprintf(f, "  \"aes_accel_available\": %s,\n",
               CpuHasAesClmul() ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"primitive\": \"%s\", \"impl\": \"%s\", "
                 "\"size_bytes\": %zu, \"gib_per_s\": %.4f}%s\n",
                 rows[i].primitive, rows[i].impl, rows[i].size, rows[i].gib_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"rsa_unit\": \"us\",\n  \"rsa\": [\n");
  for (size_t i = 0; i < rsa_us.size(); ++i) {
    std::fprintf(f, "    {\"op\": \"%s\", \"us_per_op\": %.2f}%s\n",
                 rsa_us[i].first, rsa_us[i].second,
                 i + 1 < rsa_us.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  for (const JsonRow& r : rows) {
    std::printf("%-9s %-12s %8zu B  %8.3f GiB/s\n", r.primitive, r.impl,
                r.size, r.gib_s);
  }
  for (const auto& [op, us] : rsa_us) {
    std::printf("%-15s %12.2f us/op\n", op, us);
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// ---------------------------------------------------------------------
// google-benchmark suite.
// ---------------------------------------------------------------------

void BM_Sha256(benchmark::State& state) {
  Bytes data = BenchRng().NextBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = BenchRng().NextBytes(16);
  Bytes data = BenchRng().NextBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void BM_AesCtrEncrypt(benchmark::State& state) {
  Bytes key = BenchRng().NextBytes(16);
  Bytes iv = FreshIv(BenchRng());
  Bytes data = BenchRng().NextBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CtrEncrypt(key, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtrEncrypt)->Arg(4096)->Arg(1 << 20);

void BM_GcmSeal(benchmark::State& state) {
  // range(1): 0 = portable, 1 = accelerated.
  bool accel = state.range(1) != 0;
  if (accel && !AesAccelAvailable()) {
    state.SkipWithError("CPU lacks AES-NI/PCLMUL");
    return;
  }
  ForceAeadImpl(accel ? AeadImpl::kAccelerated : AeadImpl::kPortable);
  Bytes key = BenchRng().NextBytes(16);
  Bytes nonce = BenchRng().NextBytes(kAeadNonceSize);
  Bytes data = BenchRng().NextBytes(state.range(0));
  for (auto _ : state) {
    Bytes tag;
    benchmark::DoNotOptimize(GcmSeal(key, nonce, {}, data, &tag));
  }
  ResetAeadImpl();
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmSeal)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

void BM_GcmOpen(benchmark::State& state) {
  bool accel = state.range(1) != 0;
  if (accel && !AesAccelAvailable()) {
    state.SkipWithError("CPU lacks AES-NI/PCLMUL");
    return;
  }
  ForceAeadImpl(accel ? AeadImpl::kAccelerated : AeadImpl::kPortable);
  Bytes key = BenchRng().NextBytes(16);
  Bytes nonce = BenchRng().NextBytes(kAeadNonceSize);
  Bytes data = BenchRng().NextBytes(state.range(0));
  Bytes tag;
  Bytes ct = GcmSeal(key, nonce, {}, data, &tag);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GcmOpen(key, nonce, {}, ct, tag));
  }
  ResetAeadImpl();
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmOpen)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

void BM_RsaKeygen512(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateRsaKeyPair(512, BenchRng()));
  }
}
BENCHMARK(BM_RsaKeygen512);

// Every RSA row touches its lazily generated key before the timed loop,
// so key generation never lands inside the measurement.
void BM_Rsa2048PublicOp(benchmark::State& state) {
  Rsa2048();
  Bytes msg = BenchRng().NextBytes(100);
  for (auto _ : state) {
    auto ct = RsaEncryptBlock(Rsa2048().pub, msg, BenchRng());
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_Rsa2048PublicOp);

void BM_Rsa2048PrivateOp(benchmark::State& state) {
  Bytes msg = BenchRng().NextBytes(100);
  auto ct = RsaEncryptBlock(Rsa2048().pub, msg, BenchRng());
  for (auto _ : state) {
    auto pt = RsaDecryptBlock(Rsa2048().priv, *ct);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_Rsa2048PrivateOp);

void BM_EsignSubstituteSign(benchmark::State& state) {
  // RSA-512 signatures stand in for ESIGN (paper: "over an order of
  // magnitude faster" than RSA-2048 — compare with BM_Rsa2048PrivateOp).
  Rsa512();
  Bytes msg = BenchRng().NextBytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaSign(Rsa512().priv, msg));
  }
}
BENCHMARK(BM_EsignSubstituteSign);

void BM_EsignSubstituteVerify(benchmark::State& state) {
  Bytes msg = BenchRng().NextBytes(256);
  Bytes sig = RsaSign(Rsa512().priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaVerify(Rsa512().pub, msg, sig));
  }
}
BENCHMARK(BM_EsignSubstituteVerify);

}  // namespace
}  // namespace sharoes::crypto

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) {
      return sharoes::crypto::SelfCheck();
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return sharoes::crypto::WriteJson(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
