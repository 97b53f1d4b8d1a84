// Concurrent SSP serving-path benchmark: 1/2/4/8 client threads running
// a mixed put/get workload against the shard-striped ObjectStore versus
// the single-lock baseline (an ObjectStore constructed with 1 shard,
// which degrades to one global mutex — the pre-sharding design). Extends
// the Figure-10-style sweeps to the multi-client axis the paper's
// "enterprise of users" implies.
//
//   ./bench_concurrent_ssp
//   ./bench_concurrent_ssp --benchmark_filter='shards:16'
//
// ops_per_sec counters are directly comparable across rows; the
// acceptance bar for the sharded store is >1.5x the 1-shard baseline at
// 4 threads.
//
// NOTE: the comparison requires real cores. On a single-CPU host the
// scheduler time-slices all worker threads onto one core and glibc's
// unfair lock handoff lets whichever thread is running re-acquire the
// single lock for its whole quantum, so the two configurations converge
// (the bench prints a warning). Run on >=2 cores (e.g. the CI runners)
// to see the striping win.

#include <benchmark/benchmark.h>

#include <barrier>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "ssp/ssp_server.h"

namespace {

using sharoes::Bytes;
using sharoes::fs::InodeNum;
using sharoes::ssp::ObjectRef;
using sharoes::ssp::ObjectStore;
using sharoes::ssp::Request;
using sharoes::ssp::SspServer;

constexpr int kOpsPerThread = 4000;
constexpr int kKeysPerThread = 256;

// Each thread works a private inode range (distinct users/files, the
// common enterprise case) with a 50/50 put/get mix, plus an occasional
// read of a shared hot inode so shards see some cross-thread sharing.
void StoreWorker(ObjectStore& store, int t, const Bytes& payload) {
  const InodeNum base = static_cast<InodeNum>(t + 1) * 1'000'000;
  for (int i = 0; i < kOpsPerThread; ++i) {
    InodeNum inode = base + static_cast<InodeNum>(i % kKeysPerThread);
    if (i % 2 == 0) {
      store.Put(ObjectRef::Data(inode, 0), payload);
    } else {
      benchmark::DoNotOptimize(store.Get(ObjectRef::Data(inode, 0)));
    }
    if (i % 16 == 0) {
      // The shared hot key.
      benchmark::DoNotOptimize(store.Get(ObjectRef::Metadata(1, 0)));
    }
  }
}

void RunThreadPack(int threads, const std::function<void(int)>& body) {
  std::barrier start(threads);
  std::vector<std::thread> pack;
  pack.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pack.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t);
    });
  }
  for (std::thread& th : pack) th.join();
}

// range(0) = client threads, range(1) = shard count (1 = the single-lock
// baseline, 16 = the striped default).
void BM_StoreMixedOps(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  const Bytes payload(256, 0xAB);
  for (auto _ : state) {
    ObjectStore store(shards);
    store.Put(ObjectRef::Metadata(1, 0), payload);  // The shared hot key.
    RunThreadPack(threads,
                  [&](int t) { StoreWorker(store, t, payload); });
  }
  const int64_t total_ops =
      state.iterations() * threads * static_cast<int64_t>(kOpsPerThread);
  state.SetItemsProcessed(total_ops);
  state.counters["ops_per_sec"] = benchmark::Counter(
      static_cast<double>(total_ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StoreMixedOps)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 16}})
    ->ArgNames({"threads", "shards"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same sweep through the full serving path (wire decode -> dispatch
// -> store -> wire encode), i.e. what each TcpSspDaemon connection thread
// executes per request.
void BM_ServerHandleWire(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  const Bytes payload(256, 0xCD);
  for (auto _ : state) {
    SspServer server{ObjectStore(shards)};
    RunThreadPack(threads, [&](int t) {
      const InodeNum base = static_cast<InodeNum>(t + 1) * 1'000'000;
      for (int i = 0; i < kOpsPerThread; ++i) {
        InodeNum inode = base + static_cast<InodeNum>(i % kKeysPerThread);
        Bytes wire = (i % 2 == 0)
                         ? Request::PutData(inode, 0, payload).Serialize()
                         : Request::GetData(inode, 0).Serialize();
        benchmark::DoNotOptimize(server.HandleWire(wire));
      }
    });
  }
  const int64_t total_ops =
      state.iterations() * threads * static_cast<int64_t>(kOpsPerThread);
  state.SetItemsProcessed(total_ops);
  state.counters["ops_per_sec"] = benchmark::Counter(
      static_cast<double>(total_ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServerHandleWire)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 16}})
    ->ArgNames({"threads", "shards"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  if (std::thread::hardware_concurrency() <= 1) {
    std::fprintf(stderr,
                 "bench_concurrent_ssp: WARNING: only 1 CPU online; thread "
                 "sweeps are time-sliced and the sharded-vs-single-lock "
                 "ratio will not reflect multicore scaling.\n");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
