// Open-loop SLO load harness (DESIGN.md §14): N client threads drive a
// live TcpSspDaemon over loopback with Poisson arrivals at a fixed
// offered rate, a Zipf-popular shared read set, and private per-thread
// write sets — then report p50/p99/p999 per op from the obs histograms
// and pull the daemon's own view of the run through the admin RPCs
// (kGetStats with a prefix, kGetTraces for slow-request timelines).
//
// Open-loop means arrivals are scheduled ahead of time and latency is
// measured from the *scheduled* arrival, not from when the client got
// around to sending: a stalled server inflates the tail instead of
// silently thinning the offered load (no coordinated omission).
//
// Two latency views per op:
//   latency_us  = completion - scheduled Poisson arrival (queueing incl.)
//   service_us  = completion - request start (the op itself)
//
// The harness double-checks the span layer's core invariant on its own
// captured slow requests: each timeline's per-phase durations must sum
// to within 10% of the measured end-to-end time (attribution_ok in
// BENCH_load.json).
//
// Defaults are sized for a 1-CPU CI container (see DESIGN.md §14: the
// absolute numbers are not the point; zero errors, achieved≈offered,
// and trustworthy attribution are).
//
// Usage:
//   bench_load [--seconds N] [--rate OPS_PER_S] [--clients N]
//              [--write-pct P] [--zipf S] [--shared-files K]
//              [--slow-us N] [--port P] [--cluster N] [--replicas K]
//              [--json]
//
// --port P drives an already-running external daemon instead of the
// in-process one (provisioning included — point it at an empty store).
// --cluster N starts N in-process daemons behind a placement ring
// (DESIGN.md §15) and drives them through per-thread ShardedChannels;
// --replicas K adds K-way replication with majority quorums (W = R =
// K/2+1). Cluster runs additionally report per-shard latency
// percentiles and the store-object imbalance ratio (max/min objects
// across daemons) under a "cluster" key in the JSON. After the timed
// run a cluster harness also executes a delete probe (quorum
// put+delete over a raw-key range) followed by one anti-entropy scrub
// pass per node, and reports the tombstone count the deletes left,
// what the scrubbers repaired and GC'd, and the post-scrub tombstone
// count (must be 0 on a healthy cluster) under the same "cluster" key.
// --json writes BENCH_load.json for the CI SLO gate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/identity.h"
#include "core/migration.h"
#include "core/retrying_connection.h"
#include "core/sharded_channel.h"
#include "crypto/keys.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ssp/placement.h"
#include "ssp/scrub.h"
#include "ssp/tcp_service.h"
#include "util/sim_clock.h"

namespace sharoes {
namespace {

constexpr fs::UserId kAlice = 100;
constexpr fs::GroupId kStaff = 500;
constexpr size_t kPrivateFiles = 8;   // Write targets per client thread.
constexpr size_t kFileBytes = 4096;   // One data block per file.

struct Options {
  double seconds = 4.0;
  double rate = 150.0;  // Total offered ops/s across all clients.
  int clients = 4;
  int write_pct = 30;
  double zipf_s = 1.1;
  int shared_files = 32;
  uint64_t slow_us = 2000;  // Low threshold: the harness *wants* captures.
  uint16_t port = 0;        // 0 = start an in-process daemon.
  int cluster = 0;          // >0 = start that many sharded daemons.
  int replicas = 1;         // K; quorums are majority (W = R = K/2+1).
  bool json = false;
};

Bytes PatternBytes(size_t n, uint32_t salt) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>((i * 131 + salt * 17) & 0xFF);
  }
  return b;
}

/// Zipf(s) sampler over [0, n): precomputed CDF + binary search.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s) : cdf_(static_cast<size_t>(n)) {
    double acc = 0;
    for (int i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<size_t>(i)] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  int Sample(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::unique_ptr<crypto::CryptoEngine> MakeEngine(SimClock* clock,
                                                 uint64_t seed) {
  crypto::CryptoEngineOptions opts;
  opts.cost_model = crypto::CryptoCostModel::Zero();
  opts.signing_key_bits = 512;
  opts.rng_seed = seed;
  return std::make_unique<crypto::CryptoEngine>(clock, opts);
}

constexpr net::TcpTimeouts kTimeouts{/*connect_ms=*/2000, /*send_ms=*/5000,
                                     /*recv_ms=*/5000};

core::RetryingConnection::ChannelFactory TcpFactory(uint16_t port) {
  return [port]() -> Result<std::unique_ptr<ssp::SspChannel>> {
    auto channel = ssp::TcpSspChannel::Connect("127.0.0.1", port, kTimeouts);
    if (!channel.ok()) return channel.status();
    return std::unique_ptr<ssp::SspChannel>(std::move(*channel));
  };
}

/// `--cluster N`: N in-process daemons behind one placement ring. The
/// ring must outlive the servers (each serving thread checks ownership
/// against it per request), so the harness owns both.
struct ClusterHarness {
  ssp::ClusterConfig config;
  std::unique_ptr<ssp::PlacementRing> ring;
  std::vector<std::unique_ptr<ssp::SspServer>> servers;
  std::vector<std::unique_ptr<ssp::TcpSspDaemon>> daemons;
};

Result<std::unique_ptr<ClusterHarness>> StartCluster(int nodes,
                                                     int replicas) {
  auto h = std::make_unique<ClusterHarness>();
  uint32_t k = static_cast<uint32_t>(
      std::min(replicas, nodes) < 1 ? 1 : std::min(replicas, nodes));
  h->config.replication = k;
  h->config.write_quorum = k / 2 + 1;  // Majority quorums: R + W > K
  h->config.read_quorum = k / 2 + 1;   // for every K.
  for (int i = 0; i < nodes; ++i) {
    h->servers.push_back(std::make_unique<ssp::SspServer>());
    // Cluster mode always runs with delete tombstones, exactly like
    // `sharoes_sspd --cluster` (quorum deletes need them to stick).
    h->servers.back()->store().set_tombstones_enabled(true);
    auto daemon = ssp::TcpSspDaemon::Start(h->servers.back().get(), 0);
    if (!daemon.ok()) return daemon.status();
    h->config.nodes.push_back(ssp::ClusterNode{
        static_cast<uint32_t>(i), "127.0.0.1", (*daemon)->port()});
    h->daemons.push_back(std::move(*daemon));
  }
  auto ring = ssp::PlacementRing::Build(h->config);
  if (!ring.ok()) return ring.status();
  h->ring = std::make_unique<ssp::PlacementRing>(std::move(*ring));
  for (int i = 0; i < nodes; ++i) {
    h->servers[static_cast<size_t>(i)]->set_placement(
        h->ring.get(), static_cast<uint32_t>(i));
  }
  return h;
}

std::unique_ptr<ssp::SspChannel> MakeShardedChannel(
    const ClusterHarness& cluster, uint64_t seed) {
  core::ShardedChannelOptions sopts;
  sopts.seed = seed;
  auto channel = core::ShardedChannel::Create(cluster.config, sopts);
  if (!channel.ok()) {
    std::fprintf(stderr, "bench_load: sharded channel: %s\n",
                 channel.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*channel);
}

/// The enterprise side, provisioned over the wire into the daemon.
struct Enterprise {
  SimClock clock;
  std::unique_ptr<crypto::CryptoEngine> engine;
  core::IdentityDirectory identity;
  crypto::RsaPrivateKey alice_key;
};

std::unique_ptr<Enterprise> Provision(ssp::SspChannel* admin) {
  auto ent = std::make_unique<Enterprise>();
  ent->engine = MakeEngine(&ent->clock, 4242);
  core::Provisioner::Options popts;
  popts.user_key_bits = 512;
  core::Provisioner prov(&ent->identity, /*server=*/nullptr,
                         ent->engine.get(), popts);
  prov.set_remote_channel(admin);
  auto alice = prov.CreateUser(kAlice, "alice");
  if (!alice.ok()) return nullptr;
  ent->alice_key = alice->priv;
  if (!prov.CreateGroup(kStaff, "staff", {kAlice}).ok()) return nullptr;
  core::LocalNode root = core::LocalNode::Dir("", kAlice, kStaff,
                                              fs::Mode::FromOctal(0755));
  if (!prov.Migrate(root).ok()) return nullptr;
  return ent;
}

std::unique_ptr<core::SharoesClient> MakeClient(Enterprise* ent,
                                                ssp::SspChannel* channel,
                                                crypto::CryptoEngine* engine) {
  core::ClientOptions copts;
  copts.default_group = kStaff;
  return std::make_unique<core::SharoesClient>(
      kAlice, ent->alice_key, &ent->identity, channel, engine, copts);
}

/// Per-thread tallies; percentiles come from the shared obs histograms.
struct ThreadResult {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;
  uint64_t max_latency_us = 0;
};

struct LoadMetrics {
  obs::Histogram* read_latency;
  obs::Histogram* read_service;
  obs::Histogram* write_latency;
  obs::Histogram* write_service;
  /// Cluster runs: end-to-end latency per primary shard (both ops).
  std::vector<obs::Histogram*> shard_latency;
};

LoadMetrics RegisterLoadMetrics(int shards) {
  auto& reg = obs::MetricsRegistry::Global();
  LoadMetrics m{reg.histogram("bench.load.latency_us.read"),
                reg.histogram("bench.load.service_us.read"),
                reg.histogram("bench.load.latency_us.write"),
                reg.histogram("bench.load.service_us.write"),
                {}};
  for (int k = 0; k < shards; ++k) {
    m.shard_latency.push_back(
        reg.histogram("bench.load.shard" + std::to_string(k) +
                      ".latency_us"));
  }
  return m;
}

/// Start-line barrier: every thread provisions its private files, checks
/// in, and blocks until the main thread fires the gun — so the measured
/// window contains load, not setup.
class StartGate {
 public:
  explicit StartGate(int n) : waiting_for_(n) {}
  void CheckIn() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--waiting_for_ == 0) ready_.notify_all();
    go_.wait(lock, [&] { return started_; });
  }
  void WaitReady() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return waiting_for_ == 0; });
  }
  void Fire() {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    go_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable ready_;
  std::condition_variable go_;
  int waiting_for_;
  bool started_ = false;
};

void RunClientThread(int t, const Options& opt, uint16_t port,
                     const ClusterHarness* cluster,
                     const std::vector<int>* shard_of_shared,
                     Enterprise* ent, const ZipfSampler* zipf,
                     const LoadMetrics* metrics, StartGate* gate,
                     std::chrono::steady_clock::time_point* start_out,
                     ThreadResult* out) {
  SimClock clock;
  auto engine = MakeEngine(&clock, 1000 + static_cast<uint64_t>(t));
  std::unique_ptr<ssp::SspChannel> channel;
  if (cluster != nullptr) {
    channel = MakeShardedChannel(*cluster, 9000 + static_cast<uint64_t>(t));
  } else {
    core::RetryOptions retry;
    retry.seed = 9000 + static_cast<uint64_t>(t);
    channel = std::make_unique<core::RetryingConnection>(TcpFactory(port),
                                                         retry);
  }
  if (channel == nullptr) {
    out->errors += 1;
    gate->CheckIn();
    return;
  }
  auto client = MakeClient(ent, channel.get(), engine.get());
  if (!client->Mount().ok()) {
    out->errors += 1;
    gate->CheckIn();
    return;
  }
  // Private write set: /p<t>/f0..f7, one block each.
  std::string dir = "/p" + std::to_string(t);
  core::CreateOptions dopts;
  dopts.mode = fs::Mode::FromOctal(0755);
  core::CreateOptions fopts;
  fopts.mode = fs::Mode::FromOctal(0644);
  bool setup_ok = client->Mkdir(dir, dopts).ok();
  std::vector<int> shard_of_private(kPrivateFiles, -1);
  for (size_t j = 0; setup_ok && j < kPrivateFiles; ++j) {
    std::string path = dir + "/f" + std::to_string(j);
    setup_ok = client->Create(path, fopts).ok() &&
               client->WriteFile(
                         path, PatternBytes(kFileBytes,
                                            static_cast<uint32_t>(t * 100 +
                                                                  j)))
                   .ok();
    if (setup_ok && cluster != nullptr) {
      // Write latency is attributed to the file's primary shard (the
      // write itself fans out to all K replicas).
      auto attrs = client->Getattr(path);
      if (attrs.ok()) {
        shard_of_private[j] = static_cast<int>(
            cluster->ring->PrimaryIndexFor(attrs->inode));
      }
    }
  }
  gate->CheckIn();
  if (!setup_ok) {
    out->errors += 1;
    return;
  }

  const auto start = *start_out;
  const auto deadline =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(opt.seconds * 1e6));
  std::mt19937_64 rng(77 + static_cast<uint64_t>(t));
  const double per_thread_rate = opt.rate / opt.clients;
  std::exponential_distribution<double> gap(per_thread_rate);
  std::uniform_int_distribution<int> mix(0, 99);
  auto arrival = start;
  uint64_t iter = 0;
  while (true) {
    arrival += std::chrono::microseconds(
        static_cast<int64_t>(gap(rng) * 1e6));
    if (arrival >= deadline) break;
    std::this_thread::sleep_until(arrival);
    const bool is_write = mix(rng) < opt.write_pct;
    const auto op_start = std::chrono::steady_clock::now();
    Status s = Status::OK();
    int shard = -1;
    if (is_write) {
      const size_t slot = iter % kPrivateFiles;
      std::string path = dir + "/f" + std::to_string(slot);
      s = client->WriteFile(
          path, PatternBytes(kFileBytes,
                             static_cast<uint32_t>(t * 100 + iter)));
      shard = shard_of_private[slot];
    } else {
      const int pick = zipf->Sample(rng);
      std::string path = "/shared/f" + std::to_string(pick);
      // Re-open the object (keep the dcache warm): every read refetches
      // metadata and the descriptor from the daemon, and asks for the
      // chunk blocks it already holds by digest (DESIGN.md §19).
      (void)client->EvictPath(path);
      auto content = client->Read(path);
      s = content.status();
      if (shard_of_shared != nullptr) {
        shard = (*shard_of_shared)[static_cast<size_t>(pick)];
      }
    }
    const auto end = std::chrono::steady_clock::now();
    ++iter;
    if (!s.ok()) {
      out->errors += 1;
      continue;
    }
    const uint64_t latency_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - arrival)
            .count());
    const uint64_t service_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - op_start)
            .count());
    out->max_latency_us = std::max(out->max_latency_us, latency_us);
    if (shard >= 0 &&
        shard < static_cast<int>(metrics->shard_latency.size())) {
      metrics->shard_latency[static_cast<size_t>(shard)]->Record(latency_us);
    }
    if (is_write) {
      out->writes += 1;
      metrics->write_latency->Record(latency_us);
      metrics->write_service->Record(service_us);
    } else {
      out->reads += 1;
      metrics->read_latency->Record(latency_us);
      metrics->read_service->Record(service_us);
    }
  }
}

/// Periodic kGetStats/kGetTraces scraper — the operator loop the admin
/// RPCs exist for, run against the live daemon while it serves load.
void RunScraper(uint16_t port, std::atomic<bool>* stop, uint64_t* scrapes,
                std::string* last_stats, std::string* last_traces) {
  auto channel = ssp::TcpSspChannel::Connect("127.0.0.1", port);
  if (!channel.ok()) return;
  while (!stop->load(std::memory_order_acquire)) {
    auto stats = (*channel)->Call(ssp::Request::GetStats("ssp."));
    auto traces = (*channel)->Call(ssp::Request::GetTraces());
    if (stats.ok() && stats->ok() && traces.ok() && traces->ok()) {
      // kGetStats answers a binary snapshot; the report embeds its JSON.
      auto snap = obs::RegistrySnapshot::DeserializeBinary(stats->payload);
      if (snap.ok()) {
        ++*scrapes;
        *last_stats = snap->ToJson();
        last_traces->assign(traces->payload.begin(), traces->payload.end());
      }
    }
    for (int i = 0; i < 5 && !stop->load(std::memory_order_acquire); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

struct Attribution {
  uint64_t checked = 0;
  uint64_t ok = 0;
  double worst_off_pct = 0;  // Largest |phase_sum - total| / total seen.
};

/// The acceptance check: every captured timeline's phase durations must
/// sum to within 10% of its measured end-to-end time. Exclusive-time
/// attribution makes this hold by construction (only µs truncation per
/// phase leaks); the harness verifies it on live data anyway.
Attribution CheckAttribution(const obs::SpanCollector::Snapshot& snap) {
  Attribution a;
  auto check = [&](const obs::SpanRecord& r) {
    if (r.total_us == 0) return;
    a.checked += 1;
    const double off =
        std::abs(static_cast<double>(r.PhaseSumUs()) -
                 static_cast<double>(r.total_us)) /
        static_cast<double>(r.total_us);
    a.worst_off_pct = std::max(a.worst_off_pct, off * 100.0);
    if (off <= 0.10) a.ok += 1;
  };
  for (const auto& r : snap.slow) check(r);
  for (const auto& r : snap.slowest) check(r);
  return a;
}

void EmitOp(obs::JsonObjectWriter* w, const char* key, uint64_t count,
            const obs::HistogramSnapshot& latency,
            const obs::HistogramSnapshot& service) {
  w->BeginObject(key);
  w->Field("count", count);
  w->BeginObject("latency_us");
  w->Field("p50", latency.Percentile(0.50));
  w->Field("p99", latency.Percentile(0.99));
  w->Field("p999", latency.Percentile(0.999));
  w->Field("mean", latency.Mean());
  w->Field("max", latency.max);
  w->EndObject();
  w->BeginObject("service_us");
  w->Field("p50", service.Percentile(0.50));
  w->Field("p99", service.Percentile(0.99));
  w->Field("p999", service.Percentile(0.999));
  w->Field("mean", service.Mean());
  w->Field("max", service.max);
  w->EndObject();
  w->EndObject();
}

int Run(const Options& opt) {
  // 1. Live daemons: one in-process by default, N sharded ones behind a
  // placement ring via --cluster, an external one via --port. All the
  // in-process modes share our process's metrics registry and span
  // collector.
  ssp::SspServer server;
  std::unique_ptr<ssp::TcpSspDaemon> daemon;
  std::unique_ptr<ClusterHarness> cluster;
  uint16_t port = opt.port;
  if (opt.cluster > 0) {
    auto started = StartCluster(opt.cluster, opt.replicas);
    if (!started.ok()) {
      std::fprintf(stderr, "bench_load: cluster: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    cluster = std::move(*started);
    // Admin ops are pinned to node 0; the scraper talks to it directly.
    port = cluster->config.nodes[0].port;
  } else if (port == 0) {
    auto started = ssp::TcpSspDaemon::Start(&server, 0);
    if (!started.ok()) {
      std::fprintf(stderr, "bench_load: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    daemon = std::move(*started);
    port = daemon->port();
  }
  auto make_channel = [&]() -> std::unique_ptr<ssp::SspChannel> {
    if (cluster != nullptr) return MakeShardedChannel(*cluster, 7);
    return std::make_unique<core::RetryingConnection>(TcpFactory(port),
                                                      core::RetryOptions{});
  };

  // 2. Provision the enterprise and the shared read tree — in cluster
  // mode through a sharded channel, so every object lands on (all of)
  // its owning replicas and nothing trips kWrongShard later.
  std::unique_ptr<Enterprise> ent;
  {
    auto admin = make_channel();
    if (admin == nullptr) return 1;
    ent = Provision(admin.get());
  }
  if (ent == nullptr) {
    std::fprintf(stderr, "bench_load: provisioning failed\n");
    return 1;
  }
  std::vector<int> shard_of_shared;
  {
    SimClock clock;
    auto engine = MakeEngine(&clock, 7);
    auto setup_channel = make_channel();
    if (setup_channel == nullptr) return 1;
    auto setup = MakeClient(ent.get(), setup_channel.get(), engine.get());
    if (!setup->Mount().ok()) {
      std::fprintf(stderr, "bench_load: mount failed\n");
      return 1;
    }
    core::CreateOptions dopts;
    dopts.mode = fs::Mode::FromOctal(0755);
    core::CreateOptions fopts;
    fopts.mode = fs::Mode::FromOctal(0644);
    if (!setup->Mkdir("/shared", dopts).ok()) {
      std::fprintf(stderr, "bench_load: setup failed\n");
      return 1;
    }
    for (int i = 0; i < opt.shared_files; ++i) {
      std::string path = "/shared/f" + std::to_string(i);
      if (!setup->Create(path, fopts).ok() ||
          !setup->WriteFile(path,
                            PatternBytes(kFileBytes,
                                         static_cast<uint32_t>(i)))
               .ok()) {
        std::fprintf(stderr, "bench_load: setup failed at %s\n",
                     path.c_str());
        return 1;
      }
      if (cluster != nullptr) {
        auto attrs = setup->Getattr(path);
        if (!attrs.ok()) {
          std::fprintf(stderr, "bench_load: getattr failed at %s\n",
                       path.c_str());
          return 1;
        }
        shard_of_shared.push_back(static_cast<int>(
            cluster->ring->PrimaryIndexFor(attrs->inode)));
      }
    }
  }

  // 3. Launch the clients; drop setup-phase spans and arm a low slow
  // threshold so the run captures real timelines.
  ZipfSampler zipf(opt.shared_files, opt.zipf_s);
  LoadMetrics metrics = RegisterLoadMetrics(opt.cluster);
  StartGate gate(opt.clients);
  std::vector<ThreadResult> results(static_cast<size_t>(opt.clients));
  std::chrono::steady_clock::time_point start_time;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(opt.clients));
  for (int t = 0; t < opt.clients; ++t) {
    threads.emplace_back(RunClientThread, t, std::cref(opt), port,
                         cluster.get(),
                         cluster != nullptr ? &shard_of_shared : nullptr,
                         ent.get(), &zipf, &metrics, &gate, &start_time,
                         &results[static_cast<size_t>(t)]);
  }
  gate.WaitReady();
  obs::SpanCollector::Global().Reset();
  const uint64_t prev_threshold = obs::SlowRequestThresholdUs();
  obs::SetSlowRequestThresholdUs(opt.slow_us);
  start_time = std::chrono::steady_clock::now();
  gate.Fire();

  std::atomic<bool> stop_scraper{false};
  uint64_t scrapes = 0;
  std::string last_stats, last_traces;
  std::thread scraper(RunScraper, port, &stop_scraper, &scrapes, &last_stats,
                      &last_traces);

  for (auto& th : threads) th.join();
  const auto wall_end = std::chrono::steady_clock::now();
  stop_scraper.store(true, std::memory_order_release);
  scraper.join();
  obs::SetSlowRequestThresholdUs(prev_threshold);

  // 4. Cluster runs: delete probe + anti-entropy pass. The timed
  // workload never deletes, so this exercises the tombstone path on
  // its own raw-key range: quorum put+delete leaves one tombstone per
  // replica, then one scrub pass per node (what each daemon's
  // `--scrub-interval-s` thread does) must GC them all — every replica
  // is healthy, so a full-quorum pass sees tombstone-or-missing
  // everywhere.
  constexpr uint64_t kDeleteProbeBase = 1ull << 30;  // Clear of real inodes.
  constexpr uint64_t kDeleteProbeKeys = 16;
  uint64_t probe_errors = 0;
  uint64_t tombstones_after_deletes = 0, tombstones_after_scrub = 0;
  uint64_t scrub_repaired = 0, scrub_tombstones_gc = 0;
  uint64_t scrub_unreachable = 0;
  if (cluster != nullptr) {
    auto probe = MakeShardedChannel(*cluster, 4242);
    if (probe == nullptr) {
      probe_errors += kDeleteProbeKeys;
    } else {
      for (uint64_t k = 0; k < kDeleteProbeKeys; ++k) {
        const uint64_t inode = kDeleteProbeBase + k;
        auto put = probe->Call(ssp::Request::PutData(
            inode, 0, PatternBytes(64, static_cast<uint32_t>(k))));
        if (!put.ok() || put->status != ssp::RespStatus::kOk) {
          probe_errors += 1;
          continue;
        }
        auto del = probe->Call(ssp::Request::DeleteData(inode, 0));
        if (!del.ok() || del->status != ssp::RespStatus::kOk) {
          probe_errors += 1;
        }
      }
    }
    for (auto& s : cluster->servers) {
      tombstones_after_deletes += s->store().Stats().tombstone_count;
    }
    // Two rounds: if a quorum delete left one replica behind, round one
    // repairs the straggler (blocking that node's GC), round two
    // collects the repaired tombstone. Totals stay deterministic — each
    // tombstone is GC'd exactly once.
    for (int round = 0; round < 2; ++round) {
      for (size_t k = 0; k < cluster->servers.size(); ++k) {
        ssp::Scrubber scrubber(cluster->servers[k].get(), cluster->ring.get(),
                               static_cast<uint32_t>(k), kTimeouts);
        ssp::ScrubPass pass = scrubber.RunOnce();
        scrub_repaired += pass.repaired;
        scrub_tombstones_gc += pass.tombstones_gc;
        scrub_unreachable += pass.unreachable;
      }
    }
    for (auto& s : cluster->servers) {
      tombstones_after_scrub += s->store().Stats().tombstone_count;
    }
  }

  // 5. Tally, check attribution, report.
  const double wall_s =
      std::chrono::duration<double>(wall_end - start_time).count();
  uint64_t reads = 0, writes = 0, errors = 0;
  for (const auto& r : results) {
    reads += r.reads;
    writes += r.writes;
    errors += r.errors;
  }
  errors += probe_errors;  // A failed quorum delete is a run failure too.
  const double achieved = (reads + writes) / wall_s;
  auto read_latency = metrics.read_latency->Snapshot();
  auto read_service = metrics.read_service->Snapshot();
  auto write_latency = metrics.write_latency->Snapshot();
  auto write_service = metrics.write_service->Snapshot();
  auto snap = obs::SpanCollector::Global().Snap();
  Attribution attr = CheckAttribution(snap);
  const bool attribution_ok = attr.checked > 0 && attr.ok == attr.checked;

  std::printf(
      "bench_load: %.1fs at %d clients, offered %.0f op/s "
      "(%d%% writes, zipf %.2f over %d shared files)\n",
      wall_s, opt.clients, opt.rate, opt.write_pct, opt.zipf_s,
      opt.shared_files);
  std::printf("  achieved %.1f op/s (%llu reads, %llu writes, %llu errors)\n",
              achieved, static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(writes),
              static_cast<unsigned long long>(errors));
  auto print_op = [](const char* name, const obs::HistogramSnapshot& lat,
                     const obs::HistogramSnapshot& svc) {
    std::printf(
        "  %-5s latency p50 %6llu  p99 %6llu  p999 %6llu µs"
        "   service p50 %6llu  p99 %6llu  p999 %6llu µs\n",
        name, static_cast<unsigned long long>(lat.Percentile(0.50)),
        static_cast<unsigned long long>(lat.Percentile(0.99)),
        static_cast<unsigned long long>(lat.Percentile(0.999)),
        static_cast<unsigned long long>(svc.Percentile(0.50)),
        static_cast<unsigned long long>(svc.Percentile(0.99)),
        static_cast<unsigned long long>(svc.Percentile(0.999)));
  };
  print_op("read", read_latency, read_service);
  print_op("write", write_latency, write_service);
  std::vector<obs::HistogramSnapshot> shard_snaps;
  std::vector<uint64_t> shard_objects;
  double imbalance = 0;
  if (cluster != nullptr) {
    uint64_t min_objects = 0, max_objects = 0;
    for (size_t k = 0; k < cluster->servers.size(); ++k) {
      shard_snaps.push_back(metrics.shard_latency[k]->Snapshot());
      const uint64_t objects = cluster->servers[k]->store().Stats().object_count;
      shard_objects.push_back(objects);
      min_objects = k == 0 ? objects : std::min(min_objects, objects);
      max_objects = std::max(max_objects, objects);
    }
    imbalance = min_objects > 0
                    ? static_cast<double>(max_objects) /
                          static_cast<double>(min_objects)
                    : static_cast<double>(max_objects);
    std::printf(
        "  cluster: %d nodes, K=%u W=%u R=%u, object imbalance %.2fx\n",
        opt.cluster, cluster->config.replication,
        cluster->config.write_quorum, cluster->config.read_quorum,
        imbalance);
    for (size_t k = 0; k < shard_snaps.size(); ++k) {
      std::printf(
          "    shard %zu: %6llu objects, %6llu ops, latency p50 %6llu "
          "p99 %6llu µs\n",
          k, static_cast<unsigned long long>(shard_objects[k]),
          static_cast<unsigned long long>(shard_snaps[k].count),
          static_cast<unsigned long long>(shard_snaps[k].Percentile(0.50)),
          static_cast<unsigned long long>(shard_snaps[k].Percentile(0.99)));
    }
    std::printf(
        "    delete probe: %llu keys -> %llu tombstones; scrub repaired "
        "%llu, GC'd %llu, %llu left (%llu unreachable)\n",
        static_cast<unsigned long long>(kDeleteProbeKeys),
        static_cast<unsigned long long>(tombstones_after_deletes),
        static_cast<unsigned long long>(scrub_repaired),
        static_cast<unsigned long long>(scrub_tombstones_gc),
        static_cast<unsigned long long>(tombstones_after_scrub),
        static_cast<unsigned long long>(scrub_unreachable));
  }
  std::printf(
      "  spans: %zu slow (threshold %llu µs), %zu slowest-ever; "
      "attribution %llu/%llu within 10%% (worst off %.2f%%)\n",
      snap.slow.size(), static_cast<unsigned long long>(opt.slow_us),
      snap.slowest.size(), static_cast<unsigned long long>(attr.ok),
      static_cast<unsigned long long>(attr.checked), attr.worst_off_pct);
  std::printf("  %llu live kGetStats/kGetTraces scrapes during the run\n",
              static_cast<unsigned long long>(scrapes));
  if (!attribution_ok) {
    std::printf("ERROR: span attribution check failed\n");
  }

  if (opt.json) {
    obs::JsonObjectWriter w;
    w.Field("bench", "load");
    w.Field("mode", cluster != nullptr
                        ? "cluster"
                        : (daemon != nullptr ? "inprocess" : "external"));
    w.Field("duration_s", wall_s);
    w.Field("offered_rate", opt.rate);
    w.Field("achieved_rate", achieved);
    w.Field("clients", static_cast<uint64_t>(opt.clients));
    w.Field("write_pct", static_cast<uint64_t>(opt.write_pct));
    w.Field("zipf_s", opt.zipf_s);
    w.Field("shared_files", static_cast<uint64_t>(opt.shared_files));
    w.Field("slow_threshold_us", opt.slow_us);
    w.Field("errors", errors);
    w.BeginObject("ops");
    EmitOp(&w, "read", reads, read_latency, read_service);
    EmitOp(&w, "write", writes, write_latency, write_service);
    w.EndObject();
    if (cluster != nullptr) {
      w.BeginObject("cluster");
      w.Field("nodes", static_cast<uint64_t>(opt.cluster));
      w.Field("replication",
              static_cast<uint64_t>(cluster->config.replication));
      w.Field("write_quorum",
              static_cast<uint64_t>(cluster->config.write_quorum));
      w.Field("read_quorum",
              static_cast<uint64_t>(cluster->config.read_quorum));
      w.Field("imbalance_ratio", imbalance);
      w.Field("delete_probe_keys", kDeleteProbeKeys);
      w.Field("tombstones_after_deletes", tombstones_after_deletes);
      w.Field("scrub_repaired", scrub_repaired);
      w.Field("scrub_tombstones_gc", scrub_tombstones_gc);
      w.Field("scrub_unreachable", scrub_unreachable);
      w.Field("tombstones_after_scrub", tombstones_after_scrub);
      for (size_t k = 0; k < shard_snaps.size(); ++k) {
        w.BeginObject("shard" + std::to_string(k));
        w.Field("objects", shard_objects[k]);
        w.Field("ops", shard_snaps[k].count);
        w.Field("latency_p50_us", shard_snaps[k].Percentile(0.50));
        w.Field("latency_p99_us", shard_snaps[k].Percentile(0.99));
        w.EndObject();
      }
      w.EndObject();
    }
    w.Field("scrapes", scrapes);
    w.Field("slow_spans_captured", static_cast<uint64_t>(snap.slow.size()));
    w.Field("slowest_spans", static_cast<uint64_t>(snap.slowest.size()));
    w.Field("attribution_checked", attr.checked);
    w.Field("attribution_within_10pct", attr.ok);
    w.Field("attribution_worst_off_pct", attr.worst_off_pct);
    w.Field("attribution_ok", attribution_ok);
    if (!last_traces.empty()) {
      w.RawField("traces", last_traces);
    }
    if (!last_stats.empty()) {
      w.RawField("server_stats", last_stats);
    }
    std::string json = w.Take();
    const char* path = "BENCH_load.json";
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
      std::printf("  wrote %s\n", path);
    } else {
      std::printf("  could not write %s\n", path);
      return 1;
    }
  }
  if (daemon != nullptr) daemon->Shutdown();
  if (cluster != nullptr) {
    for (auto& d : cluster->daemons) d->Shutdown();
  }
  return attribution_ok ? 0 : 1;
}

}  // namespace
}  // namespace sharoes

int main(int argc, char** argv) {
  sharoes::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() { return argv[++i]; };
    if (arg == "--seconds" && i + 1 < argc) {
      opt.seconds = std::atof(next());
    } else if (arg == "--rate" && i + 1 < argc) {
      opt.rate = std::atof(next());
    } else if (arg == "--clients" && i + 1 < argc) {
      opt.clients = std::max(1, std::atoi(next()));
    } else if (arg == "--write-pct" && i + 1 < argc) {
      opt.write_pct = std::atoi(next());
    } else if (arg == "--zipf" && i + 1 < argc) {
      opt.zipf_s = std::atof(next());
    } else if (arg == "--shared-files" && i + 1 < argc) {
      opt.shared_files = std::max(1, std::atoi(next()));
    } else if (arg == "--slow-us" && i + 1 < argc) {
      opt.slow_us = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--port" && i + 1 < argc) {
      opt.port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--cluster" && i + 1 < argc) {
      opt.cluster = std::max(0, std::atoi(next()));
    } else if (arg == "--replicas" && i + 1 < argc) {
      opt.replicas = std::max(1, std::atoi(next()));
    } else if (arg == "--json") {
      opt.json = true;
    } else {
      std::fprintf(stderr, "bench_load: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  return sharoes::Run(opt);
}
