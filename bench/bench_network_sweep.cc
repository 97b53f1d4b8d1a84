// Ablation (the experiment the paper defers to [6], §V-D: "additional
// experimental analysis of SHAROES with varying network characteristics"):
// Create-And-List across link profiles from home DSL to LAN. As the
// network gets faster, crypto costs surface: SHAROES' symmetric-key
// overhead stays small while PUB-OPT's private-key ops come to dominate.
//
// Second experiment (read round trips): the batched read path — coalesced
// path resolution plus readahead windows — against the one-get-per-round-
// trip wire behaviour, on the paper's 45 ms DSL link where round trips
// dominate reads. Round-trip counts come from the simulated transport and
// are fully deterministic, so CI gates on the ratios and on a warm re-read
// making no round trip at all (BENCH_read_rtt.json).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/json.h"
#include "workload/create_list.h"
#include "workload/report.h"

namespace sharoes::workload {
namespace {

struct LinkProfile {
  const char* name;
  net::NetworkModel model;
};

void Run() {
  Heading("Network sweep ablation: Create-And-List LIST phase (s)");
  const LinkProfile profiles[] = {
      {"DSL (paper)", net::NetworkModel::PaperDsl()},
      {"cable 5M/1M, 25ms", {25.0, 1'000'000, 5'000'000, 4.0}},
      {"T1 1.5M sym, 10ms", {10.0, 1'500'000, 1'500'000, 2.0}},
      {"metro 100M, 2ms", {2.0, 100'000'000, 100'000'000, 0.5}},
      {"LAN", net::NetworkModel::Lan()},
  };
  Table table({"link", "NO-ENC-MD-D", "SHAROES", "PUB-OPT",
               "SHAROES vs base", "PUB-OPT vs base"});
  for (const LinkProfile& p : profiles) {
    std::vector<double> list_secs;
    for (SystemVariant v : {SystemVariant::kNoEncMdD, SystemVariant::kSharoes,
                            SystemVariant::kPubOpt}) {
      BenchWorldOptions opts;
      opts.variant = v;
      opts.network = p.model;
      BenchWorld world(opts);
      CreateListParams params;
      CreateListResult r = RunCreateList(world, params);
      list_secs.push_back(r.list.total_s());
    }
    table.AddRow({p.name, Seconds(list_secs[0]), Seconds(list_secs[1]),
                  Seconds(list_secs[2]), Percent(list_secs[1], list_secs[0]),
                  Percent(list_secs[2], list_secs[0])});
  }
  table.Print();
  std::printf(
      "\nExpected shape: the faster the link, the larger PUB-OPT's"
      " relative penalty (fixed 270 ms private-key op per stat), while"
      " SHAROES' symmetric overhead stays modest.\n");
}

/// One file in the cold-read mixes: where it lives and how many 4 KiB
/// data blocks it spans (content of n*4096 bytes yields exactly n blocks).
struct MixFile {
  std::string path;
  uint32_t blocks;
};

Bytes PatternBytes(size_t n, uint8_t salt) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>((i * 131 + salt) & 0xFF);
  }
  return b;
}

/// Fails the run, in every build type, when an op of a mix fails: a mix
/// whose ops do not all succeed measures something else.
void Check(const char* op, const std::string& path, const Status& s) {
  if (s.ok()) return;
  std::fprintf(stderr, "bench_network_sweep: %s %s failed: %s\n", op,
               path.c_str(), s.ToString().c_str());
  std::exit(1);
}

struct ReadRttMeasurement {
  uint64_t round_trips = 0;
  double network_s = 0;
  bool identical = true;
};

/// Provisions the files, drops every cache, then reads each file once
/// cold, checking contents byte-for-byte against what was written. With
/// `warm` set, every file is then read again without dropping caches.
ReadRttMeasurement MeasureColdReads(bool batched,
                                    const std::vector<std::string>& dirs,
                                    const std::vector<MixFile>& files,
                                    ReadRttMeasurement* warm = nullptr) {
  BenchWorldOptions opts;
  opts.variant = SystemVariant::kSharoes;
  opts.network = net::NetworkModel::PaperDsl();
  if (!batched) opts.readahead_blocks = 0;
  BenchWorld world(opts);
  core::CreateOptions dopts;
  dopts.mode = fs::Mode::FromOctal(0755);
  core::CreateOptions fopts;
  fopts.mode = fs::Mode::FromOctal(0644);
  for (const std::string& d : dirs) {
    Check("Mkdir", d, world.client().Mkdir(d, dopts));
  }
  uint8_t salt = 1;
  for (const MixFile& f : files) {
    Check("Create", f.path, world.client().Create(f.path, fopts));
    Check("WriteFile", f.path,
          world.client().WriteFile(
              f.path, PatternBytes(f.blocks * size_t{4096}, salt++)));
  }
  world.Reset();  // Cold caches, zeroed clock and wire counters.

  auto read_all = [&] {
    ReadRttMeasurement m;
    uint64_t trips_before = world.transport().counters().round_trips;
    CostSnapshot cost = world.Measure([&] {
      uint8_t check_salt = 1;
      for (const MixFile& f : files) {
        auto content = world.client().Read(f.path);
        uint8_t want_salt = check_salt++;
        if (!content.ok() ||
            *content != PatternBytes(f.blocks * size_t{4096}, want_salt)) {
          m.identical = false;
        }
      }
    });
    m.round_trips = world.transport().counters().round_trips - trips_before;
    m.network_s = static_cast<double>(cost.network_ns()) / 1e9;
    return m;
  };
  ReadRttMeasurement cold = read_all();
  if (warm != nullptr) *warm = read_all();
  return cold;
}

void EmitScenario(obs::JsonObjectWriter* w, const char* key,
                  const ReadRttMeasurement& batched,
                  const ReadRttMeasurement& unbatched) {
  w->BeginObject(key);
  w->Field("batched_round_trips", batched.round_trips);
  w->Field("unbatched_round_trips", unbatched.round_trips);
  double ratio = batched.round_trips == 0
                     ? 0.0
                     : static_cast<double>(unbatched.round_trips) /
                           static_cast<double>(batched.round_trips);
  w->Field("round_trip_ratio", ratio);
  w->Field("batched_network_s", batched.network_s);
  w->Field("unbatched_network_s", unbatched.network_s);
  w->Field("contents_identical", batched.identical && unbatched.identical);
  w->EndObject();
}

void RunReadRtt() {
  Heading("Batched reads: round trips, cold and warm, 45 ms DSL link");

  // Scenario 1: one 128-block sequential read (the paper's large-file
  // read shape). Batched: coalesced descent + readahead windows.
  std::vector<MixFile> seq = {{"/work/big.bin", 128}};
  ReadRttMeasurement seq_b = MeasureColdReads(true, {}, seq);
  ReadRttMeasurement seq_u = MeasureColdReads(false, {}, seq);

  // Scenario 2: an Andrew-flavoured cold read mix — a shallow source
  // tree of mostly-small files with one large artifact, every file read
  // once with cold caches (the benchmark's phase-4 shape).
  std::vector<std::string> dirs = {"/work/src", "/work/src/lib",
                                   "/work/src/lib/util"};
  std::vector<MixFile> mix = {
      {"/work/src/main.c", 1},      {"/work/src/parser.c", 2},
      {"/work/src/lib/io.c", 4},    {"/work/src/lib/table.c", 8},
      {"/work/src/lib/util/a.c", 1}, {"/work/src/lib/util/b.c", 2},
      {"/work/src/codegen.c", 16},  {"/work/src/objects.bin", 64},
  };
  // Scenario 3: the same mix read again with every cache still warm. A
  // cached descriptor bounds each file's window by its EOF, so this
  // re-read should make no round trip at all.
  ReadRttMeasurement warm_b;
  ReadRttMeasurement mix_b = MeasureColdReads(true, dirs, mix, &warm_b);
  ReadRttMeasurement mix_u = MeasureColdReads(false, dirs, mix);

  Table table({"scenario", "batched RTs", "unbatched RTs", "ratio",
               "batched net (s)", "unbatched net (s)"});
  auto ratio_str = [](const ReadRttMeasurement& b,
                      const ReadRttMeasurement& u) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fx",
                  b.round_trips == 0 ? 0.0
                                     : static_cast<double>(u.round_trips) /
                                           static_cast<double>(b.round_trips));
    return std::string(buf);
  };
  table.AddRow({"seq 128-block file", std::to_string(seq_b.round_trips),
                std::to_string(seq_u.round_trips), ratio_str(seq_b, seq_u),
                Seconds(seq_b.network_s), Seconds(seq_u.network_s)});
  table.AddRow({"andrew cold read mix", std::to_string(mix_b.round_trips),
                std::to_string(mix_u.round_trips), ratio_str(mix_b, mix_u),
                Seconds(mix_b.network_s), Seconds(mix_u.network_s)});
  table.AddRow({"andrew warm re-read", std::to_string(warm_b.round_trips),
                "-", "-", Seconds(warm_b.network_s), "-"});
  table.Print();
  if (!seq_b.identical || !seq_u.identical || !mix_b.identical ||
      !mix_u.identical || !warm_b.identical) {
    std::printf("ERROR: batched/unbatched read contents diverged\n");
  }

  obs::JsonObjectWriter w;
  w.Field("bench", "read_rtt");
  w.Field("network", "PaperDsl 45ms one-way");
  w.Field("readahead_blocks", static_cast<uint64_t>(32));
  EmitScenario(&w, "seq128", seq_b, seq_u);
  EmitScenario(&w, "andrew_read_mix", mix_b, mix_u);
  w.BeginObject("warm_reread");
  w.Field("batched_round_trips", warm_b.round_trips);
  w.Field("contents_identical", warm_b.identical);
  w.EndObject();
  std::string json = w.Take();
  const char* path = "BENCH_read_rtt.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("  wrote %s\n", path);
  } else {
    std::printf("  could not write %s\n", path);
  }
}

// --- Write round trips (the write-behind mirror of RunReadRtt) --------

struct WriteRttMeasurement {
  uint64_t round_trips = 0;
  double network_s = 0;
  Bytes store;  // Final SSP store bytes (ObjectStore::Serialize).
};

/// The Andrew-flavoured write mix: scaffold a source tree, populate it,
/// churn attributes, rebuild and clean — every phase mutating, run
/// identically in the batched and per-op worlds so the stores they leave
/// behind must match byte for byte. The tree starts at /mix, which the
/// bench world does not hold.
void RunWriteMixOps(core::FsClient& c) {
  core::CreateOptions dopts;
  dopts.mode = fs::Mode::FromOctal(0755);
  core::CreateOptions fopts;
  fopts.mode = fs::Mode::FromOctal(0644);
  // Phase 1: MakeDir.
  std::vector<std::string> dirs = {"/mix", "/mix/src", "/mix/lib",
                                   "/mix/obj"};
  for (const std::string& d : dirs) {
    Check("Mkdir", d, c.Mkdir(d, dopts));
  }
  // Phase 2: Copy — sources of one to four 4 KiB blocks.
  std::vector<std::string> sources;
  for (int i = 0; i < 8; ++i) {
    std::string path = (i < 5 ? "/mix/src/f" : "/mix/lib/f") +
                       std::to_string(i) + ".c";
    sources.push_back(path);
    Check("Create", path, c.Create(path, fopts));
    Check("WriteFile", path,
          c.WriteFile(path, PatternBytes((1 + i % 4) * size_t{4096},
                                         static_cast<uint8_t>(i + 1))));
  }
  // Phase 3: attribute churn (widening chmods: no revocation machinery).
  for (const std::string& path : sources) {
    Check("Chmod", path, c.Chmod(path, fs::Mode::FromOctal(0664)));
  }
  // Phase 5: ScanDir+Make — compile artifacts, then `make clean`.
  for (int i = 0; i < 4; ++i) {
    std::string path = "/mix/obj/f" + std::to_string(i) + ".o";
    Check("Create", path, c.Create(path, fopts));
    Check("WriteFile", path,
          c.WriteFile(path,
                      PatternBytes(4096, static_cast<uint8_t>(0x60 + i))));
  }
  Check("Rename", "/mix/src/f0.c",
        c.Rename("/mix/src/f0.c", "/mix/src/f0_old.c"));
  for (int i = 0; i < 4; ++i) {
    std::string path = "/mix/obj/f" + std::to_string(i) + ".o";
    Check("Unlink", path, c.Unlink(path));
  }
  Check("Fsync", "", c.Fsync());
}

WriteRttMeasurement MeasureWriteMix(size_t write_batch_ops,
                                    net::NetworkModel network) {
  BenchWorldOptions opts;
  opts.variant = SystemVariant::kSharoes;
  opts.network = network;
  opts.write_batch_ops = write_batch_ops;
  BenchWorld world(opts);
  // Warm the mount's root resolution so both worlds measure the mutation
  // phases, not the identical two-trip cold start.
  (void)world.client().Getattr("/");
  WriteRttMeasurement m;
  uint64_t trips_before = world.transport().counters().round_trips;
  CostSnapshot cost = world.Measure([&] { RunWriteMixOps(world.client()); });
  m.round_trips = world.transport().counters().round_trips - trips_before;
  m.network_s = static_cast<double>(cost.network_ns()) / 1e9;
  m.store = world.server().store().Serialize();
  return m;
}

void RunWriteRtt() {
  Heading("Batched writes: round trips, Andrew write mix, 45 ms DSL link");
  constexpr size_t kWriteBatchOps = 64;
  WriteRttMeasurement batched =
      MeasureWriteMix(kWriteBatchOps, net::NetworkModel::PaperDsl());
  WriteRttMeasurement unbatched =
      MeasureWriteMix(0, net::NetworkModel::PaperDsl());

  // Byte-identity is checked on a free link: inode mtimes are virtual-
  // clock stamps, and on a link with latency the two worlds reach each
  // write at different virtual times. On Zero() the clock advances only
  // with crypto work — identical in both worlds, because batching moves
  // RPC timing, never the order of client-side operations.
  WriteRttMeasurement zb = MeasureWriteMix(kWriteBatchOps,
                                           net::NetworkModel::Zero());
  WriteRttMeasurement zu = MeasureWriteMix(0, net::NetworkModel::Zero());
  bool identical = zb.store == zu.store &&
                   zb.round_trips == batched.round_trips &&
                   zu.round_trips == unbatched.round_trips;
  double ratio = batched.round_trips == 0
                     ? 0.0
                     : static_cast<double>(unbatched.round_trips) /
                           static_cast<double>(batched.round_trips);

  Table table({"scenario", "batched RTs", "unbatched RTs", "ratio",
               "batched net (s)", "unbatched net (s)"});
  char ratio_buf[32];
  std::snprintf(ratio_buf, sizeof(ratio_buf), "%.1fx", ratio);
  table.AddRow({"andrew write mix", std::to_string(batched.round_trips),
                std::to_string(unbatched.round_trips), ratio_buf,
                Seconds(batched.network_s), Seconds(unbatched.network_s)});
  table.Print();
  if (!identical) {
    std::printf("ERROR: batched/unbatched final stores diverged\n");
  }

  obs::JsonObjectWriter w;
  w.Field("bench", "write_rtt");
  w.Field("network", "PaperDsl 45ms one-way");
  w.Field("write_batch_ops", static_cast<uint64_t>(kWriteBatchOps));
  w.BeginObject("andrew_write_mix");
  w.Field("batched_round_trips", batched.round_trips);
  w.Field("unbatched_round_trips", unbatched.round_trips);
  w.Field("round_trip_ratio", ratio);
  w.Field("batched_network_s", batched.network_s);
  w.Field("unbatched_network_s", unbatched.network_s);
  w.Field("stores_identical", identical);
  w.EndObject();
  std::string json = w.Take();
  const char* path = "BENCH_write_rtt.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("  wrote %s\n", path);
  } else {
    std::printf("  could not write %s\n", path);
  }
}

}  // namespace
}  // namespace sharoes::workload

int main(int argc, char** argv) {
  bool read_rtt_only = false;
  bool write_rtt_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--read-rtt-only") == 0) read_rtt_only = true;
    if (std::strcmp(argv[i], "--write-rtt-only") == 0) write_rtt_only = true;
  }
  if (!read_rtt_only && !write_rtt_only) sharoes::workload::Run();
  if (!write_rtt_only) sharoes::workload::RunReadRtt();
  if (!read_rtt_only) sharoes::workload::RunWriteRtt();
  return 0;
}
