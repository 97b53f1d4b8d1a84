// Directory update cost against directory size (DESIGN.md §18): the
// WAN-clock time, bytes up and signatures of one create (Create +
// WriteFile of 1000 B) and one unlink in a directory of 20, 100, 1000 and
// 10000 entries, on the paper's DSL link and price table.
//
// Each directory is built through the migration path (the provisioner),
// in a 0700 directory of 0600 files like a sharebench home directory: a
// second group member and an outsider give it group and other copies,
// which a 0700 directory renders as kNone views.
// One create + unlink warms the writer (its path and the master table).
// Then kProbes creates and kProbes unlinks are timed, and each figure is
// the mean per op: an op's bytes follow the size of the bucket its name
// hashes to, so one name alone would measure one draw of that size. No
// entry count the probes pass crosses a resize threshold. Writes
// BENCH_dir_scaling.json.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/migration.h"
#include "net/network_model.h"
#include "obs/json.h"
#include "ssp/ssp_server.h"
#include "workload/report.h"

namespace sharoes::workload {
namespace {

constexpr fs::UserId kUser = 100;
constexpr fs::UserId kPeer = 101;      // In kGroup.
constexpr fs::UserId kOutsider = 102;  // In no group.
constexpr fs::GroupId kGroup = 500;
constexpr int kProbes = 8;

struct OpCost {
  double wan_ms = 0;
  uint64_t bytes_up = 0;
  uint64_t signs = 0;
  uint64_t round_trips = 0;
};

struct SizePoint {
  size_t entries = 0;
  OpCost create;
  OpCost unlink;
  bool ok = true;
};

SizePoint Measure(size_t entries) {
  SizePoint point;
  point.entries = entries;
  SimClock clock;
  core::IdentityDirectory identity;
  ssp::SspServer server;
  crypto::CryptoEngineOptions admin_opts;
  admin_opts.cost_model = crypto::CryptoCostModel::Zero();
  admin_opts.signing_key_pool = 8;
  admin_opts.rng_seed = 11;
  crypto::CryptoEngine admin(&clock, admin_opts);
  core::Provisioner::Options prov_opts;
  prov_opts.user_key_bits = 512;
  core::Provisioner prov(&identity, &server, &admin, prov_opts);
  auto keys = prov.CreateUser(kUser, "bench");
  if (!keys.ok() || !prov.CreateUser(kPeer, "peer").ok() ||
      !prov.CreateUser(kOutsider, "outsider").ok() ||
      !prov.CreateGroup(kGroup, "staff", {kUser, kPeer}).ok()) {
    point.ok = false;
    return point;
  }
  core::LocalNode root = core::LocalNode::Dir("", kUser, kGroup,
                                              fs::Mode::FromOctal(0755));
  core::LocalNode dir = core::LocalNode::Dir("dir", kUser, kGroup,
                                             fs::Mode::FromOctal(0700));
  for (size_t i = 0; i < entries; ++i) {
    dir.children.push_back(core::LocalNode::File(
        "file" + std::to_string(i), kUser, kGroup, fs::Mode::FromOctal(0600),
        Bytes(64, 'x')));
  }
  root.children.push_back(std::move(dir));
  if (!prov.Migrate(root).ok()) {
    point.ok = false;
    return point;
  }

  crypto::CryptoEngineOptions eng_opts;  // The paper's price table.
  eng_opts.signing_key_pool = 8;
  eng_opts.rng_seed = 12;
  crypto::CryptoEngine engine(&clock, eng_opts);
  net::Transport transport(&clock, net::NetworkModel::PaperDsl());
  ssp::SspConnection conn(&server, &transport);
  core::ClientOptions copts;
  copts.default_group = kGroup;
  core::SharoesClient client(kUser, keys->priv, &identity, &conn, &engine,
                             copts);
  core::CreateOptions fopts;
  fopts.mode = fs::Mode::FromOctal(0600);
  const Bytes content(1000, 'c');
  auto create = [&](const std::string& path) {
    Status s = client.Create(path, fopts);
    return s.ok() ? client.WriteFile(path, content) : s;
  };
  if (!client.Mount().ok() || !create("/dir/warm").ok() ||
      !client.Unlink("/dir/warm").ok()) {
    point.ok = false;
    return point;
  }
  // The mean over kProbes ops (signs and round trips round down).
  auto timed = [&](OpCost* cost, const std::function<Status(int)>& op) {
    uint64_t t0 = clock.now_ns();
    uint64_t up0 = transport.counters().bytes_up;
    uint64_t rt0 = transport.counters().round_trips;
    uint64_t signs0 = engine.op_counts().sign;
    for (int i = 0; i < kProbes; ++i) {
      if (!op(i).ok()) point.ok = false;
    }
    cost->wan_ms = static_cast<double>(clock.now_ns() - t0) / 1e6 / kProbes;
    cost->bytes_up = (transport.counters().bytes_up - up0) / kProbes;
    cost->round_trips = (transport.counters().round_trips - rt0) / kProbes;
    cost->signs = (engine.op_counts().sign - signs0) / kProbes;
  };
  auto probe = [](int i) { return "/dir/probe" + std::to_string(i); };
  timed(&point.create, [&](int i) { return create(probe(i)); });
  timed(&point.unlink, [&](int i) { return client.Unlink(probe(i)); });
  return point;
}

void EmitCost(obs::JsonObjectWriter* w, const char* key, const OpCost& c) {
  w->BeginObject(key);
  w->Field("wan_ms", c.wan_ms);
  w->Field("bytes_up", c.bytes_up);
  w->Field("signs", c.signs);
  w->Field("round_trips", c.round_trips);
  w->EndObject();
}

int Run() {
  Heading("Directory update cost vs. directory size, 45 ms DSL link");
  Table table({"entries", "create ms", "create B up", "create signs",
               "unlink ms", "unlink B up", "unlink signs"});
  obs::JsonObjectWriter w;
  w.Field("bench", "dir_scaling");
  w.Field("network", "PaperDsl 45ms one-way, 850 kbit/s up");
  bool ok = true;
  for (size_t entries : {20, 100, 1000, 10000}) {
    SizePoint p = Measure(entries);
    ok = ok && p.ok;
    table.AddRow({std::to_string(entries), Millis(p.create.wan_ms),
                  std::to_string(p.create.bytes_up),
                  std::to_string(p.create.signs),
                  Millis(p.unlink.wan_ms),
                  std::to_string(p.unlink.bytes_up),
                  std::to_string(p.unlink.signs)});
    std::string key = "entries_" + std::to_string(entries);
    w.BeginObject(key);
    EmitCost(&w, "create", p.create);
    EmitCost(&w, "unlink", p.unlink);
    w.EndObject();
  }
  table.Print();
  w.Field("ok", ok);
  std::string json = w.Take();
  const char* path = "BENCH_dir_scaling.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("  wrote %s\n", path);
  }
  if (!ok) std::fprintf(stderr, "bench_dir_scaling: an operation failed\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sharoes::workload

int main() { return sharoes::workload::Run(); }
