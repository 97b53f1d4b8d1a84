#include "workload/op_costs.h"

#include <cstdio>
#include <cstdlib>

#include "workload/tree_gen.h"

namespace sharoes::workload {

namespace {
void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "op-costs: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::abort();
  }
}

// Evicts one object while keeping the path prefix warm — Figure 13 times
// single operations on a dcache-warm client.
void Evict(core::FsClient& fs, const std::string& path) {
  Check(fs.EvictPath(path), "evict");
}
}  // namespace

std::vector<OpCost> RunOpCostProbes(BenchWorld& world) {
  core::FsClient& fs = world.client();
  std::vector<OpCost> out;

  // Warm the path prefix: everything under /work resolves through cached
  // ancestors afterwards.
  core::CreateOptions fopts;
  fopts.mode = fs::Mode::FromOctal(0644);
  Check(fs.Create("/work/probe.txt", fopts), "create probe");

  // getattr: one metadata fetch + decrypt + verify.
  Evict(fs, "/work/probe.txt");
  out.push_back(OpCost{"getattr", world.Measure([&] {
                         Check(fs.Getattr("/work/probe.txt").status(),
                               "getattr");
                       })});

  // mkdir with different CAP requirements. 770 creates a read-write-exec
  // CAP for the group class; 711 creates exec-only CAPs for group/others;
  // 771 creates both kinds (the paper's "mkdir:both"). The parent's
  // master table is warm — the paper's mkdir cost is the two sends.
  int n = 0;
  auto probe_mkdir = [&](const std::string& name, uint16_t octal) {
    std::string path = "/work/mk" + std::to_string(n++);
    core::CreateOptions opts;
    opts.mode = fs::Mode::FromOctal(octal);
    out.push_back(OpCost{
        name, world.Measure([&] { Check(fs.Mkdir(path, opts), "mkdir"); })});
  };
  probe_mkdir("mkdir:rwx", 0770);
  probe_mkdir("mkdir:--x", 0711);
  probe_mkdir("mkdir:both", 0771);

  // 1 MB data I/O (paper: read and write+close of 1 MB files).
  Rng rng(4242);
  Bytes mb = GenerateContent(rng, 1 << 20);
  Check(fs.Create("/work/big.bin", fopts), "create big");
  out.push_back(OpCost{"wr*-1MB", world.Measure([&] {
                         Check(fs.Write("/work/big.bin", mb), "write 1MB");
                         Check(fs.Close("/work/big.bin"), "close 1MB");
                       })});
  Evict(fs, "/work/big.bin");
  out.push_back(OpCost{"read-1MB", world.Measure([&] {
                         auto r = fs.Read("/work/big.bin");
                         Check(r.status(), "read 1MB");
                         if (r->size() != mb.size()) std::abort();
                       })});
  return out;
}

}  // namespace sharoes::workload
