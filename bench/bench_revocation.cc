// Cost of the paper's §IV-A.1 immediate revocation, the one strategy the
// client implements: a chmod that takes access away re-encrypts the file
// under fresh keys right away, so its cost grows with file size, while a
// chmod that only grants access re-renders metadata and stays flat. The
// next-write column is the first write after the revocation, at the new
// key generation.

#include <cstdio>

#include "core/client.h"
#include "workload/report.h"
#include "workload/harness.h"
#include "workload/tree_gen.h"

namespace sharoes::workload {
namespace {

double ChmodCost(size_t file_size, CostSnapshot* next_write_cost) {
  BenchWorldOptions opts;
  opts.variant = SystemVariant::kSharoes;
  // Revocation needs someone to revoke from: register non-owner users so
  // the group/other CAP classes materialize.
  opts.registered_users = 3;
  BenchWorld world(opts);

  core::CreateOptions copts;
  copts.mode = fs::Mode::FromOctal(0644);
  Rng rng(7);
  Bytes content = GenerateContent(rng, file_size);
  Status s = world.client().Create("/work/f.bin", copts);
  if (s.ok()) s = world.client().WriteFile("/work/f.bin", content);
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  // 0644 -> 0600 revokes group/other read: immediate mode re-encrypts.
  CostSnapshot chmod_cost = world.Measure([&] {
    Status st =
        world.client().Chmod("/work/f.bin", fs::Mode::FromOctal(0600));
    if (!st.ok()) {
      std::fprintf(stderr, "chmod failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  });
  *next_write_cost = world.Measure([&] {
    Status st = world.client().WriteFile("/work/f.bin", content);
    if (!st.ok()) std::exit(1);
  });
  return chmod_cost.total_ms();
}

void Run() {
  Heading("Revocation cost: immediate re-encryption vs file size");
  Table table({"file size", "chmod+revoke (ms)", "next write (ms)",
               "getattr-only chmod (ms)"});
  for (size_t size : {size_t{4} << 10, size_t{64} << 10, size_t{256} << 10,
                      size_t{1} << 20}) {
    CostSnapshot next_write;
    double revoke_ms = ChmodCost(size, &next_write);

    // Reference point: a chmod that only *grants* (no revocation) costs
    // the same regardless of size.
    BenchWorldOptions opts;
    opts.variant = SystemVariant::kSharoes;
    opts.registered_users = 3;
    BenchWorld world(opts);
    core::CreateOptions copts;
    copts.mode = fs::Mode::FromOctal(0600);
    Rng rng(9);
    (void)world.client().Create("/work/g.bin", copts);
    (void)world.client().WriteFile("/work/g.bin",
                                   GenerateContent(rng, size));
    CostSnapshot grant = world.Measure([&] {
      (void)world.client().Chmod("/work/g.bin", fs::Mode::FromOctal(0644));
    });

    char label[32];
    std::snprintf(label, sizeof(label), "%zu KiB", size >> 10);
    table.AddRow({label, Millis(revoke_ms),
                  Millis(next_write.total_ms()),
                  Millis(grant.total_ms())});
  }
  table.Print();
  std::printf(
      "\nShape: revoking chmod cost grows with file size (download +"
      " re-encrypt + upload), while permission-granting chmod stays flat"
      " (metadata-only). Like the paper's prototype, the client revokes"
      " immediately: the chmod pays the re-encryption, and no later write"
      " owes a key rotation.\n");
}

}  // namespace
}  // namespace sharoes::workload

int main() {
  sharoes::workload::Run();
  return 0;
}
