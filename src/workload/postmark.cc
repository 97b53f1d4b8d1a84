#include "workload/postmark.h"

#include <cstdio>
#include <cstdlib>

#include "workload/tree_gen.h"

namespace sharoes::workload {

namespace {
void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "postmark: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::abort();
  }
}
}  // namespace

PostmarkResult RunPostmark(BenchWorld& world, const PostmarkParams& params,
                           double cache_fraction) {
  core::FsClient& fs = world.client();
  Rng rng(params.seed);
  PostmarkResult result;

  // Setup: subdirectories plus the initial file set.
  CostSnapshot before = world.clock().snapshot();
  std::vector<std::string> live_files;
  core::CreateOptions dopts;
  dopts.mode = fs::Mode::FromOctal(0755);
  for (int d = 0; d < params.subdirs; ++d) {
    Check(fs.Mkdir("/work/pm" + std::to_string(d), dopts), "mkdir");
  }
  int name_counter = 0;
  auto new_path = [&] {
    std::string dir =
        "/work/pm" + std::to_string(rng.NextBelow(params.subdirs));
    return dir + "/f" + std::to_string(name_counter++);
  };
  for (int i = 0; i < params.files; ++i) {
    std::string path = new_path();
    core::CreateOptions fopts;
    fopts.mode = fs::Mode::FromOctal(0644);
    Check(fs.Create(path, fopts), "create");
    size_t size = rng.NextInRange(params.min_size, params.max_size);
    Bytes content = GenerateContent(rng, size);
    result.data_bytes += content.size();
    Check(fs.WriteFile(path, content), "write");
    live_files.push_back(path);
  }
  result.setup = world.clock().snapshot() - before;

  // The cache size under test is a fraction of the data set size; drop
  // caches so the transaction phase starts cold.
  size_t cache_bytes =
      static_cast<size_t>(cache_fraction * static_cast<double>(
                                               result.data_bytes));
  world.SetCacheBytes(cache_bytes);
  fs.DropCaches();

  // Transaction phase: each transaction pairs a data op (read or append)
  // with a file-set op (create or delete), as in Katcher's Postmark.
  before = world.clock().snapshot();
  for (int t = 0; t < params.transactions; ++t) {
    // Data operation.
    const std::string& target =
        live_files[rng.NextBelow(live_files.size())];
    if (rng.NextBool()) {
      auto r = fs.Read(target);
      Check(r.status(), "read");
      ++result.reads;
    } else {
      Bytes extra = GenerateContent(rng, rng.NextInRange(64, 512));
      Check(fs.Append(target, extra), "append");
      Check(fs.Close(target), "close");
      ++result.appends;
    }
    // File-set operation.
    if (rng.NextBool() || live_files.size() <= 1) {
      std::string path = new_path();
      core::CreateOptions fopts;
      fopts.mode = fs::Mode::FromOctal(0644);
      Check(fs.Create(path, fopts), "tx create");
      Bytes content = GenerateContent(
          rng, rng.NextInRange(params.min_size, params.max_size));
      Check(fs.WriteFile(path, content), "tx write");
      live_files.push_back(path);
      ++result.creates;
    } else {
      size_t victim = rng.NextBelow(live_files.size());
      Check(fs.Unlink(live_files[victim]), "unlink");
      live_files.erase(live_files.begin() + victim);
      ++result.deletes;
    }
  }
  result.transactions = world.clock().snapshot() - before;
  return result;
}

}  // namespace sharoes::workload
