#include "workload/create_list.h"

#include <cstdio>
#include <cstdlib>

namespace sharoes::workload {

namespace {
void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "create-list: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::abort();
  }
}
}  // namespace

CreateListResult RunCreateList(BenchWorld& world,
                               const CreateListParams& params) {
  core::FsClient& fs = world.client();
  CreateListResult result;

  // CREATE phase: 25 directories, 20 empty files each.
  CostSnapshot before = world.clock().snapshot();
  for (int d = 0; d < params.dirs; ++d) {
    std::string dir = "/work/d" + std::to_string(d);
    core::CreateOptions dopts;
    dopts.mode = params.dir_mode;
    Check(fs.Mkdir(dir, dopts), "mkdir");
    for (int f = 0; f < params.files_per_dir; ++f) {
      core::CreateOptions fopts;
      fopts.mode = params.file_mode;
      Check(fs.Create(dir + "/f" + std::to_string(f), fopts), "create");
      ++result.files_created;
    }
  }
  result.create = world.clock().snapshot() - before;

  // LIST phase ("ls -lR"): stat every directory and file, cold caches.
  fs.DropCaches();
  before = world.clock().snapshot();
  auto top = fs.Readdir("/work");
  Check(top.status(), "readdir /work");
  for (const std::string& dname : *top) {
    std::string dir = "/work/" + dname;
    Check(fs.Getattr(dir).status(), "stat dir");
    ++result.objects_stated;
    auto names = fs.Readdir(dir);
    Check(names.status(), "readdir dir");
    for (const std::string& fname : *names) {
      Check(fs.Getattr(dir + "/" + fname).status(), "stat file");
      ++result.objects_stated;
    }
  }
  result.list = world.clock().snapshot() - before;
  return result;
}

}  // namespace sharoes::workload
