#include "workload/andrew.h"

#include <cstdio>
#include <cstdlib>

namespace sharoes::workload {

namespace {
void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "andrew: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::abort();
  }
}

void ChargeCpu(BenchWorld& world, double ms) {
  world.clock().AdvanceMs(ms, CostCategory::kOther);
}
}  // namespace

AndrewResult RunAndrew(BenchWorld& world, const AndrewParams& params) {
  core::FsClient& fs = world.client();
  AndrewResult result;
  SourceTree tree = GenerateSourceTree(params.source);
  const std::string base = "/work/andrew";
  core::CreateOptions dopts;
  dopts.mode = fs::Mode::FromOctal(0755);
  core::CreateOptions fopts;
  fopts.mode = fs::Mode::FromOctal(0644);

  // Phase 1: create the directory skeleton recursively.
  CostSnapshot before = world.clock().snapshot();
  Check(fs.Mkdir(base, dopts), "mkdir base");
  for (const std::string& dir : tree.dirs) {
    Check(fs.Mkdir(base + "/" + dir, dopts), "mkdir");
  }
  result.phase[0] = world.clock().snapshot() - before;

  // Phase 2: copy the source tree (create + write every file).
  fs.DropCaches();
  before = world.clock().snapshot();
  for (const SourceFile& f : tree.files) {
    std::string path = base + "/" + f.dir + "/" + f.name;
    Check(fs.Create(path, fopts), "create");
    Check(fs.WriteFile(path, f.content), "write");
  }
  result.phase[1] = world.clock().snapshot() - before;

  // Phase 3: examine the status of every file (no data access).
  fs.DropCaches();
  before = world.clock().snapshot();
  Check(fs.Getattr(base).status(), "stat base");
  for (const std::string& dir : tree.dirs) {
    Check(fs.Getattr(base + "/" + dir).status(), "stat dir");
  }
  for (const SourceFile& f : tree.files) {
    Check(fs.Getattr(base + "/" + f.dir + "/" + f.name).status(),
          "stat file");
  }
  result.phase[2] = world.clock().snapshot() - before;

  // Phase 4: examine every byte of every file.
  fs.DropCaches();
  before = world.clock().snapshot();
  for (const SourceFile& f : tree.files) {
    auto r = fs.Read(base + "/" + f.dir + "/" + f.name);
    Check(r.status(), "read");
    if (r->size() != f.content.size()) {
      std::fprintf(stderr, "andrew: size mismatch reading %s\n",
                   f.name.c_str());
      std::abort();
    }
  }
  result.phase[3] = world.clock().snapshot() - before;

  // Phase 5: compile and link — read each .c, burn CPU, write the .o,
  // then link everything into one binary.
  fs.DropCaches();
  before = world.clock().snapshot();
  std::vector<std::string> objects;
  Bytes binary;
  for (const SourceFile& f : tree.files) {
    if (f.name.size() < 2 || f.name.substr(f.name.size() - 2) != ".c") {
      continue;  // Headers are read by inclusion, not compiled.
    }
    std::string src = base + "/" + f.dir + "/" + f.name;
    auto content = fs.Read(src);
    Check(content.status(), "compile read");
    ChargeCpu(world, params.compile_cpu_ms);
    // The object file is roughly the source size.
    std::string obj = src.substr(0, src.size() - 2) + ".o";
    Check(fs.Create(obj, fopts), "create .o");
    Check(fs.WriteFile(obj, *content), "write .o");
    objects.push_back(obj);
    binary.insert(binary.end(), content->begin(), content->end());
  }
  ChargeCpu(world, params.link_cpu_ms);
  Check(fs.Create(base + "/a.out", fopts), "create binary");
  Check(fs.WriteFile(base + "/a.out", binary), "write binary");
  result.phase[4] = world.clock().snapshot() - before;
  return result;
}

}  // namespace sharoes::workload
