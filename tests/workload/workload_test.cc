// Workload and harness tests: generators are deterministic, the bench
// worlds function for every variant, and each paper workload runs end to
// end with sane accounting.

#include <gtest/gtest.h>

#include "workload/andrew.h"
#include "workload/create_list.h"
#include "workload/harness.h"
#include "workload/op_costs.h"
#include "workload/postmark.h"
#include "workload/report.h"
#include "workload/tree_gen.h"

namespace sharoes::workload {
namespace {

// Small worlds keep these tests quick; virtual costs still accumulate.
BenchWorldOptions SmallWorld(SystemVariant v) {
  BenchWorldOptions o;
  o.variant = v;
  o.user_key_bits = 512;
  o.signing_key_pool = 8;
  return o;
}

TEST(TreeGenTest, ContentDeterministicAndSized) {
  Rng a(1), b(1);
  EXPECT_EQ(GenerateContent(a, 100), GenerateContent(b, 100));
  EXPECT_EQ(GenerateContent(a, 1234).size(), 1234u);
  EXPECT_EQ(GenerateContent(a, 0).size(), 0u);
}

TEST(TreeGenTest, SourceTreeShape) {
  SourceTreeParams p;
  p.dirs = 12;
  p.files = 40;
  SourceTree tree = GenerateSourceTree(p);
  EXPECT_EQ(tree.dirs.size(), 12u);
  EXPECT_EQ(tree.files.size(), 40u);
  EXPECT_GT(tree.total_bytes, 40 * p.min_file_size);
  // Parents precede children in dirs (mkdir-able in order).
  for (const std::string& d : tree.dirs) {
    size_t slash = d.rfind('/');
    if (slash != std::string::npos) {
      std::string parent = d.substr(0, slash);
      EXPECT_NE(std::find(tree.dirs.begin(), tree.dirs.end(), parent),
                tree.dirs.end());
    }
  }
  // Every file's dir exists.
  for (const SourceFile& f : tree.files) {
    EXPECT_NE(std::find(tree.dirs.begin(), tree.dirs.end(), f.dir),
              tree.dirs.end());
  }
}

TEST(HarnessTest, AllVariantsMountAndOperate) {
  for (SystemVariant v : AllVariants()) {
    BenchWorld world(SmallWorld(v));
    core::CreateOptions opts;
    Status s = world.client().Create("/work/t.txt", opts);
    ASSERT_TRUE(s.ok()) << VariantName(v) << ": " << s;
    ASSERT_TRUE(
        world.client().WriteFile("/work/t.txt", ToBytes("hello")).ok())
        << VariantName(v);
    auto read = world.client().Read("/work/t.txt");
    ASSERT_TRUE(read.ok()) << VariantName(v);
    EXPECT_EQ(ToString(*read), "hello");
    EXPECT_GT(world.clock().now_ns(), 0u) << "ops must cost virtual time";
  }
}

TEST(HarnessTest, EvictAndDropCachesThroughFsClientOnly) {
  // The workloads reach every variant through FsClient& alone: EvictPath
  // re-fetches one object with its path prefix warm, DropCaches the whole
  // path.
  for (SystemVariant v : AllVariants()) {
    SCOPED_TRACE(VariantName(v));
    BenchWorld world(SmallWorld(v));
    core::FsClient& fs = world.client();
    ASSERT_TRUE(fs.Create("/work/f", core::CreateOptions{}).ok());
    ASSERT_TRUE(fs.WriteFile("/work/f", ToBytes("contents")).ok());
    auto trips = [&] { return world.transport().counters().round_trips; };
    auto read_cost = [&](uint64_t* cost) {
      const uint64_t before = trips();
      auto content = fs.Read("/work/f");
      ASSERT_TRUE(content.ok()) << content.status();
      EXPECT_EQ(ToString(*content), "contents");
      *cost = trips() - before;
    };
    uint64_t warm = 0, evicted = 0, dropped = 0;
    read_cost(&warm);
    ASSERT_TRUE(fs.EvictPath("/work/f").ok());
    read_cost(&evicted);
    fs.DropCaches();
    read_cost(&dropped);
    EXPECT_GT(evicted, warm);
    EXPECT_GT(dropped, evicted);
    EXPECT_TRUE(fs.EvictPath("/work/missing").IsNotFound());
  }
}

TEST(HarnessTest, MeasureAndResetSemantics) {
  BenchWorld world(SmallWorld(SystemVariant::kSharoes));
  CostSnapshot cost = world.Measure([&] {
    core::CreateOptions opts;
    ASSERT_TRUE(world.client().Create("/work/x", opts).ok());
  });
  EXPECT_GT(cost.total_ns, 0u);
  EXPECT_GT(cost.network_ns(), 0u);
  world.Reset();
  EXPECT_EQ(world.clock().now_ns(), 0u);
}

TEST(CreateListTest, CountsAndCosts) {
  BenchWorld world(SmallWorld(SystemVariant::kSharoes));
  CreateListParams params;
  params.dirs = 3;
  params.files_per_dir = 4;
  CreateListResult r = RunCreateList(world, params);
  EXPECT_EQ(r.files_created, 12);
  EXPECT_EQ(r.objects_stated, 3 + 12);
  EXPECT_GT(r.create.total_ns, 0u);
  EXPECT_GT(r.list.total_ns, 0u);
  // The list phase of an encrypted filesystem must spend crypto time.
  EXPECT_GT(r.list.crypto_ns(), 0u);
}

TEST(CreateListTest, ListCheaperThanCreateForPlainBaseline) {
  BenchWorld world(SmallWorld(SystemVariant::kNoEncMdD));
  CreateListParams params;
  params.dirs = 3;
  params.files_per_dir = 4;
  CreateListResult r = RunCreateList(world, params);
  // Creates are two round trips, stats one.
  EXPECT_GT(r.create.total_ns, r.list.total_ns);
  EXPECT_EQ(r.list.crypto_ns(), 0u);  // Nothing encrypted.
}

TEST(PostmarkTest, RunsAndCountsTransactions) {
  BenchWorld world(SmallWorld(SystemVariant::kSharoes));
  PostmarkParams params;
  params.files = 12;
  params.transactions = 20;
  params.subdirs = 3;
  PostmarkResult r = RunPostmark(world, params, 0.5);
  EXPECT_EQ(r.reads + r.appends, 20);
  EXPECT_EQ(r.creates + r.deletes, 20);
  EXPECT_GT(r.data_bytes, 12 * params.min_size);
  EXPECT_GT(r.transactions.total_ns, 0u);
}

TEST(PostmarkTest, LargerCacheIsFaster) {
  PostmarkParams params;
  params.files = 20;
  params.transactions = 30;
  params.subdirs = 3;
  BenchWorld cold(SmallWorld(SystemVariant::kSharoes));
  PostmarkResult r_cold = RunPostmark(cold, params, 0.0);
  BenchWorld warm(SmallWorld(SystemVariant::kSharoes));
  PostmarkResult r_warm = RunPostmark(warm, params, 1.0);
  EXPECT_GT(r_cold.transactions.total_ns, r_warm.transactions.total_ns);
}

TEST(AndrewTest, PhasesRunAndDecompose) {
  BenchWorld world(SmallWorld(SystemVariant::kSharoes));
  AndrewParams params;
  params.source.dirs = 4;
  params.source.files = 8;
  AndrewResult r = RunAndrew(world, params);
  for (int i = 0; i < 5; ++i) {
    EXPECT_GT(r.phase[i].total_ns, 0u) << "phase " << i + 1;
  }
  // Phase 5 carries the compile CPU charge in OTHER.
  EXPECT_GT(r.phase[4].other_ns(), r.phase[2].other_ns());
  EXPECT_GT(r.Total().total_ns, r.phase[0].total_ns);
}

TEST(OpCostsTest, ProbesReturnAllOps) {
  BenchWorldOptions opts = SmallWorld(SystemVariant::kSharoes);
  opts.registered_users = 3;
  BenchWorld world(opts);
  std::vector<OpCost> costs = RunOpCostProbes(world);
  ASSERT_EQ(costs.size(), 6u);
  EXPECT_EQ(costs[0].op, "getattr");
  for (const OpCost& c : costs) {
    EXPECT_GT(c.cost.total_ns, 0u) << c.op;
    EXPECT_GT(c.cost.network_ns(), 0u) << c.op;
  }
  // getattr is the cheapest probe; 1MB I/O the most expensive.
  EXPECT_LT(costs[0].cost.total_ns, costs[4].cost.total_ns);
}

TEST(ReportTest, TableFormatsAligned) {
  Table t({"a", "long-header"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-cell", "2"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("longer-cell"), std::string::npos);
  // Rows have equal width.
  size_t first_nl = s.find('\n');
  EXPECT_GT(first_nl, 10u);
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(Seconds(123.4), "123");
  EXPECT_EQ(Seconds(12.34), "12.3");
  EXPECT_EQ(Seconds(1.234), "1.23");
  EXPECT_EQ(Percent(110, 100), "+10.0%");
  EXPECT_EQ(Percent(95, 100), "-5.0%");
  EXPECT_EQ(Percent(1, 0), "-");
  CostSnapshot snap;
  snap.total_ns = 100;
  snap.by_category_ns = {80, 15, 5};
  std::string d = Decompose(snap);
  EXPECT_NE(d.find("net 80%"), std::string::npos);
  EXPECT_NE(d.find("crypto 15%"), std::string::npos);
}

TEST(VariantTest, NamesDistinct) {
  std::set<std::string> names;
  for (SystemVariant v : AllVariants()) names.insert(VariantName(v));
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(MacroVariants().size(), 4u);
}

}  // namespace
}  // namespace sharoes::workload
