#include "core/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>

namespace sharoes::core {
namespace {

TEST(LruCacheTest, PutGet) {
  // A private registry isolates this test's hit/miss counts from other
  // caches in the process (production caches share the global registry).
  obs::MetricsRegistry registry;
  LruCache cache(1000, &registry);
  cache.Put<int>("a", 7, 10);
  auto v = cache.Get<int>("a");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 7);
  EXPECT_EQ(cache.Get<int>("missing"), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, ReplaceUpdatesSize) {
  LruCache cache(1000);
  cache.Put<int>("a", 1, 100);
  cache.Put<int>("a", 2, 300);
  EXPECT_EQ(cache.size_bytes(), 300u);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(*cache.Get<int>("a"), 2);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(100);
  cache.Put<int>("a", 1, 40);
  cache.Put<int>("b", 2, 40);
  EXPECT_NE(cache.Get<int>("a"), nullptr);  // a is now most recent.
  cache.Put<int>("c", 3, 40);               // Evicts b.
  EXPECT_NE(cache.Get<int>("a"), nullptr);
  EXPECT_EQ(cache.Get<int>("b"), nullptr);
  EXPECT_NE(cache.Get<int>("c"), nullptr);
  EXPECT_LE(cache.size_bytes(), 100u);
}

TEST(LruCacheTest, OversizedEntryEvictsEverything) {
  LruCache cache(100);
  cache.Put<int>("a", 1, 50);
  cache.Put<int>("big", 2, 500);  // Cannot fit; evicts all, then itself.
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(LruCacheTest, ZeroCapacityDisablesCaching) {
  LruCache cache(0);
  cache.Put<int>("a", 1, 10);
  EXPECT_EQ(cache.Get<int>("a"), nullptr);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(LruCacheTest, EraseAndErasePrefix) {
  LruCache cache(1000);
  cache.Put<int>("m|1|0", 1, 10);
  cache.Put<int>("m|1|2", 2, 10);
  cache.Put<int>("m|10|0", 3, 10);
  cache.Put<int>("t|1|0", 4, 10);
  cache.ErasePrefix("m|1|");
  EXPECT_EQ(cache.Get<int>("m|1|0"), nullptr);
  EXPECT_EQ(cache.Get<int>("m|1|2"), nullptr);
  EXPECT_NE(cache.Get<int>("m|10|0"), nullptr);  // Different inode.
  EXPECT_NE(cache.Get<int>("t|1|0"), nullptr);
  cache.Erase("t|1|0");
  EXPECT_EQ(cache.Get<int>("t|1|0"), nullptr);
  cache.Erase("not-there");  // No-op.
}

TEST(LruCacheTest, ErasePrefixStopsAtNeighbouringKeys) {
  // The ordered walk starts at the prefix's lower bound and must stop at
  // the first key past it: neither the bare "d|12" nor inode 120's block
  // nor the inodes sorting on either side belong to "d|12|".
  LruCache cache(1000);
  cache.Put<int>("d|11|9", 1, 1);
  cache.Put<int>("d|12", 2, 2);
  cache.Put<int>("d|12|0", 3, 4);
  cache.Put<int>("d|12|7", 4, 8);
  cache.Put<int>("d|120|0", 5, 16);
  cache.Put<int>("d|13|0", 6, 32);
  cache.Put<int>("e|12|0", 7, 64);
  cache.ErasePrefix("d|12|");
  EXPECT_EQ(cache.Get<int>("d|12|0"), nullptr);
  EXPECT_EQ(cache.Get<int>("d|12|7"), nullptr);
  for (const char* key : {"d|11|9", "d|12", "d|120|0", "d|13|0", "e|12|0"}) {
    EXPECT_NE(cache.Get<int>(key), nullptr) << key;
  }
  EXPECT_EQ(cache.entry_count(), 5u);
  EXPECT_EQ(cache.size_bytes(), 1u + 2 + 16 + 32 + 64);

  // Prefixes sorting before the first key, past the last one, and on the
  // last key itself.
  cache.ErasePrefix("c|");
  cache.ErasePrefix("z|");
  EXPECT_EQ(cache.entry_count(), 5u);
  cache.ErasePrefix("e|12|");
  EXPECT_EQ(cache.Get<int>("e|12|0"), nullptr);
  EXPECT_EQ(cache.entry_count(), 4u);
  EXPECT_EQ(cache.size_bytes(), 1u + 2 + 16 + 32);
}

TEST(LruCacheTest, ErasePrefixCostDoesNotScaleWithCacheSize) {
  // An evict walks only its own inode's keys, so an ErasePrefix matching
  // nothing costs about the same in a 200k-entry cache as in a 2k-entry
  // one; a scan of every key makes it 100x dearer or more. Only the ratio
  // of the two timings is checked, each the minimum over repeated
  // samples, so a slow or loaded host shifts both alike.
  auto min_sample_ns = [](int entries) {
    LruCache cache(size_t{1} << 30);
    for (int i = 0; i < entries; ++i) {
      cache.Put<int>("d|" + std::to_string(2 * i) + "|0", i, 1);
    }
    // An odd inode: no key has this prefix, and it sorts mid-index.
    const std::string absent = "d|" + std::to_string(entries + 1) + "|";
    int64_t best = INT64_MAX;
    for (int sample = 0; sample < 25; ++sample) {
      auto start = std::chrono::steady_clock::now();
      for (int call = 0; call < 32; ++call) cache.ErasePrefix(absent);
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
      best = std::min<int64_t>(best, ns);
    }
    EXPECT_EQ(cache.entry_count(), static_cast<size_t>(entries));
    return std::max<int64_t>(best, 1);
  };
  int64_t small_ns = min_sample_ns(2000);
  int64_t large_ns = min_sample_ns(200000);
  EXPECT_LT(large_ns, 20 * small_ns)
      << "200k entries: " << large_ns << " ns, 2k entries: " << small_ns
      << " ns per 32 calls";
}

TEST(LruCacheTest, ClearResetsSize) {
  LruCache cache(1000);
  cache.Put<std::string>("k", "value", 50);
  cache.Clear();
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.Get<std::string>("k"), nullptr);
}

TEST(LruCacheTest, ShrinkCapacityEvicts) {
  LruCache cache(100);
  cache.Put<int>("a", 1, 40);
  cache.Put<int>("b", 2, 40);
  cache.set_capacity(50);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_LE(cache.size_bytes(), 50u);
  cache.set_capacity(0);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(LruCacheTest, GrowCapacityKeepsEntriesAndAdmitsMore) {
  LruCache cache(50);
  cache.Put<int>("a", 1, 40);
  cache.Put<int>("b", 2, 40);  // Evicts a.
  EXPECT_EQ(cache.entry_count(), 1u);
  cache.set_capacity(100);  // Growing evicts nothing...
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_NE(cache.Get<int>("b"), nullptr);
  cache.Put<int>("c", 3, 40);  // ...and both now fit.
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_NE(cache.Get<int>("b"), nullptr);
  EXPECT_NE(cache.Get<int>("c"), nullptr);
}

TEST(LruCacheTest, ZeroThenNonzeroCapacityReenablesCaching) {
  LruCache cache(100);
  cache.Put<int>("a", 1, 10);
  cache.set_capacity(0);  // Disables and clears.
  EXPECT_EQ(cache.entry_count(), 0u);
  cache.Put<int>("b", 2, 10);  // Dropped while disabled.
  EXPECT_EQ(cache.Get<int>("b"), nullptr);
  cache.set_capacity(100);
  cache.Put<int>("c", 3, 10);
  EXPECT_NE(cache.Get<int>("c"), nullptr);
}

TEST(LruCacheTest, PutPtrSharesValue) {
  LruCache cache(1000);
  auto sp = std::make_shared<const std::string>("shared");
  cache.PutPtr<std::string>("k", sp, 10);
  auto got = cache.Get<std::string>("k");
  EXPECT_EQ(got.get(), sp.get());
}

}  // namespace
}  // namespace sharoes::core
