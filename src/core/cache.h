// The client-side cache: a bytes-bounded LRU over decrypted objects
// (metadata views, table copies, data blocks, split refs).
//
// Cache size directly controls how often the client pays network +
// decryption costs, which is exactly the variable the paper's Postmark
// experiment sweeps (Figure 10).

#ifndef SHAROES_CORE_CACHE_H_
#define SHAROES_CORE_CACHE_H_

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace sharoes::core {

/// Byte-capacity LRU cache from string keys to type-erased immutable
/// values. Callers use a key discipline ("m|<inode>|<sel>", "t|...",
/// "d|...") and must read values back with the type they stored. The
/// index is ordered: ErasePrefix walks only the keys it drops.
///
/// Thread-safe: a single mutex guards the list/map (LRU reordering makes
/// even Get a write), and hit/miss counts live in lock-free registry
/// counters so the stats accessors never need the lock. Values are
/// immutable shared_ptrs, so a value returned by Get stays valid after a
/// concurrent eviction.
class LruCache {
 public:
  /// capacity_bytes == 0 disables caching entirely. Hit/miss counts are
  /// recorded as "<counter_prefix>.hits"/"<counter_prefix>.misses" in
  /// `registry` (default: the process-wide registry, where several caches
  /// sum and kGetStats reports them). Tests asserting exact per-instance
  /// counts pass their own registry; caches with distinct roles (e.g. the
  /// negative dentry cache) pass their own prefix so their hit rates do
  /// not pollute the main cache's.
  explicit LruCache(size_t capacity_bytes,
                    obs::MetricsRegistry* registry = nullptr,
                    const std::string& counter_prefix = "client.cache")
      : capacity_(capacity_bytes) {
    if (registry == nullptr) registry = &obs::MetricsRegistry::Global();
    hits_ = registry->counter(counter_prefix + ".hits");
    misses_ = registry->counter(counter_prefix + ".misses");
  }

  /// Inserts (replacing any existing entry) and evicts LRU overflow.
  /// `size` is the entry's accounted size in bytes.
  template <typename T>
  void Put(const std::string& key, T value, size_t size) {
    PutErased(key, std::make_shared<T>(std::move(value)), size);
  }

  /// Inserts an already-shared value (avoids a copy).
  template <typename T>
  void PutPtr(const std::string& key, std::shared_ptr<const T> value,
              size_t size) {
    PutErased(key, std::move(value), size);
  }

  /// Returns the cached value or nullptr. Refreshes recency.
  template <typename T>
  std::shared_ptr<const T> Get(const std::string& key) {
    std::shared_ptr<const void> p = GetErased(key);
    return std::static_pointer_cast<const T>(p);
  }

  /// True iff the key is present. Does not refresh recency and does not
  /// count a hit or miss — this is the batched read planner probing what
  /// it still needs to fetch, not a lookup.
  bool Contains(const std::string& key) const;

  void Erase(const std::string& key);
  /// Drops every key with the given prefix (e.g. all copies of an inode).
  /// End the prefix with the key's separator ("d|12|", not "d|12") or it
  /// also covers other inodes' keys ("d|120|0").
  void ErasePrefix(const std::string& prefix);
  /// ErasePrefix that hands back what it dropped, key and value, for a
  /// caller that re-files some of it under other keys.
  std::vector<std::pair<std::string, std::shared_ptr<const void>>> TakePrefix(
      const std::string& prefix);
  void Clear();

  size_t size_bytes() const;
  size_t entry_count() const;
  /// Counter views; process-wide totals when sharing the global registry.
  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }
  void set_capacity(size_t capacity_bytes);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> value;
    size_t size;
  };
  using Index = std::map<std::string, std::list<Entry>::iterator, std::less<>>;

  void PutErased(const std::string& key, std::shared_ptr<const void> value,
                 size_t size);
  std::shared_ptr<const void> GetErased(const std::string& key);
  // *Locked helpers require mu_ held. EraseLocked returns the index
  // position after the dropped entry.
  Index::iterator EraseLocked(Index::iterator it);
  void EvictToFitLocked();

  mutable std::mutex mu_;
  size_t capacity_;      // Guarded by mu_.
  size_t size_ = 0;      // Guarded by mu_.
  obs::Counter* hits_;    // Owned by the registry; outlives this cache.
  obs::Counter* misses_;
  std::list<Entry> lru_;  // Front = most recent. Guarded by mu_.
  Index map_;             // Guarded by mu_.
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_CACHE_H_
