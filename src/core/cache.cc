#include "core/cache.h"

namespace sharoes::core {

void LruCache::PutErased(const std::string& key,
                         std::shared_ptr<const void> value, size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  auto [it, inserted] = map_.try_emplace(key);
  if (!inserted) {
    size_ -= it->second->size;
    lru_.erase(it->second);
  }
  lru_.push_front(Entry{key, std::move(value), size});
  it->second = lru_.begin();
  size_ += size;
  EvictToFitLocked();
}

std::shared_ptr<const void> LruCache::GetErased(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses_->Increment();
    return nullptr;
  }
  hits_->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

bool LruCache::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.find(key) != map_.end();
}

void LruCache::Erase(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) EraseLocked(it);
}

LruCache::Index::iterator LruCache::EraseLocked(Index::iterator it) {
  size_ -= it->second->size;
  lru_.erase(it->second);
  return map_.erase(it);
}

void LruCache::ErasePrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.lower_bound(prefix);
  while (it != map_.end() && it->first.starts_with(prefix)) {
    it = EraseLocked(it);
  }
}

std::vector<std::pair<std::string, std::shared_ptr<const void>>>
LruCache::TakePrefix(const std::string& prefix) {
  std::vector<std::pair<std::string, std::shared_ptr<const void>>> taken;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.lower_bound(prefix);
  while (it != map_.end() && it->first.starts_with(prefix)) {
    taken.emplace_back(it->first, it->second->value);
    it = EraseLocked(it);
  }
  return taken;
}

void LruCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  size_ = 0;
}

size_t LruCache::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

size_t LruCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void LruCache::set_capacity(size_t capacity_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity_bytes;
  EvictToFitLocked();
}

void LruCache::EvictToFitLocked() {
  // Capacity 0 disables caching, so it drops zero-sized entries too.
  while ((size_ > capacity_ || capacity_ == 0) && !lru_.empty()) {
    Entry& victim = lru_.back();
    size_ -= victim.size;
    map_.erase(victim.key);
    lru_.pop_back();
  }
}

}  // namespace sharoes::core
