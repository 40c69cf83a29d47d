#include "storage/buffer_pool.h"

#include "common/check.h"

namespace brep {

BufferPool::BufferPool(Pager* pager, size_t capacity_pages)
    : pager_(pager), capacity_(capacity_pages) {
  BREP_CHECK(pager_ != nullptr);
  BREP_CHECK(capacity_ > 0);
}

PagePin BufferPool::ReadPinned(PageId id) { return ReadPinned(id, *pager_); }

PagePin BufferPool::ReadPinned(PageId id, const PageSource& src) {
  const uint64_t gen = src.PageGen(id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it != entries_.end() && it->second->gen == gen) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // Move to front (most recently used).
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->buffer;
    }
  }

  // Miss (or stale generation): pin outside the lock so concurrent misses
  // on distinct pages overlap their reads instead of serializing on the
  // pool.
  misses_.fetch_add(1, std::memory_order_relaxed);
  PagePin page = src.PinPage(id);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    if (it->second->gen == gen) {
      // Another thread cached this version while we were reading; adopt the
      // cached copy (our read was charged to the pager regardless).
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->buffer;
    }
    // A different version is resident: refresh it in place. Not an
    // eviction -- capacity did not push anything out.
    it->second->gen = gen;
    it->second->buffer = page;
    lru_.splice(lru_.begin(), lru_, it->second);
    return page;
  }
  if (entries_.size() == capacity_) {
    // Evict the least recently used page; outstanding pins keep its bytes.
    entries_.erase(lru_.back().id);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  lru_.push_front(Entry{id, gen, page});
  entries_[id] = lru_.begin();
  return page;
}

}  // namespace brep
