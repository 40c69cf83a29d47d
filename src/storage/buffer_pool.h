#ifndef BREP_STORAGE_BUFFER_POOL_H_
#define BREP_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "storage/page.h"
#include "storage/pager.h"

namespace brep {

/// LRU read cache over a Pager.
///
/// Index traversal (BB-forest interior nodes, VA-file headers) goes through a
/// pool so hot metadata is not re-charged on every visit, mirroring an OS
/// page cache; candidate data fetches bypass it (the paper's I/O metric
/// counts those raw). Hit/miss counters expose both views for ablations.
///
/// The pool is thread-safe: ReadPinned() may be called from any number of
/// threads concurrently (the query engine runs one filter task per subspace
/// tree, and batched queries share each tree's pool). Cached pages are
/// pins (PageSource::PinPage): the pager's shadow image, or on a FilePager
/// a view into the file mapping, which the pin co-owns. Eviction by one
/// thread therefore never invalidates bytes another thread is still
/// reading through its pin, and the pool holds no page bytes of its own.
///
/// MVCC: entries are keyed by page GENERATION as well as id. A cached page
/// is a hit only when its generation matches what the caller's PageSource
/// (live pager or pinned snapshot) reports, so the writer mutating a page
/// -- or readers on different snapshots sharing one pool -- can never
/// observe each other's version of the bytes through the cache.
class BufferPool {
 public:
  /// `capacity_pages` is the number of resident pages; must be > 0.
  BufferPool(Pager* pager, size_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Read through the cache and pin the result. A miss costs one pager
  /// read, through PageSource::PinPage: a page held in memory (a shadow
  /// page) is cached as the pager's or snapshot's own image, and a
  /// FilePager base page as a view of the page in the file mapping, both
  /// with no copy; a MemPager base page is copied into a fresh image
  /// (never a recycled one: a reader may still hold an evicted image's
  /// pin). A hit costs none. Safe to call concurrently.
  PagePin ReadPinned(PageId id);

  /// Same, but fetch through `src` (a pinned PageSnapshot or the live
  /// pager) and hit only on a matching generation. A stale-generation entry
  /// is replaced in place (a version refresh, not an eviction).
  PagePin ReadPinned(PageId id, const PageSource& src);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Pages pushed out by capacity pressure (a high rate against a low miss
  /// rate means the working set thrashes just above capacity).
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    PageId id;
    uint64_t gen;
    PagePin buffer;
  };

  Pager* pager_;
  size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used; guarded by mu_
  std::unordered_map<PageId, std::list<Entry>::iterator> entries_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace brep

#endif  // BREP_STORAGE_BUFFER_POOL_H_
