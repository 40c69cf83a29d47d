#ifndef BREP_STORAGE_SNAPSHOT_H_
#define BREP_STORAGE_SNAPSHOT_H_

#include <cstddef>

#include "common/cow_vec.h"
#include "storage/pager.h"

namespace brep {

/// An immutable point-in-time view of a Pager: the storage half of an MVCC
/// read version. Capturing one copies the COW page-table spine (cheap:
/// O(pages / CowVec chunk)) plus the free-list head/count and the catalog;
/// after that, no writer activity on the live pager can change what this
/// snapshot reads -- the writer clones any table chunk the snapshot still
/// shares before mutating it, and the in-place save path drains reader pins
/// before flushing shadow pages over base pages.
///
/// Page fetches are charged to the base pager's read counter, so the
/// paper's I/O-cost metric is identical whether a query reads through the
/// live pager or a snapshot.
///
/// Capture (the constructor) is writer-side: it must run under the writer
/// mutex. FetchPage/PinPage/PageGen are safe from any number of reader
/// threads. PinPage hands out the snapshot's shadow images themselves:
/// capture makes the pager stop writing any of them in place.
class PageSnapshot final : public PageSource {
 public:
  /// Capture the pager's current state. Non-const: records the capture
  /// generation so the pager knows which shadow buffers are still private
  /// to its working view.
  explicit PageSnapshot(Pager& pager);

  PageSnapshot(const PageSnapshot&) = delete;
  PageSnapshot& operator=(const PageSnapshot&) = delete;

  void FetchPage(PageId id, uint8_t* out) const override;
  PagePin PinPage(PageId id) const override;
  uint64_t PageGen(PageId id) const override;

  size_t num_pages() const { return num_pages_; }
  PageId free_list_head() const { return free_head_; }
  uint64_t num_free_pages() const { return free_count_; }
  const CatalogRef& catalog() const { return catalog_; }

  /// COW shadow pages this snapshot holds in memory (pages written between
  /// the disk's last flush and this capture). Feeds the
  /// brep_snapshot_cow_retained_pages gauge.
  size_t shadow_pages() const { return shadow_pages_; }

 private:
  const Pager* base_;
  size_t num_pages_;
  PageId free_head_;
  uint64_t free_count_;
  CatalogRef catalog_;
  CowVec<Pager::VersionedPage> table_;
  size_t shadow_pages_;
};

}  // namespace brep

#endif  // BREP_STORAGE_SNAPSHOT_H_
