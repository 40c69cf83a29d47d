#ifndef BREP_STORAGE_POINT_STORE_H_
#define BREP_STORAGE_POINT_STORE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/cow_vec.h"
#include "dataset/matrix.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace brep {

/// Disk location of one point: page + slot within the page.
struct PointAddress {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;

  friend bool operator==(const PointAddress& a, const PointAddress& b) {
    return a.page == b.page && a.slot == b.slot;
  }
};

/// Serializable description of a point store's on-disk placement: enough to
/// re-attach to the same pages with zero writes (see the attach constructor).
/// `slots` has data_pages.size() * points_per_page entries, page-major: the
/// id stored in that slot, or kNoPoint for an empty (never-filled or
/// tombstoned) slot. `data_pages` entries freed back to the pager are
/// kInvalidPageId (all their slots are kNoPoint).
struct PointStoreLayout {
  uint64_t dim = 0;
  /// Size of the id space: ids in [0, id_space) either occupy a slot or are
  /// tombstoned (deleted, available for reuse by the layer above).
  uint64_t id_space = 0;
  std::vector<PageId> data_pages;
  std::vector<uint32_t> slots;
};

/// Stores the full-dimensional data points on the disk, packed in a
/// caller-chosen order.
///
/// The order is the paper's key I/O lever (Section 6): the BB-forest stores
/// points in the leaf order of one of the trees, so PCCP-similar clusters in
/// other subspaces index mostly the same pages, and candidate refinement
/// touches few distinct pages. `FetchMany` reads each distinct page exactly
/// once, which is what a real engine would do after sorting candidate
/// addresses. Reads pin pages (PageSource::PinPage) rather than copy them:
/// a page held in memory, or a FilePager page inside its file mapping, is
/// read where it lies.
///
/// The store is mutable: `Append` places a new (or re-used) id into a free
/// slot -- tombstoned slots first, then the tail of the last page, growing
/// by one pager page (which Allocate serves from the free-list when
/// possible) only when every slot is occupied. `Remove` tombstones a slot
/// and returns a fully emptied page to the pager's free-list, so the file
/// does not grow monotonically under insert/delete churn.
class PointStore {
 public:
  /// Sentinel in PointStoreLayout::slots / the slot tables: no point here.
  static constexpr uint32_t kNoPoint = UINT32_MAX;

  /// Lay out `data` on `pager` with row `order[i]` placed in the i-th slot.
  /// `order` must be a permutation of [0, data.rows()); empty means identity.
  PointStore(Pager* pager, const Matrix& data,
             std::span<const uint32_t> order);

  /// Re-attach to pages previously laid out by the writing constructor or
  /// mutated by Append/Remove (described by `layout()` of the original
  /// store). Performs no pager writes: only the in-memory address tables
  /// are rebuilt.
  PointStore(Pager* pager, const PointStoreLayout& layout);

  /// Read-only clone bound to an MVCC snapshot: shares the (COW) address
  /// table chunks with this store and fetches pages through `src`, which
  /// must outlive the clone. Cheap -- O(address table / CowVec chunk).
  /// Clones serve Fetch/FetchMany/Contains/CountDistinctPages; any mutating
  /// or writer-side call on a clone aborts.
  std::unique_ptr<PointStore> SnapshotClone(const PageSource* src) const;

  /// The placement description to persist for a later re-attach.
  PointStoreLayout layout() const;

  /// Points packed per page for this geometry. Capped at 2^16 (the slot
  /// field of PointAddress is 16 bits): a 1 GB page with 2-d points would
  /// otherwise silently wrap slot numbers and address the wrong points.
  static size_t PointsPerPage(size_t page_size, size_t dim) {
    return std::min<size_t>(page_size / (dim * sizeof(double)),
                            size_t{1} << 16);
  }

  size_t dim() const { return dim_; }
  /// Number of live (non-tombstoned) points.
  size_t num_points() const { return live_; }
  /// Size of the id space (max id ever stored + 1; tombstoned ids count).
  size_t id_space() const { return address_of_.size(); }
  size_t points_per_page() const { return points_per_page_; }
  /// Data pages currently owned (freed pages excluded).
  size_t num_data_pages() const { return page_index_of_.size(); }

  /// Whether `id` is live (stored, not tombstoned).
  bool Contains(uint32_t id) const {
    return id < address_of_.size() &&
           address_of_[id].page != kInvalidPageId;
  }

  PointAddress AddressOf(uint32_t id) const { return address_of_[id]; }

  /// Store `x` under `id`: either the next fresh id (== id_space()) or a
  /// tombstoned id being reused. Costs one page read-modify-write, a
  /// Pager::Patch of the slot (plus a page allocation when no free slot
  /// exists).
  void Append(uint32_t id, std::span<const double> x);

  /// Tombstone a live point. A page whose last point is removed is returned
  /// to the pager's free-list.
  void Remove(uint32_t id);

  /// Read one live point (charges a read of its page, pinned through
  /// PageSource::PinPage, so a page held in memory or in a FilePager's
  /// mapping is not copied, only the point).
  void Fetch(uint32_t id, std::span<double> out) const;

  /// Pins of the pages one query keeps between two fetches, so the second
  /// does not read again a page the first read (a kNN query's seeds, then
  /// its refine). Ascending by page id. Query-scoped: the pins hold shadow
  /// images and file mappings alive, like any pin.
  struct PageMemo {
    std::vector<PageId> ids;
    std::vector<PagePin> pages;
    /// The kept page `id`, or nullptr.
    const PageImage* Find(PageId id) const;
  };

  /// Fetch a batch: distinct pages are pinned once each, in ascending page
  /// order, each pin counting one read; `cb` is invoked once per requested
  /// id (duplicates in `ids` are collapsed) with a span that points into
  /// the pinned page, valid for the call. This is the refinement step's
  /// I/O pattern. Pages `reuse` holds are served from it without a read;
  /// every page read is added to `keep` (which must start empty).
  void FetchMany(std::span<const uint32_t> ids,
                 const std::function<void(uint32_t, std::span<const double>)>&
                     cb,
                 const PageMemo* reuse = nullptr,
                 PageMemo* keep = nullptr) const;

  /// Number of distinct pages a batch would touch (the per-query I/O cost of
  /// refinement, without actually fetching).
  size_t CountDistinctPages(std::span<const uint32_t> ids) const;

  /// Pages currently referenced (for partition-level page accounting).
  std::vector<PageId> LivePages() const;

  /// Structural self-check: address table, slot tables, per-page live
  /// counts and the free-slot pool must all agree. Aborts with a message on
  /// violation. Compiled always; called from tests after update batches.
  void DebugCheckInvariants() const;

 private:
  /// A free slot, identified by index into data_pages_ (not PageId, so
  /// freeing a page can drop its slots).
  struct SlotRef {
    uint32_t page_index;
    uint16_t slot;
  };

  /// Append one fresh pager page worth of free slots.
  void AddPage();
  void WriteSlot(uint32_t page_index, uint16_t slot,
                 std::span<const double> x);

  /// Snapshot-clone constructor (see SnapshotClone).
  PointStore(const PageSource* src, size_t dim, size_t points_per_page,
             size_t live, CowVec<PointAddress> address_of);

  Pager* pager_;              // null in snapshot clones (read-only)
  const PageSource* src_;     // where reads fetch pages from
  size_t dim_;
  size_t points_per_page_;
  size_t live_ = 0;
  CowVec<PointAddress> address_of_;              // by point id
  std::vector<PageId> data_pages_;               // slot-table order
  std::vector<std::vector<uint32_t>> page_slots_;  // page idx -> slot -> id
  std::vector<uint32_t> page_live_;              // page idx -> live points
  std::unordered_map<PageId, uint32_t> page_index_of_;
  std::vector<SlotRef> free_slots_;
  /// data_pages_ indices whose page was returned to the pager; AddPage
  /// reclaims these, so churn does not grow the slot table (and with it
  /// every Save's serialized layout) monotonically.
  std::vector<uint32_t> retired_entries_;
};

}  // namespace brep

#endif  // BREP_STORAGE_POINT_STORE_H_
