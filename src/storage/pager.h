#ifndef BREP_STORAGE_PAGER_H_
#define BREP_STORAGE_PAGER_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/cow_vec.h"
#include "storage/page.h"

namespace brep {

class PageSnapshot;

/// Reference to the index catalog: the run of pages holding the serialized
/// index superstructure (written by BrePartition::Save, consumed by
/// BrePartition::Open). Catalog pages are allocated with WriteBlob, so they
/// are always a contiguous run.
struct CatalogRef {
  PageId first_page = kInvalidPageId;
  uint32_t num_pages = 0;
  uint64_t num_bytes = 0;
  /// WAL watermark: every logged operation with LSN <= durable_lsn is
  /// already reflected in the committed catalog, so crash recovery replays
  /// only the log suffix past it (and re-replaying an old log against this
  /// state is a no-op). 0 for indexes that never ran under a WAL.
  uint64_t durable_lsn = 0;

  bool valid() const { return first_page != kInvalidPageId; }
};

/// Where page bytes come from on a read path: either the live Pager (the
/// writer's working view) or an immutable PageSnapshot a reader pinned.
/// `PageGen` keys the BufferPool: a cached page is a hit only when its
/// generation matches the source's, so a writer publishing a new page
/// version invalidates stale cache entries without any cross-thread
/// bookkeeping.
class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Bytes per page.
  size_t page_size() const { return page_size_; }

  /// Copy a page into `out`, which must hold page_size() bytes. Every byte
  /// is overwritten, so `out` need not be initialised (PageImage). Counts
  /// one read on the underlying disk's I/O statistics. For callers that
  /// keep a copy of their own; a read that only looks at the bytes pins
  /// them (PinPage), which copies nothing on a FilePager.
  virtual void FetchPage(PageId id, uint8_t* out) const = 0;

  /// Pin a page's bytes as this view holds them, counting one read like
  /// FetchPage. A shadow page (one held in memory since the last
  /// FlushToBase) is handed out as its own image, without a copy. A base
  /// page is the backend's (Pager::DoPin): a FilePager hands out a
  /// read-only view of the page inside its file mapping, also without a
  /// copy; a MemPager copies it into a fresh image. The pin's bytes stay
  /// unchanged for as long as it is held:
  ///  * the pager never writes in place into a shadow image anyone else
  ///    holds (see Pager, "In-place rule");
  ///  * a base-page pin of a FilePager views the file, which only
  ///    FlushToBase overwrites, only for a page whose generation is newer
  ///    than the pin's, and only after the save path has retired every
  ///    version that could report the older generation; the
  ///    generation-keyed BufferPool therefore never serves such an entry
  ///    again (see FilePager, "Pins into the mapping").
  virtual PagePin PinPage(PageId id) const = 0;

  /// Monotonic version stamp of the page's current contents in this view.
  virtual uint64_t PageGen(PageId id) const = 0;

 protected:
  explicit PageSource(size_t page_size) : page_size_(page_size) {}

  const size_t page_size_;
};

/// A page-granular disk: the storage backend behind every disk-resident
/// structure (point store, BB-forest nodes, VA-file approximation array,
/// index catalog).
///
/// All reads/writes are page-counted, so `stats()` yields exactly the
/// paper's I/O-cost metric regardless of backend. Page size is configurable
/// per dataset (Table 4 uses 32-128 KB). Two backends exist:
///
///  * MemPager  -- pages in process memory (the original simulated disk;
///    fast, gone at process exit).
///  * FilePager -- pages in a real file behind a versioned, checksummed
///    superblock (see storage/file_pager.h); an index built on it can be
///    reopened by a later process with zero rebuild work.
///
/// MVCC shadow table: Write() and Patch() never touch the backend in place.
/// A write lands in a copy-on-write page table as a heap PageImage (the
/// page's shadow image) stamped with a monotonically increasing
/// generation; every read consults that table before the backend, and
/// PinPage hands the shadow image itself out, so a buffer-pool miss on a
/// page held in memory copies nothing. A PageSnapshot captures the table
/// (an O(table/1024) spine copy) plus the free-list/catalog metadata,
/// giving readers a frozen view that later writes can never perturb.
/// FlushToBase() pushes the shadow pages down into the backend (the
/// save/commit path); the generations survive the flush so cached pages
/// never alias across versions.
///
/// In-place rule: a write fills a new shadow image (Patch copies the
/// page's current bytes into it first) unless the current image is private
/// to the writer, which takes both a generation newer than the last
/// snapshot capture (no snapshot holds it) and use_count() == 1 (no pin or
/// pool entry holds it); then the write reuses that image in place. So a
/// sub-page update copies the page at most once, and an image anyone else
/// can read never changes.
///
/// Thread-safety: Allocate()/Write()/Patch()/Free()/FlushToBase()/
/// CommitCatalog() are writer-side and must be externally serialized
/// (BrePartition's writer mutex). Read()/FetchPage()/PinPage() on the live
/// Pager are writer-side too; readers go through a PageSnapshot, whose
/// FetchPage/PinPage are safe against any concurrent writer activity except
/// FlushToBase (the in-place save path drains reader pins first -- see
/// BrePartition::SaveLocked).
class Pager : public PageSource {
 public:
  explicit Pager(size_t page_size_bytes);
  ~Pager() override = default;

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  size_t num_pages() const { return num_pages_; }

  /// Allocate a zeroed page and return its id. Freed pages are reused
  /// first (popped off the persistent free-list, costing one read to fetch
  /// the next-pointer and one write to zero the page); only when the list
  /// is empty does the backing store grow.
  PageId Allocate();

  /// Return a page to the free-list for a later Allocate() to reuse. The
  /// page's contents are replaced by a checksummed free-page record (magic,
  /// next pointer), so the list itself lives on the disk and survives a
  /// Save/Open round trip; the superblock (FilePager) persists only the
  /// head and count.
  void Free(PageId id);

  /// Head of the free-list (kInvalidPageId when empty) and its length.
  PageId free_list_head() const { return free_head_; }
  uint64_t num_free_pages() const { return free_count_; }

  /// Walk the free-list and return every page on it, head first. Aborts
  /// with a message on a corrupted list (bad record checksum, cycle, out of
  /// range) -- this is the invariant-checking view; FilePager::Open
  /// performs the same walk with clean errors before trusting a file.
  std::vector<PageId> FreePageIds() const;

  /// Adopt a free-list restored from persistent state (FilePager::Open) or
  /// carried over by a page-for-page copy of another disk (Index::Save).
  /// The records themselves must already be present in the pages.
  void RestoreFreeList(PageId head, uint64_t count);

  /// Decode the next-pointer of a free-page record from raw page bytes;
  /// false if the bytes are not a valid record (wrong magic or checksum).
  /// Exposed so FilePager::Open can validate a file's free-list chain with
  /// clean errors before adopting it.
  static bool ParseFreePageRecord(std::span<const uint8_t> page_bytes,
                                  PageId* next);

  /// Overwrite a page. `data.size()` must not exceed the page size; shorter
  /// writes zero-fill the remainder. Counts one write. The write lands in
  /// the COW shadow table, not the backend (see FlushToBase).
  void Write(PageId id, std::span<const uint8_t> data);

  /// Overwrite bytes [offset, offset + bytes.size()) of a page and keep the
  /// rest: the Read + modify + Write of a sub-page update, which copies the
  /// page's current bytes once into a new shadow image, or not at all when
  /// the in-place rule lets it reuse the current one. Counts one read and
  /// one write, as the pair it replaces does.
  void Patch(PageId id, size_t offset, std::span<const uint8_t> bytes);

  /// Read a page into `out` (resized to page size), consulting the shadow
  /// table before the backend. Counts one read.
  void Read(PageId id, PageBuffer* out) const;

  // PageSource: the writer's working view of the disk.
  void FetchPage(PageId id, uint8_t* out) const override;
  PagePin PinPage(PageId id) const override;
  uint64_t PageGen(PageId id) const override;

  /// Push every shadow page down into the backend and drop the in-memory
  /// copies (generations are preserved, so pooled pages stay valid). Called
  /// on the save path after draining reader pins: a reader snapshot taken
  /// BEFORE the pages being flushed were written may read them from the
  /// backend, which this overwrites -- and on a FilePager, base-page pins
  /// and pool entries of those older generations view the file bytes this
  /// overwrites (PageSource::PinPage), so none may be read past this call.
  void FlushToBase();

  /// Pages currently held as in-memory shadow copies (feeds the
  /// brep_snapshot_cow_retained_pages gauge).
  size_t ShadowPages() const { return shadow_pages_; }

  /// Store an arbitrary-length blob across a contiguous run of pages;
  /// returns the page ids in order. Counts one write per page. The run is
  /// carved out of the free-list when it holds enough CONSECUTIVE ids
  /// (CatalogRef addresses the run as first_page + num_pages, so scattered
  /// reused pages would not do) and grown fresh otherwise -- repeated
  /// Save()s therefore recycle the previous catalog run instead of growing
  /// the disk monotonically.
  std::vector<PageId> WriteBlob(std::span<const uint8_t> bytes);

  /// Read back a blob of `size` bytes spanning `ids`. Counts one read per
  /// page.
  std::vector<uint8_t> ReadBlob(std::span<const PageId> ids,
                                size_t size) const;

  /// Durably record `ref` as this disk's index catalog. MemPager keeps it
  /// in memory (same-process reopen, used by tests); FilePager flushes the
  /// shadow table, persists the superblock and syncs, making the index
  /// survive the process.
  virtual void CommitCatalog(const CatalogRef& ref) { catalog_ = ref; }

  /// The committed catalog, if any (check valid()).
  const CatalogRef& catalog() const { return catalog_; }

  /// Snapshot of the counters (reads may be concurrent with queries).
  IoStats stats() const {
    return IoStats{reads_.load(std::memory_order_relaxed),
                   writes_.load(std::memory_order_relaxed)};
  }
  void ResetStats() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
  }

 protected:
  /// Backend hooks. `DoWrite` receives at most page_size() bytes and must
  /// zero-fill the rest of the page; `DoRead` fills exactly page_size()
  /// bytes; `DoPin` pins a base page's bytes (the base-page branch of
  /// PinPage, which counts the read); `DoGrow` extends the backing store
  /// to `new_num_pages` zeroed pages. `DoRead` and `DoPin` must tolerate
  /// concurrent DoRead/DoPin/DoGrow calls (snapshot readers fetch base
  /// pages while the writer allocates).
  virtual void DoGrow(size_t new_num_pages) = 0;
  virtual void DoWrite(PageId id, std::span<const uint8_t> data) = 0;
  virtual void DoRead(PageId id, uint8_t* out) const = 0;
  virtual PagePin DoPin(PageId id) const = 0;

  /// For backends that restore an existing disk (FilePager::Open).
  void set_num_pages(size_t n);
  void set_catalog(const CatalogRef& ref) { catalog_ = ref; }

 private:
  friend class PageSnapshot;

  /// One shadow-table entry. `data == nullptr` means the page's current
  /// contents live in the backend (as-opened, or flushed there at
  /// generation `gen`); otherwise `data` is the page's shadow image, which
  /// only the in-place rule lets a later write change.
  struct VersionedPage {
    std::shared_ptr<PageImage> data;
    uint64_t gen = 0;
  };

  /// The shadow image a write to page `id` fills: the current one when the
  /// in-place rule allows, else a new one -- holding a copy of the page's
  /// current bytes when `keep_bytes`, uninitialised otherwise.
  std::shared_ptr<PageImage> WritableImage(PageId id, bool keep_bytes);

  /// PinPage of the page whose table entry (this pager's or a snapshot's)
  /// is `entry`: its shadow image, or the backend's pin (DoPin). Counts
  /// one read.
  PagePin PinEntry(PageId id, const VersionedPage& entry) const;

  /// Table-aware page fetch without touching the read counter (Patch
  /// counts its read itself).
  void ReadNoCount(PageId id, uint8_t* out) const;

  /// Allocate `n` brand-new consecutive page ids (never from the
  /// free-list); the contiguity is what WriteBlob's callers rely on.
  PageId GrowRun(size_t n);

  /// Allocate `n` consecutive page ids: a run carved out of the free-list
  /// when one exists, a fresh GrowRun otherwise. The returned pages are
  /// NOT zeroed (callers overwrite every page).
  PageId AllocateRun(size_t n);

  size_t num_pages_ = 0;
  CatalogRef catalog_;
  PageId free_head_ = kInvalidPageId;
  uint64_t free_count_ = 0;
  mutable std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};

  /// COW shadow table, one entry per page. Snapshots copy the spine; the
  /// writer clones any chunk a snapshot still shares before mutating it.
  CowVec<VersionedPage> table_;
  uint64_t next_gen_ = 0;
  /// Highest generation captured by any PageSnapshot: a shadow image with
  /// a newer generation is in no snapshot, so Write/Patch may reuse it in
  /// place once no pin holds it either (see WritableImage).
  uint64_t last_snapshot_gen_ = 0;
  size_t shadow_pages_ = 0;
};

/// The in-memory backend: pages in a process-local deque, i.e. the original
/// simulated disk. Benchmarks use it to measure pure I/O counts without
/// filesystem noise; tests use it for fast round trips (and subclass it as
/// a write-count spy to pin down commit-point ordering).
///
/// A deque (of lazily materialized pages) rather than a vector: growth must
/// not move existing pages, because snapshot readers fetch base pages
/// concurrently with the writer allocating. The mutex guards only the
/// container structure -- the per-page buffer is addressed under the lock
/// and copied outside it (element references are growth-stable). A base
/// page's pin is a fresh copy (DoPin), since FlushToBase rewrites the
/// backend's buffers in place.
class MemPager : public Pager {
 public:
  explicit MemPager(size_t page_size_bytes) : Pager(page_size_bytes) {}

 protected:
  void DoGrow(size_t new_num_pages) override;
  void DoWrite(PageId id, std::span<const uint8_t> data) override;
  void DoRead(PageId id, uint8_t* out) const override;
  PagePin DoPin(PageId id) const override;

 private:
  mutable std::mutex mu_;
  /// nullptr = never flushed, reads as all zeroes (keeps grow O(1) and
  /// avoids doubling memory under the shadow table).
  std::deque<std::unique_ptr<PageBuffer>> pages_;
};

}  // namespace brep

#endif  // BREP_STORAGE_PAGER_H_
