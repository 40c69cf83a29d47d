#ifndef BREP_STORAGE_FILE_PAGER_H_
#define BREP_STORAGE_FILE_PAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/pager.h"

namespace brep {

/// The file-backed storage backend: pages live in a real file behind a
/// fixed-size superblock, so an index built through this pager survives the
/// process and can be re-served by BrePartition::Open with zero rebuild
/// work (the build-once / serve-many life cycle of a production engine).
///
/// File layout:
///
///   [superblock: 4096 bytes]  magic, format version, page size, page
///                             count, catalog reference, free-list head +
///                             count, FNV-1a checksum
///   [page 0][page 1]...       page i at byte 4096 + i * page_size
///
/// Freed pages (Pager::Free) stay in the file as checksummed free-page
/// records chained from the superblock's free-list head; Open() walks and
/// validates the whole chain before trusting it, so a corrupted free-list
/// is a clean open error, never a crash on a later Allocate().
///
/// Reads go through a read-only MAP_SHARED mapping of the whole file, made
/// at Open (and by each DoGrow, as a new mapping object, after the file
/// grows): a base-page pin (PageSource::PinPage) is a view of the page
/// inside the mapping, with no copy, and DoRead copies out of it. The
/// superblock is the one byte range read with a syscall, before the
/// mapping exists. Each pin co-owns the mapping it points into, so growth
/// or the pager's destruction never unmaps bytes a pin or a pool entry
/// still reads; an old mapping is unmapped when its last owner lets go.
/// Any number of threads may read concurrently with each other and with
/// the writer's growth -- the same contract as MemPager. Writes are
/// positioned (pwrite) and, with Allocate(), stay writer-side; the
/// mapping sees them through the shared page cache. A media error on a
/// mapped page raises SIGBUS in the reading thread. CommitCatalog
/// rewrites the superblock and fsyncs, which is the durability point: a
/// file without a committed superblock update since its last writes simply
/// reopens with the previously committed state.
///
/// Open() validates magic, version, checksum and file size, and reports
/// corruption, like a failed mapping, as a clean error string instead of
/// crashing. The page size must be a multiple of 8, so the doubles a
/// mapped page holds are read in place aligned (PointStore::FetchMany).
class FilePager final : public Pager {
 public:
  /// On-disk format version; bumped on any incompatible layout change.
  /// v2 added the persistent free-list (head + count in the superblock).
  /// v3 appended the WAL durability watermark (catalog durable_lsn).
  /// v4 switched tree-leaf payloads to a column-major (SoA) point layout
  /// for the batched divergence kernels; older files would decode leaf
  /// vectors transposed, so v4 readers reject them instead of serving
  /// silently wrong distances.
  static constexpr uint32_t kFormatVersion = 4;

  /// Count of durability barriers this pager has issued (fsync covers
  /// metadata + data, fdatasync only what reading the data needs). Exposed
  /// so tests can prove every commit point actually reaches the disk
  /// instead of stopping at the page cache.
  struct SyncCounts {
    uint64_t fsyncs = 0;
    uint64_t fdatasyncs = 0;
  };

  /// Create (truncating any existing file) a fresh paged file.
  /// Returns nullptr and sets `*error` on filesystem failure.
  static std::unique_ptr<FilePager> Create(const std::string& path,
                                           size_t page_size_bytes,
                                           std::string* error = nullptr);

  /// Re-attach to an existing paged file, restoring page count and the
  /// committed catalog. Returns nullptr and sets `*error` if the file is
  /// missing, truncated, has a foreign magic, an unsupported version, or a
  /// checksum mismatch. A file that is not writable (immutable artifact,
  /// read-only mount) opens in read-only mode: serving works, writes
  /// abort. Pure readers never touch the file -- the superblock is only
  /// rewritten when pages were allocated/written or a catalog committed.
  static std::unique_ptr<FilePager> Open(const std::string& path,
                                         std::string* error = nullptr);

  ~FilePager() override;

  const std::string& path() const { return path_; }
  bool read_only() const { return !writable_; }

  /// Persist the catalog reference: rewrite the superblock and fsync.
  void CommitCatalog(const CatalogRef& ref) override;

  /// Rewrite the superblock (page count may have grown) and make the file
  /// durable: fdatasync as the data barrier (page contents must reach the
  /// disk before the superblock repoints at them), then a full fsync after
  /// the superblock rewrite.
  void Sync();

  SyncCounts sync_counts() const {
    return SyncCounts{fsyncs_.load(std::memory_order_relaxed),
                      fdatasyncs_.load(std::memory_order_relaxed)};
  }

  /// Real-I/O latency distributions: backend reads (one sample per
  /// DoRead copy or DoPin view, so the count equals the base-page reads),
  /// pwrite and Sync barriers. A mapped page's faults land in whoever
  /// first touches its bytes, not in a read sample. Snapshot-safe
  /// concurrently with serving; only the FilePager has these (MemPager
  /// does no real I/O, so it honestly reports nothing).
  obs::HistogramSnapshot read_latency() const { return read_ms_.Snapshot(); }
  obs::HistogramSnapshot write_latency() const { return write_ms_.Snapshot(); }
  obs::HistogramSnapshot sync_latency() const { return sync_ms_.Snapshot(); }

  /// fsync the directory containing `file_path`, making a just-renamed
  /// file durable under its new name (rename itself only mutates the
  /// directory, which has its own cache entry). Returns false on failure.
  static bool SyncDirectory(const std::string& file_path);

 protected:
  void DoGrow(size_t new_num_pages) override;
  void DoWrite(PageId id, std::span<const uint8_t> data) override;
  void DoRead(PageId id, uint8_t* out) const override;
  PagePin DoPin(PageId id) const override;

 private:
  struct Mapping;
  struct MappedPage;

  FilePager(std::string path, int fd, size_t page_size_bytes, bool writable);

  bool WriteSuperblock();
  uint64_t PageOffset(PageId id) const;
  /// Map the file's first `bytes` bytes read-only and make that the
  /// current mapping; false (errno set) if mmap fails.
  bool MapFile(uint64_t bytes);
  std::shared_ptr<const Mapping> CurrentMapping() const;

  std::string path_;
  int fd_;
  bool writable_;
  bool dirty_ = false;        // un-synced allocations/writes/catalog
  uint64_t grown_pages_ = 0;  // pages the file has capacity for (>= num_pages)
  /// Atomic so a metrics snapshot may read them while Save()/the flusher
  /// is mid-Sync (torn-read audit: plain counters here would race).
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> fdatasyncs_{0};
  /// mutable: DoRead is const (concurrent query reads), and histograms are
  /// internally synchronized.
  mutable obs::LatencyHistogram read_ms_;
  obs::LatencyHistogram write_ms_;
  obs::LatencyHistogram sync_ms_;
  std::vector<uint8_t> scratch_;  // build-path short-write assembly buffer
  /// The mapping covering every page; DoGrow replaces it under map_mu_
  /// while readers copy it.
  mutable std::mutex map_mu_;
  std::shared_ptr<const Mapping> map_;
};

}  // namespace brep

#endif  // BREP_STORAGE_FILE_PAGER_H_
