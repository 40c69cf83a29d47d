#include "storage/file_pager.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/check.h"
#include "common/timer.h"
#include "storage/serial.h"

namespace brep {
namespace {

// "BREPIDX1" as a little-endian u64.
constexpr uint64_t kMagic = 0x3158444950455242ull;
constexpr size_t kSuperblockBytes = 4096;
// Sanity ceiling on the superblock's page size (Table 4 uses 32-128 KB; 1
// GB is far beyond any sane configuration). FNV-1a is not cryptographic, so
// Open must stay within the documented clean-error contract even for a
// checksum-colliding superblock: an absurd page size would otherwise
// overflow the size arithmetic or bad_alloc in the constructor.
constexpr uint64_t kMaxPageSize = uint64_t{1} << 30;

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Pages are read in place from the mapping, so a page must start at a
/// multiple of alignof(double) (the point store hands out its doubles
/// where they lie); the mapping and the superblock are 4096-aligned.
bool ValidPageSize(uint64_t page_size) {
  return page_size >= 64 && page_size <= kMaxPageSize &&
         page_size % alignof(double) == 0;
}

/// Read the superblock: the one read this file issues as a syscall, since
/// pages are read through the mapping, which Open makes only after the
/// superblock has validated the file.
bool ReadSuperblock(int fd, std::vector<uint8_t>* superblock) {
  superblock->resize(kSuperblockBytes);
  size_t done = 0;
  while (done < kSuperblockBytes) {
    const ssize_t n = ::pread(fd, superblock->data() + done,
                              kSuperblockBytes - done,
                              static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;  // interrupted, not failed
    if (n <= 0) return false;  // 0 = truncated file, <0 = I/O error (errno)
    done += static_cast<size_t>(n);
  }
  return true;
}

bool PwriteAll(int fd, const uint8_t* src, size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, src + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

/// One read-only MAP_SHARED mapping of the file's first `length` bytes,
/// unmapped when its last owner -- the pager, or a pin into it -- lets go.
struct FilePager::Mapping {
  Mapping(const uint8_t* mapped, size_t mapped_length)
      : bytes(mapped), length(mapped_length) {}
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() { ::munmap(const_cast<uint8_t*>(bytes), length); }

  const uint8_t* bytes;
  size_t length;
};

/// A base-page pin: a view of the page inside `mapping`, which it co-owns.
struct FilePager::MappedPage {
  MappedPage(std::shared_ptr<const Mapping> owner, const uint8_t* bytes,
             size_t size)
      : mapping(std::move(owner)), view(PageImage::View(bytes, size)) {}

  std::shared_ptr<const Mapping> mapping;
  PageImage view;
};

FilePager::FilePager(std::string path, int fd, size_t page_size_bytes,
                     bool writable)
    : Pager(page_size_bytes),
      path_(std::move(path)),
      fd_(fd),
      writable_(writable),
      scratch_(page_size_bytes, 0) {}

FilePager::~FilePager() {
  if (fd_ >= 0) {
    // Push any shadow pages down to the file before the durability checks
    // below (writes land in the COW table first; a clean close must not
    // lose them).
    if (writable_ && ShadowPages() > 0) FlushToBase();
    // Persist un-synced state on clean close; pure readers leave the file
    // untouched (a reader killed mid-write must not be able to tear the
    // superblock of an index it only served). Best-effort fsync so a clean
    // process exit followed by a machine crash still keeps the file --
    // Sync()'s aborting checks have no place in a destructor.
    if (writable_ && dirty_) {
      if (grown_pages_ > num_pages()) {
        // Trim geometric-growth slack so the file ends exactly at the last
        // page (Open validates size against the superblock's page count).
        ::ftruncate(fd_, static_cast<off_t>(kSuperblockBytes +
                                            num_pages() * page_size()));
      }
      if (::fdatasync(fd_) == 0) {
        fdatasyncs_.fetch_add(1, std::memory_order_relaxed);
      }
      WriteSuperblock();
      if (::fsync(fd_) == 0) fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
    ::close(fd_);
  }
}

uint64_t FilePager::PageOffset(PageId id) const {
  return kSuperblockBytes + static_cast<uint64_t>(id) * page_size();
}

bool FilePager::WriteSuperblock() {
  ByteWriter w;
  w.Value<uint64_t>(kMagic);
  w.Value<uint32_t>(kFormatVersion);
  w.Value<uint64_t>(page_size());
  w.Value<uint64_t>(num_pages());
  w.Value<uint32_t>(catalog().first_page);
  w.Value<uint32_t>(catalog().num_pages);
  w.Value<uint64_t>(catalog().num_bytes);
  w.Value<uint32_t>(free_list_head());
  w.Value<uint64_t>(num_free_pages());
  w.Value<uint64_t>(catalog().durable_lsn);
  w.Value<uint64_t>(Fnv1a64(w.bytes()));
  std::vector<uint8_t> block = w.Take();
  BREP_CHECK(block.size() <= kSuperblockBytes);
  block.resize(kSuperblockBytes, 0);
  return PwriteAll(fd_, block.data(), block.size(), 0);
}

std::unique_ptr<FilePager> FilePager::Create(const std::string& path,
                                             size_t page_size_bytes,
                                             std::string* error) {
  if (!ValidPageSize(page_size_bytes)) {
    SetError(error,
             "page size must be a multiple of 8 between 64 bytes and 1 GB");
    return nullptr;
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    SetError(error, Errno("cannot create " + path));
    return nullptr;
  }
  std::unique_ptr<FilePager> pager(
      new FilePager(path, fd, page_size_bytes, /*writable=*/true));
  // fsync the initial superblock: a freshly created file must not be able
  // to reopen as garbage after a crash that caught it page-cache-only.
  if (!pager->WriteSuperblock() || ::fsync(fd) != 0) {
    SetError(error, Errno("cannot write superblock of " + path));
    pager.reset();           // close before unlink
    ::unlink(path.c_str());  // no stub left to misdiagnose as corruption
    return nullptr;
  }
  pager->fsyncs_.fetch_add(1, std::memory_order_relaxed);
  return pager;
}

std::unique_ptr<FilePager> FilePager::Open(const std::string& path,
                                           std::string* error) {
  bool writable = true;
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0 && (errno == EACCES || errno == EROFS)) {
    writable = false;
    fd = ::open(path.c_str(), O_RDONLY);
  }
  if (fd < 0) {
    SetError(error, Errno("cannot open " + path));
    return nullptr;
  }
  std::vector<uint8_t> block;
  errno = 0;
  if (!ReadSuperblock(fd, &block)) {
    // Distinguish a short file from a real read error so an operator never
    // deletes a healthy index over a transient EIO.
    const std::string msg =
        errno != 0 ? Errno("cannot read superblock of " + path)
                   : path + ": truncated index file (superblock incomplete)";
    ::close(fd);
    SetError(error, msg);
    return nullptr;
  }

  ByteReader r(block);
  const uint64_t magic = r.Value<uint64_t>();
  const uint32_t version = r.Value<uint32_t>();
  const uint64_t page_size = r.Value<uint64_t>();
  const uint64_t num_pages = r.Value<uint64_t>();
  CatalogRef catalog;
  catalog.first_page = r.Value<uint32_t>();
  catalog.num_pages = r.Value<uint32_t>();
  catalog.num_bytes = r.Value<uint64_t>();
  const PageId free_head = r.Value<uint32_t>();
  const uint64_t free_count = r.Value<uint64_t>();
  if (magic != kMagic) {
    ::close(fd);
    SetError(error, path + ": not a BrePartition index file (bad magic)");
    return nullptr;
  }
  // v4 changed the tree-leaf payload layout (row-major -> SoA), so older
  // files cannot be served correctly and are rejected outright.
  if (version != kFormatVersion) {
    ::close(fd);
    SetError(error, path + ": unsupported index format version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kFormatVersion) + ")");
    return nullptr;
  }
  catalog.durable_lsn = r.Value<uint64_t>();
  const size_t checked_bytes = kSuperblockBytes - r.remaining();
  const uint64_t stored_sum = r.Value<uint64_t>();
  const uint64_t computed_sum =
      Fnv1a64(std::span<const uint8_t>(block.data(), checked_bytes));
  if (stored_sum != computed_sum) {
    ::close(fd);
    SetError(error, path + ": superblock checksum mismatch (corrupted file)");
    return nullptr;
  }
  if (!ValidPageSize(page_size)) {
    ::close(fd);
    SetError(error, path + ": invalid page size in superblock");
    return nullptr;
  }
  // Page ids are 32-bit, and a page count beyond that range could only
  // come from corruption (a sparse file satisfies the size check below
  // cheaply, so the count must be bounded on its own).
  if (num_pages >= kInvalidPageId ||
      num_pages > (UINT64_MAX - kSuperblockBytes) / page_size) {
    ::close(fd);
    SetError(error, path + ": invalid page count in superblock");
    return nullptr;
  }
  struct stat sb{};
  if (::fstat(fd, &sb) != 0) {
    const std::string msg = Errno("fstat failed on " + path);  // before close
    ::close(fd);
    SetError(error, msg);
    return nullptr;
  }
  const uint64_t need = kSuperblockBytes + num_pages * page_size;
  if (static_cast<uint64_t>(sb.st_size) < need) {
    ::close(fd);
    SetError(error, path + ": truncated index file (" +
                        std::to_string(sb.st_size) + " bytes, superblock " +
                        "promises " + std::to_string(need) + ")");
    return nullptr;
  }

  std::unique_ptr<FilePager> pager(
      new FilePager(path, fd, page_size, writable));
  pager->set_num_pages(num_pages);
  pager->grown_pages_ = num_pages;
  if (catalog.num_pages > 0) pager->set_catalog(catalog);
  if (!pager->MapFile(need)) {
    SetError(error, Errno("cannot map " + path));
    return nullptr;
  }

  // Free-list: validate the superblock fields and walk the whole on-disk
  // chain before adopting it. FNV-1a is not cryptographic, so Allocate()
  // must never be the first place a corrupted chain is discovered -- that
  // path aborts, this one reports a clean error.
  if ((free_head == kInvalidPageId) != (free_count == 0) ||
      free_count > num_pages ||
      (free_head != kInvalidPageId && free_head >= num_pages)) {
    SetError(error, path + ": invalid free-list in superblock");
    return nullptr;
  }
  if (free_count > 0) {
    std::vector<bool> seen(num_pages, false);
    PageBuffer buf(page_size);
    PageId cursor = free_head;
    for (uint64_t i = 0; i < free_count; ++i) {
      if (cursor == kInvalidPageId || cursor >= num_pages || seen[cursor]) {
        SetError(error, path + ": corrupted free-list chain");
        return nullptr;
      }
      seen[cursor] = true;
      pager->DoRead(cursor, buf.data());
      PageId next = kInvalidPageId;
      if (!ParseFreePageRecord(buf, &next)) {
        SetError(error, path + ": corrupted free-list page record");
        return nullptr;
      }
      cursor = next;
    }
    if (cursor != kInvalidPageId) {
      SetError(error, path + ": corrupted free-list chain (count mismatch)");
      return nullptr;
    }
    pager->RestoreFreeList(free_head, free_count);
  }
  return pager;
}

void FilePager::CommitCatalog(const CatalogRef& ref) {
  // Writes live in the COW shadow table until flushed; a durable commit
  // point must first put every page the catalog references into the file.
  // (The in-place save path flushes explicitly before committing -- after
  // draining reader pins -- making this a no-op scan there.)
  FlushToBase();
  Pager::CommitCatalog(ref);
  Sync();
}

void FilePager::Sync() {
  if (grown_pages_ > num_pages()) {
    // Trim geometric-growth slack: the synced file ends exactly at its
    // last page (a later Allocate simply grows again).
    BREP_CHECK_MSG(::ftruncate(fd_, static_cast<off_t>(
                                        kSuperblockBytes +
                                        num_pages() * page_size())) == 0,
                   "ftruncate failed");
    grown_pages_ = num_pages();
  }
  // Barrier: page data must be durable before the superblock repoints to
  // it, otherwise a crash between the two writes could leave a committed
  // superblock referencing catalog pages that never reached the disk.
  // fdatasync suffices here -- it covers the data pages plus the metadata
  // needed to read them back (the ftruncate'd size); the timestamps a full
  // fsync would add buy nothing. The superblock rewrite itself stays
  // within the file's first sector (the used prefix is ~64 bytes), which
  // sector-atomic media update in one piece, and the closing fsync makes
  // the commit point durable.
  Timer sync_timer;
  BREP_CHECK_MSG(::fdatasync(fd_) == 0, "fdatasync failed");
  fdatasyncs_.fetch_add(1, std::memory_order_relaxed);
  BREP_CHECK_MSG(WriteSuperblock(), "superblock write failed");
  BREP_CHECK_MSG(::fsync(fd_) == 0, "fsync failed");
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  sync_ms_.Record(sync_timer.ElapsedMillis());
  dirty_ = false;
}

void FilePager::DoGrow(size_t new_num_pages) {
  BREP_CHECK_MSG(writable_, "pager opened read-only");
  dirty_ = true;
  if (new_num_pages <= grown_pages_) return;
  // Grow geometrically so a build issuing one Allocate per page does not
  // pay one ftruncate syscall per page; the destructor trims the slack.
  const uint64_t target =
      std::max<uint64_t>(new_num_pages, std::max<uint64_t>(64, grown_pages_ * 2));
  const off_t size =
      static_cast<off_t>(kSuperblockBytes + target * page_size());
  BREP_CHECK_MSG(::ftruncate(fd_, size) == 0, "ftruncate failed");
  BREP_CHECK_MSG(MapFile(static_cast<uint64_t>(size)), "mmap failed");
  grown_pages_ = target;
}

void FilePager::DoWrite(PageId id, std::span<const uint8_t> data) {
  BREP_CHECK_MSG(writable_, "pager opened read-only");
  dirty_ = true;
  Timer write_timer;
  if (data.size() == page_size()) {  // full page: no assembly copy needed
    BREP_CHECK_MSG(PwriteAll(fd_, data.data(), page_size(), PageOffset(id)),
                   "page write failed");
    write_ms_.Record(write_timer.ElapsedMillis());
    return;
  }
  if (!data.empty()) std::memcpy(scratch_.data(), data.data(), data.size());
  std::memset(scratch_.data() + data.size(), 0, page_size() - data.size());
  BREP_CHECK_MSG(
      PwriteAll(fd_, scratch_.data(), page_size(), PageOffset(id)),
      "page write failed");
  write_ms_.Record(write_timer.ElapsedMillis());
}

bool FilePager::MapFile(uint64_t bytes) {
  void* mapped = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd_, 0);
  if (mapped == MAP_FAILED) return false;
  std::shared_ptr<const Mapping> map =
      std::make_shared<Mapping>(static_cast<const uint8_t*>(mapped), bytes);
  std::lock_guard<std::mutex> lock(map_mu_);
  map_.swap(map);  // the old mapping goes when its last pin does
  return true;
}

std::shared_ptr<const FilePager::Mapping> FilePager::CurrentMapping() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return map_;
}

void FilePager::DoRead(PageId id, uint8_t* out) const {
  Timer read_timer;
  const std::shared_ptr<const Mapping> map = CurrentMapping();
  std::memcpy(out, map->bytes + PageOffset(id), page_size());
  read_ms_.Record(read_timer.ElapsedMillis());
}

// Pins into the mapping. A base-page pin views the file's bytes in place,
// so it keeps the PinPage contract only while nothing writes that page of
// the file:
//  * Only FlushToBase writes pages (DoWrite), and only pages that hold a
//    shadow image. A page gets a shadow image, with a new generation, only
//    from a write, so the page's generation is newer than that of any pin
//    of its base bytes.
//  * BrePartition::SaveLocked publishes the current version, which reports
//    the new generation, and runs DrainRetiredLocked before it flushes. So
//    every version that could report the older generation is retired
//    first, and no query is still reading through one.
//  * A BufferPool entry hits only on the generation its caller's source
//    reports, so the pool never serves an entry stamped with the older
//    generation again, though it may hold one until eviction.
// Growth never moves a pinned page: DoGrow maps the grown file as a new
// mapping object, and each pin co-owns the mapping it points into.
PagePin FilePager::DoPin(PageId id) const {
  Timer read_timer;
  std::shared_ptr<const Mapping> map = CurrentMapping();
  const uint8_t* bytes = map->bytes + PageOffset(id);
  auto page = std::make_shared<MappedPage>(std::move(map), bytes, page_size());
  const PageImage* view = &page->view;
  read_ms_.Record(read_timer.ElapsedMillis());
  return PagePin(std::move(page), view);
}

bool FilePager::SyncDirectory(const std::string& file_path) {
  const size_t slash = file_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : file_path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace brep
