#include "storage/pager.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/check.h"
#include "storage/serial.h"

namespace brep {
namespace {

// "BREPFREE" as a little-endian u64: marks a page that is on the free-list.
constexpr uint64_t kFreePageMagic = 0x4545524650455242ull;
// [magic u64][next u32][fnv1a64 over the previous 12 bytes].
constexpr size_t kFreeRecordBytes = 8 + 4 + 8;

void EncodeFreeRecord(uint8_t* out, PageId next) {
  std::memcpy(out, &kFreePageMagic, 8);
  std::memcpy(out + 8, &next, 4);
  const uint64_t sum = Fnv1a64(std::span<const uint8_t>(out, 12));
  std::memcpy(out + 12, &sum, 8);
}

}  // namespace

bool Pager::ParseFreePageRecord(std::span<const uint8_t> page_bytes,
                                PageId* next) {
  if (page_bytes.size() < kFreeRecordBytes) return false;
  const uint8_t* bytes = page_bytes.data();
  uint64_t magic = 0;
  std::memcpy(&magic, bytes, 8);
  if (magic != kFreePageMagic) return false;
  uint64_t stored = 0;
  std::memcpy(&stored, bytes + 12, 8);
  if (stored != Fnv1a64(std::span<const uint8_t>(bytes, 12))) return false;
  std::memcpy(next, bytes + 8, 4);
  return true;
}

Pager::Pager(size_t page_size_bytes) : PageSource(page_size_bytes) {
  BREP_CHECK(page_size_ >= 64);
}

void Pager::set_num_pages(size_t n) {
  num_pages_ = n;
  table_.Resize(n);
}

PageId Pager::GrowRun(size_t n) {
  DoGrow(num_pages_ + n);
  const PageId first = static_cast<PageId>(num_pages_);
  num_pages_ += n;
  table_.Resize(num_pages_);
  return first;
}

PageId Pager::Allocate() {
  if (free_head_ == kInvalidPageId) return GrowRun(1);
  const PageId id = free_head_;
  PageId next = kInvalidPageId;
  {  // unpin before the zeroing Write, so it may reuse the image in place
    const PagePin record = PinPage(id);
    BREP_CHECK_MSG(ParseFreePageRecord(
                       std::span<const uint8_t>(record->data(), page_size_),
                       &next),
                   "corrupted free-list page record");
  }
  BREP_CHECK_MSG(next == kInvalidPageId || next < num_pages_,
                 "corrupted free-list page record (next out of range)");
  free_head_ = next;
  --free_count_;
  Write(id, {});  // Allocate's contract: the page comes back zeroed
  return id;
}

void Pager::Free(PageId id) {
  BREP_CHECK(id < num_pages_);
  std::vector<uint8_t> record(kFreeRecordBytes);
  EncodeFreeRecord(record.data(), free_head_);
  Write(id, record);
  free_head_ = id;
  ++free_count_;
}

std::vector<PageId> Pager::FreePageIds() const {
  std::vector<PageId> ids;
  ids.reserve(free_count_);
  PageBuffer buf;
  PageId cursor = free_head_;
  while (cursor != kInvalidPageId) {
    BREP_CHECK_MSG(cursor < num_pages_, "free-list page out of range");
    BREP_CHECK_MSG(ids.size() < free_count_, "free-list longer than its "
                                             "recorded count (cycle?)");
    ids.push_back(cursor);
    Read(cursor, &buf);
    PageId next = kInvalidPageId;
    BREP_CHECK_MSG(ParseFreePageRecord(buf, &next),
                   "corrupted free-list page record");
    cursor = next;
  }
  BREP_CHECK_MSG(ids.size() == free_count_,
                 "free-list shorter than its recorded count");
  return ids;
}

void Pager::RestoreFreeList(PageId head, uint64_t count) {
  BREP_CHECK((head == kInvalidPageId) == (count == 0));
  BREP_CHECK(head == kInvalidPageId || head < num_pages_);
  free_head_ = head;
  free_count_ = count;
}

std::shared_ptr<PageImage> Pager::WritableImage(PageId id, bool keep_bytes) {
  const VersionedPage& cur = table_[id];
  // In place only when no one else can read the image. A generation newer
  // than the last capture puts it in no snapshot: a snapshot shares the
  // table chunks it captured, and the writer clones a shared chunk before
  // setting an entry in it. use_count() == 1 leaves no pin or pool entry
  // holding it. That count cannot go back up behind the writer's back:
  // only the writer reaches a post-snapshot generation (readers pin through
  // snapshots, and a pool hit needs the generation the caller's source
  // reports), so other threads can only drop references to it -- a reader
  // refreshing or evicting a pool entry -- never take one or read its bytes.
  if (cur.data != nullptr && cur.gen > last_snapshot_gen_ &&
      cur.data.use_count() == 1) {
    return cur.data;
  }
  if (cur.data == nullptr) ++shadow_pages_;
  auto image = std::make_shared<PageImage>(page_size_);
  if (keep_bytes) ReadNoCount(id, image->data());
  return image;
}

void Pager::Write(PageId id, std::span<const uint8_t> data) {
  BREP_CHECK(id < num_pages_);
  BREP_CHECK(data.size() <= page_size_);
  std::shared_ptr<PageImage> image = WritableImage(id, /*keep_bytes=*/false);
  if (!data.empty()) std::memcpy(image->data(), data.data(), data.size());
  std::memset(image->data() + data.size(), 0, page_size_ - data.size());
  table_.Set(id, VersionedPage{std::move(image), ++next_gen_});
  writes_.fetch_add(1, std::memory_order_relaxed);
}

void Pager::Patch(PageId id, size_t offset, std::span<const uint8_t> bytes) {
  BREP_CHECK(id < num_pages_);
  BREP_CHECK(offset <= page_size_ && bytes.size() <= page_size_ - offset);
  std::shared_ptr<PageImage> image = WritableImage(id, /*keep_bytes=*/true);
  if (!bytes.empty()) {
    std::memcpy(image->data() + offset, bytes.data(), bytes.size());
  }
  table_.Set(id, VersionedPage{std::move(image), ++next_gen_});
  reads_.fetch_add(1, std::memory_order_relaxed);
  writes_.fetch_add(1, std::memory_order_relaxed);
}

void Pager::ReadNoCount(PageId id, uint8_t* out) const {
  const VersionedPage& entry = table_[id];
  if (entry.data != nullptr) {
    std::memcpy(out, entry.data->data(), page_size_);
    return;
  }
  DoRead(id, out);
}

void Pager::FetchPage(PageId id, uint8_t* out) const {
  BREP_CHECK(id < num_pages_);
  ReadNoCount(id, out);
  reads_.fetch_add(1, std::memory_order_relaxed);
}

PagePin Pager::PinPage(PageId id) const {
  BREP_CHECK(id < num_pages_);
  return PinEntry(id, table_[id]);
}

PagePin Pager::PinEntry(PageId id, const VersionedPage& entry) const {
  reads_.fetch_add(1, std::memory_order_relaxed);
  if (entry.data != nullptr) return entry.data;
  return DoPin(id);
}

void Pager::Read(PageId id, PageBuffer* out) const {
  out->resize(page_size_);
  FetchPage(id, out->data());
}

uint64_t Pager::PageGen(PageId id) const {
  BREP_CHECK(id < num_pages_);
  return table_[id].gen;
}

void Pager::FlushToBase() {
  for (size_t id = 0; id < num_pages_; ++id) {
    const VersionedPage& entry = table_[id];
    if (entry.data == nullptr) continue;
    DoWrite(static_cast<PageId>(id),
            std::span<const uint8_t>(entry.data->data(), page_size_));
    // Keep the generation: the backend now holds exactly these bytes, so
    // pooled copies stamped with it stay valid (generations never recycle).
    table_.Set(id, VersionedPage{nullptr, entry.gen});
  }
  shadow_pages_ = 0;
}

PageId Pager::AllocateRun(size_t n) {
  if (free_count_ >= n) {
    const std::vector<PageId> chain = FreePageIds();  // head-first order
    std::vector<PageId> sorted = chain;
    std::sort(sorted.begin(), sorted.end());
    // First run of n consecutive ids.
    size_t run_len = 1;
    size_t found_end = sorted.size();  // index of the run's last element
    if (n == 1) {
      found_end = 0;
    } else {
      for (size_t i = 1; i < sorted.size(); ++i) {
        run_len = sorted[i] == sorted[i - 1] + 1 ? run_len + 1 : 1;
        if (run_len >= n) {
          found_end = i;
          break;
        }
      }
    }
    if (found_end < sorted.size()) {
      const PageId first = sorted[found_end] - static_cast<PageId>(n) + 1;
      // Splice the run out of the chain, rewriting only the records whose
      // successor actually changed (the run members are scattered through
      // the chain, so this is O(run) writes, not O(free-list)).
      const auto in_run = [&](PageId id) {
        return id >= first && id < first + n;
      };
      std::vector<PageId> kept;
      kept.reserve(chain.size() - n);
      std::unordered_map<PageId, PageId> old_next;
      old_next.reserve(chain.size());
      for (size_t i = 0; i < chain.size(); ++i) {
        old_next[chain[i]] =
            i + 1 < chain.size() ? chain[i + 1] : kInvalidPageId;
        if (!in_run(chain[i])) kept.push_back(chain[i]);
      }
      std::vector<uint8_t> record(kFreeRecordBytes);
      for (size_t i = 0; i < kept.size(); ++i) {
        const PageId want =
            i + 1 < kept.size() ? kept[i + 1] : kInvalidPageId;
        if (old_next[kept[i]] != want) {
          EncodeFreeRecord(record.data(), want);
          Write(kept[i], record);
        }
      }
      free_head_ = kept.empty() ? kInvalidPageId : kept.front();
      free_count_ = kept.size();
      return first;
    }
  }
  return GrowRun(n);
}

std::vector<PageId> Pager::WriteBlob(std::span<const uint8_t> bytes) {
  const size_t n =
      std::max<size_t>(1, (bytes.size() + page_size_ - 1) / page_size_);
  const PageId first = AllocateRun(n);
  std::vector<PageId> ids(n);
  size_t offset = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t chunk = std::min(page_size_, bytes.size() - offset);
    ids[i] = static_cast<PageId>(first + i);
    Write(ids[i], bytes.subspan(offset, chunk));
    offset += chunk;
  }
  return ids;
}

std::vector<uint8_t> Pager::ReadBlob(std::span<const PageId> ids,
                                     size_t size) const {
  std::vector<uint8_t> bytes;
  bytes.reserve(size);
  PageBuffer buf;
  for (PageId id : ids) {
    Read(id, &buf);
    const size_t want = std::min(page_size_, size - bytes.size());
    bytes.insert(bytes.end(), buf.begin(),
                 buf.begin() + static_cast<ptrdiff_t>(want));
    if (bytes.size() == size) break;
  }
  BREP_CHECK(bytes.size() == size);
  return bytes;
}

void MemPager::DoGrow(size_t new_num_pages) {
  std::lock_guard<std::mutex> lock(mu_);
  while (pages_.size() < new_num_pages) pages_.emplace_back(nullptr);
}

void MemPager::DoWrite(PageId id, std::span<const uint8_t> data) {
  std::unique_ptr<PageBuffer>* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot = &pages_[id];
  }
  // Mutating the page outside the lock is safe: DoWrite is writer-side and
  // the save path drains reader pins before flushing over base pages.
  if (*slot == nullptr) *slot = std::make_unique<PageBuffer>(page_size(), 0);
  PageBuffer& page = **slot;
  if (!data.empty()) std::memcpy(page.data(), data.data(), data.size());
  if (data.size() < page_size()) {
    std::memset(page.data() + data.size(), 0, page_size() - data.size());
  }
}

void MemPager::DoRead(PageId id, uint8_t* out) const {
  const PageBuffer* page = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    page = pages_[id].get();
  }
  if (page == nullptr) {  // never flushed: a grown page reads as zeroes
    std::memset(out, 0, page_size());
    return;
  }
  std::memcpy(out, page->data(), page_size());
}

PagePin MemPager::DoPin(PageId id) const {
  auto image = std::make_shared<PageImage>(page_size());
  DoRead(id, image->data());
  return image;
}

}  // namespace brep
