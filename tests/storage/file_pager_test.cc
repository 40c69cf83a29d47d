#include "storage/file_pager.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/serial.h"
#include "storage/snapshot.h"

namespace brep {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "brep_file_pager_" + name;
}

/// Page `id`'s bytes in the tests that check where a page's bytes come
/// from: a different pattern on every page.
std::vector<uint8_t> PagePattern(size_t size, PageId id) {
  std::vector<uint8_t> bytes(size);
  for (size_t j = 0; j < size; ++j) {
    bytes[j] = static_cast<uint8_t>(id * 31 + j * 7 + (id >> 8));
  }
  return bytes;
}

bool HoldsPattern(const PageImage& page, PageId id) {
  const std::vector<uint8_t> want = PagePattern(page.size(), id);
  return std::equal(want.begin(), want.end(), page.data());
}

/// A fresh file of `pages` pages of PagePattern, flushed: every page is a
/// base page, read from the file.
std::unique_ptr<FilePager> PatternedFile(const std::string& path,
                                         size_t page_size, PageId pages) {
  std::string error;
  auto pager = FilePager::Create(path, page_size, &error);
  EXPECT_NE(pager, nullptr) << error;
  if (pager == nullptr) return nullptr;
  for (PageId i = 0; i < pages; ++i) {
    const PageId id = pager->Allocate();
    pager->Write(id, PagePattern(page_size, id));
  }
  pager->FlushToBase();
  return pager;
}

/// Write a bare superblock with a valid checksum and the given geometry.
void WriteSuperblock(const std::string& path, uint64_t page_size,
                     uint64_t num_pages) {
  ByteWriter w;
  w.Value<uint64_t>(0x3158444950455242ull);  // "BREPIDX1"
  w.Value<uint32_t>(FilePager::kFormatVersion);
  w.Value<uint64_t>(page_size);
  w.Value<uint64_t>(num_pages);
  w.Value<uint32_t>(kInvalidPageId);  // no catalog
  w.Value<uint32_t>(0);
  w.Value<uint64_t>(0);
  w.Value<uint32_t>(kInvalidPageId);  // empty free-list
  w.Value<uint64_t>(0);
  w.Value<uint64_t>(0);  // durable_lsn (v3)
  w.Value<uint64_t>(Fnv1a64(w.bytes()));
  std::vector<uint8_t> block = w.Take();
  block.resize(4096, 0);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(block.data(), 1, block.size(), f), block.size());
  std::fclose(f);
}

/// Flip one byte at `offset` in the file.
void CorruptByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
}

TEST(FilePagerTest, WriteReopenReadRoundTrip) {
  const std::string path = TempPath("roundtrip.idx");
  std::vector<uint8_t> page0(128), page1(37);
  Rng rng(3);
  for (auto& b : page0) b = uint8_t(rng.NextU64());
  for (auto& b : page1) b = uint8_t(rng.NextU64());

  {
    std::string error;
    auto pager = FilePager::Create(path, 128, &error);
    ASSERT_NE(pager, nullptr) << error;
    EXPECT_EQ(pager->Allocate(), 0u);
    EXPECT_EQ(pager->Allocate(), 1u);
    pager->Write(0, page0);
    pager->Write(1, page1);  // short write: rest of the page zero-filled
    pager->Sync();
  }

  std::string error;
  auto pager = FilePager::Open(path, &error);
  ASSERT_NE(pager, nullptr) << error;
  EXPECT_EQ(pager->page_size(), 128u);
  EXPECT_EQ(pager->num_pages(), 2u);
  PageBuffer buf;
  pager->Read(0, &buf);
  EXPECT_EQ(buf, page0);
  pager->Read(1, &buf);
  ASSERT_EQ(buf.size(), 128u);
  EXPECT_TRUE(std::equal(page1.begin(), page1.end(), buf.begin()));
  for (size_t i = page1.size(); i < buf.size(); ++i) EXPECT_EQ(buf[i], 0);
  std::remove(path.c_str());
}

TEST(FilePagerTest, BlobAndCatalogSurviveReopen) {
  const std::string path = TempPath("catalog.idx");
  std::vector<uint8_t> blob(64 * 3 + 17);
  Rng rng(9);
  for (auto& b : blob) b = uint8_t(rng.NextU64());

  CatalogRef committed;
  std::vector<PageId> ids;
  {
    auto pager = FilePager::Create(path, 64);
    ASSERT_NE(pager, nullptr);
    ids = pager->WriteBlob(blob);
    committed.first_page = ids.front();
    committed.num_pages = static_cast<uint32_t>(ids.size());
    committed.num_bytes = blob.size();
    pager->CommitCatalog(committed);
  }

  std::string error;
  auto pager = FilePager::Open(path, &error);
  ASSERT_NE(pager, nullptr) << error;
  ASSERT_TRUE(pager->catalog().valid());
  EXPECT_EQ(pager->catalog().first_page, committed.first_page);
  EXPECT_EQ(pager->catalog().num_pages, committed.num_pages);
  EXPECT_EQ(pager->catalog().num_bytes, committed.num_bytes);
  EXPECT_EQ(pager->ReadBlob(ids, blob.size()), blob);
  std::remove(path.c_str());
}

TEST(FilePagerTest, FreeListSurvivesReopen) {
  const std::string path = TempPath("freelist.idx");
  PageId freed_a = 0, freed_b = 0;
  {
    auto pager = FilePager::Create(path, 128);
    ASSERT_NE(pager, nullptr);
    for (int i = 0; i < 4; ++i) pager->Allocate();
    freed_a = 1;
    freed_b = 3;
    pager->Free(freed_a);
    pager->Free(freed_b);
    pager->Sync();
  }
  std::string error;
  auto pager = FilePager::Open(path, &error);
  ASSERT_NE(pager, nullptr) << error;
  EXPECT_EQ(pager->num_free_pages(), 2u);
  EXPECT_EQ(pager->FreePageIds(), (std::vector<PageId>{freed_b, freed_a}));
  // Allocation in the reopened file pops the restored chain.
  EXPECT_EQ(pager->Allocate(), freed_b);
  EXPECT_EQ(pager->Allocate(), freed_a);
  EXPECT_EQ(pager->num_pages(), 4u);
  std::remove(path.c_str());
}

TEST(FilePagerTest, CorruptedFreePageRecordFailsCleanly) {
  const std::string path = TempPath("freerec.idx");
  {
    auto pager = FilePager::Create(path, 128);
    ASSERT_NE(pager, nullptr);
    for (int i = 0; i < 3; ++i) pager->Allocate();
    pager->Free(1);
    pager->Sync();
  }
  CorruptByte(path, 4096 + 1 * 128 + 3);  // inside page 1's free record
  std::string error;
  EXPECT_EQ(FilePager::Open(path, &error), nullptr);
  EXPECT_NE(error.find("free-list page record"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FilePagerTest, OpenMissingFileFailsCleanly) {
  std::string error;
  auto pager = FilePager::Open(TempPath("does_not_exist.idx"), &error);
  EXPECT_EQ(pager, nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(FilePagerTest, OpenRejectsForeignMagic) {
  const std::string path = TempPath("magic.idx");
  { ASSERT_NE(FilePager::Create(path, 64), nullptr); }
  CorruptByte(path, 0);  // first magic byte
  std::string error;
  EXPECT_EQ(FilePager::Open(path, &error), nullptr);
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FilePagerTest, OpenRejectsWrongVersion) {
  const std::string path = TempPath("version.idx");
  { ASSERT_NE(FilePager::Create(path, 64), nullptr); }
  // Version is the u32 right after the u64 magic. Rewrite it and fix up
  // nothing else: the checksum check runs after the version check, so the
  // version error must surface first.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
    const uint32_t bogus = 999;
    ASSERT_EQ(std::fwrite(&bogus, sizeof(bogus), 1, f), 1u);
    std::fclose(f);
  }
  std::string error;
  EXPECT_EQ(FilePager::Open(path, &error), nullptr);
  EXPECT_NE(error.find("unsupported index format version"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(FilePagerTest, EveryCommitPointReachesTheDisk) {
  // The durability contract: Create fsyncs the initial superblock,
  // CommitCatalog runs the full barrier pair (fdatasync for page data,
  // then an fsync for the superblock rewrite), and Sync() is the same
  // pair. The counters are the proof that these are real syscalls, not
  // page-cache writes that a crash would drop.
  const std::string path = TempPath("synccounts.idx");
  {
    auto pager = FilePager::Create(path, 128);
    ASSERT_NE(pager, nullptr);
    EXPECT_EQ(pager->sync_counts().fsyncs, 1u) << "Create must fsync";

    const PageId page = pager->Allocate();
    std::vector<uint8_t> bytes(128, 0xAB);
    pager->Write(page, bytes);
    CatalogRef ref;
    ref.first_page = page;
    ref.num_pages = 1;
    ref.num_bytes = bytes.size();
    ref.durable_lsn = 42;
    pager->CommitCatalog(ref);
    const auto after_commit = pager->sync_counts();
    EXPECT_EQ(after_commit.fsyncs, 2u);
    EXPECT_EQ(after_commit.fdatasyncs, 1u)
        << "the data barrier must precede the superblock commit";

    pager->Sync();
    EXPECT_EQ(pager->sync_counts().fsyncs, 3u);
    EXPECT_EQ(pager->sync_counts().fdatasyncs, 2u);
  }
  // The committed watermark round-trips.
  std::string error;
  auto reopened = FilePager::Open(path, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->catalog().durable_lsn, 42u);
  std::remove(path.c_str());
}

TEST(FilePagerTest, OpenRejectsChecksumCorruption) {
  const std::string path = TempPath("checksum.idx");
  { ASSERT_NE(FilePager::Create(path, 64), nullptr); }
  CorruptByte(path, 16);  // inside the page-size field
  std::string error;
  EXPECT_EQ(FilePager::Open(path, &error), nullptr);
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FilePagerTest, OpenRejectsTruncatedFile) {
  const std::string path = TempPath("truncated.idx");
  {
    auto pager = FilePager::Create(path, 64);
    ASSERT_NE(pager, nullptr);
    pager->WriteBlob(std::vector<uint8_t>(64 * 8, 0xAB));
    pager->Sync();
  }
  ASSERT_EQ(truncate(path.c_str(), 4096 + 64 * 3), 0);  // cut data pages
  std::string error;
  EXPECT_EQ(FilePager::Open(path, &error), nullptr);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FilePagerTest, AbsurdPageGeometryWithValidChecksumFailsCleanly) {
  // FNV-1a is not cryptographic, so Open must reject a superblock whose
  // fields are insane even when its checksum verifies: a 2^60 page size
  // (or a page count that overflows the size arithmetic) must produce a
  // clean error, not a bad_alloc or an overflow-masked crash.
  const std::string path = TempPath("absurd.idx");
  std::string error;

  WriteSuperblock(path, uint64_t{1} << 60, 1024);
  EXPECT_EQ(FilePager::Open(path, &error), nullptr);
  EXPECT_NE(error.find("invalid page size"), std::string::npos) << error;

  WriteSuperblock(path, 64, UINT64_MAX / 64);  // num_pages * 64 wraps
  EXPECT_EQ(FilePager::Open(path, &error), nullptr);
  EXPECT_NE(error.find("invalid page count"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FilePagerTest, SuperblockShorterThanFullFailsCleanly) {
  const std::string path = TempPath("stub.idx");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("BREPIDX1", f);  // magic alone, no rest of the superblock
    std::fclose(f);
  }
  std::string error;
  EXPECT_EQ(FilePager::Open(path, &error), nullptr);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FilePagerTest, PageSizeKeepsMappedDoublesAligned) {
  // Pages are read in place from the mapping, and the point store hands
  // out the doubles of a page where they lie: a page size that is not a
  // multiple of 8 would misalign every other page's doubles.
  std::string error;
  EXPECT_EQ(FilePager::Create(TempPath("odd_create.idx"), 100, &error),
            nullptr);
  EXPECT_NE(error.find("multiple of 8"), std::string::npos) << error;

  const std::string path = TempPath("odd_open.idx");
  WriteSuperblock(path, 100, 0);
  EXPECT_EQ(FilePager::Open(path, &error), nullptr);
  EXPECT_NE(error.find("invalid page size"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FilePagerTest, BasePinsOfOnePageShareTheMappedBytes) {
  const std::string path = TempPath("shared_pin.idx");
  auto pager = PatternedFile(path, 128, 4);
  ASSERT_NE(pager, nullptr);
  pager->ResetStats();
  const PagePin a = pager->PinPage(2);
  EXPECT_EQ(pager->stats().reads, 1u);
  const PagePin b = pager->PinPage(2);
  EXPECT_EQ(pager->stats().reads, 2u);  // each pin counts its read
  EXPECT_EQ(a->data(), b->data());      // and neither copies the page
  EXPECT_TRUE(HoldsPattern(*a, 2));
  PageBuffer copy;
  pager->Read(2, &copy);
  EXPECT_EQ(copy, PagePattern(128, 2));
  pager.reset();
  std::remove(path.c_str());
}

TEST(FilePagerTest, PinKeepsItsBytesAcrossRemaps) {
  // The file grows to 64 pages at the first Allocate and doubles after
  // that, mapping the grown file anew each time: growing to 1,000 pages
  // remaps it at 65, 129, 257 and 513 pages. The pin taken before holds
  // the first mapping, which must stay mapped and unchanged.
  const std::string path = TempPath("remap.idx");
  auto pager = PatternedFile(path, 64, 1);
  ASSERT_NE(pager, nullptr);
  const PagePin pin = pager->PinPage(0);
  const uint8_t* bytes = pin->data();
  for (PageId i = 1; i < 1000; ++i) {
    const PageId id = pager->Allocate();
    ASSERT_EQ(id, i);
    pager->Write(id, PagePattern(64, id));
  }
  pager->FlushToBase();  // the new pages now live only in the file
  EXPECT_EQ(pin->data(), bytes);
  EXPECT_TRUE(HoldsPattern(*pin, 0));
  PageBuffer copy;
  for (PageId id = 0; id < 1000; ++id) {
    EXPECT_TRUE(HoldsPattern(*pager->PinPage(id), id)) << "page " << id;
    pager->Read(id, &copy);
    EXPECT_EQ(copy, PagePattern(64, id)) << "page " << id;
  }
  pager.reset();
  std::remove(path.c_str());
}

TEST(FilePagerTest, PinOutlivesItsPager) {
  const std::string path = TempPath("orphan_pin.idx");
  PagePin pin;
  {
    auto pager = PatternedFile(path, 256, 3);
    ASSERT_NE(pager, nullptr);
    pin = pager->PinPage(1);
  }  // the pager closes its file and drops its own hold on the mapping
  EXPECT_TRUE(HoldsPattern(*pin, 1));
  pin.reset();  // the last owner: unmaps
  std::remove(path.c_str());
}

TEST(FilePagerTest, SnapshotReadersPinBasePagesWhileTheWriterGrowsTheFile) {
  // Readers pin and copy base pages through a snapshot while the writer
  // allocates pages, remapping the file each time it outgrows its
  // capacity: no reader may see a page's bytes change or vanish.
  const std::string path = TempPath("grow_race.idx");
  constexpr PageId kBase = 40;
  constexpr size_t kPage = 256;
  auto pager = PatternedFile(path, kPage, kBase);
  ASSERT_NE(pager, nullptr);
  const PageSnapshot snap(*pager);
  std::atomic<bool> done{false};
  std::atomic<bool> ok{true};
  std::atomic<int> passes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      PageBuffer copy(kPage);
      std::vector<std::pair<PageId, PagePin>> held;  // kept across remaps
      do {
        for (PageId id = 0; id < kBase; ++id) {
          PagePin pin = snap.PinPage(id);
          if (!HoldsPattern(*pin, id)) ok.store(false);
          snap.FetchPage(id, copy.data());
          if (copy != PagePattern(kPage, id)) ok.store(false);
          if (held.size() < 64) held.emplace_back(id, std::move(pin));
        }
        passes.fetch_add(1);
      } while (!done.load());
      for (const auto& [id, pin] : held) {
        if (!HoldsPattern(*pin, id)) ok.store(false);
      }
    });
  }
  while (passes.load() < 3) std::this_thread::yield();  // readers are in
  for (int i = 0; i < 2000; ++i) {  // remaps at 65, 129, ..., 1025 pages
    const PageId id = pager->Allocate();
    pager->Write(id, PagePattern(kPage, id));
  }
  done.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_TRUE(ok.load());
  pager.reset();
  std::remove(path.c_str());
}

TEST(FilePagerTest, ReadLatencyCountsEveryBackendRead) {
  // brep_io_read_latency_ms exports this histogram. A mapped pin and a
  // copy are one backend read each, so its count follows the pager's
  // base-page reads on a reopened file.
  const std::string path = TempPath("read_latency.idx");
  {
    auto pager = PatternedFile(path, 128, 6);
    ASSERT_NE(pager, nullptr);
    pager->Sync();
  }
  std::string error;
  auto pager = FilePager::Open(path, &error);
  ASSERT_NE(pager, nullptr) << error;
  const uint64_t samples = pager->read_latency().count;
  const IoStats io = pager->stats();
  constexpr PageId kPins = 5;
  constexpr PageId kCopies = 3;
  std::vector<PagePin> pins;
  for (PageId id = 0; id < kPins; ++id) pins.push_back(pager->PinPage(id));
  PageBuffer copy(128);
  for (PageId id = 0; id < kCopies; ++id) pager->FetchPage(id, copy.data());
  EXPECT_EQ(pager->read_latency().count - samples, kPins + kCopies);
  EXPECT_EQ((pager->stats() - io).reads, kPins + kCopies);
  pager.reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace brep
