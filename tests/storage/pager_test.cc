#include "storage/pager.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/snapshot.h"

namespace brep {
namespace {

TEST(PagerTest, AllocateGrowsAndZeroFills) {
  MemPager pager(256);
  const PageId a = pager.Allocate();
  const PageId b = pager.Allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(pager.num_pages(), 2u);
  PageBuffer buf;
  pager.Read(a, &buf);
  ASSERT_EQ(buf.size(), 256u);
  for (uint8_t byte : buf) EXPECT_EQ(byte, 0);
}

TEST(PagerTest, WriteReadRoundTrip) {
  MemPager pager(128);
  const PageId id = pager.Allocate();
  std::vector<uint8_t> data(128);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i);
  pager.Write(id, data);
  PageBuffer buf;
  pager.Read(id, &buf);
  EXPECT_EQ(buf, data);
}

TEST(PagerTest, ShortWriteZeroFillsRemainder) {
  MemPager pager(128);
  const PageId id = pager.Allocate();
  pager.Write(id, std::vector<uint8_t>(128, 0xFF));
  pager.Write(id, std::vector<uint8_t>{1, 2, 3});
  PageBuffer buf;
  pager.Read(id, &buf);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 0);
  EXPECT_EQ(buf[127], 0);
}

TEST(PagerTest, StatsCountReadsAndWrites) {
  MemPager pager(64);
  const PageId id = pager.Allocate();
  EXPECT_EQ(pager.stats().reads, 0u);
  EXPECT_EQ(pager.stats().writes, 0u);
  pager.Write(id, std::vector<uint8_t>{1});
  PageBuffer buf;
  pager.Read(id, &buf);
  pager.Read(id, &buf);
  EXPECT_EQ(pager.stats().writes, 1u);
  EXPECT_EQ(pager.stats().reads, 2u);
  pager.ResetStats();
  EXPECT_EQ(pager.stats().reads, 0u);
}

TEST(PagerTest, IoStatsDelta) {
  MemPager pager(64);
  const PageId id = pager.Allocate();
  PageBuffer buf;
  pager.Read(id, &buf);
  const IoStats before = pager.stats();
  pager.Read(id, &buf);
  pager.Read(id, &buf);
  const IoStats delta = pager.stats() - before;
  EXPECT_EQ(delta.reads, 2u);
}

TEST(PagerTest, BlobRoundTripMultiplePages) {
  MemPager pager(100);
  Rng rng(1);
  std::vector<uint8_t> blob(100 * 3 + 37);
  for (auto& b : blob) b = uint8_t(rng.NextU64());
  const auto ids = pager.WriteBlob(blob);
  EXPECT_EQ(ids.size(), 4u);
  const auto back = pager.ReadBlob(ids, blob.size());
  EXPECT_EQ(back, blob);
}

TEST(PagerTest, BlobExactPageMultiple) {
  MemPager pager(64);
  std::vector<uint8_t> blob(128, 7);
  const auto ids = pager.WriteBlob(blob);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(pager.ReadBlob(ids, 128), blob);
}

TEST(PagerTest, FreedPagesAreReusedLifo) {
  MemPager pager(64);
  const PageId a = pager.Allocate();
  const PageId b = pager.Allocate();
  const PageId c = pager.Allocate();
  EXPECT_EQ(pager.num_free_pages(), 0u);
  pager.Free(a);
  pager.Free(c);
  EXPECT_EQ(pager.num_free_pages(), 2u);
  EXPECT_EQ(pager.free_list_head(), c);
  EXPECT_EQ(pager.FreePageIds(), (std::vector<PageId>{c, a}));
  // Reuse pops the most recently freed page first and zeroes it.
  EXPECT_EQ(pager.Allocate(), c);
  PageBuffer buf;
  pager.Read(c, &buf);
  for (uint8_t byte : buf) EXPECT_EQ(byte, 0);
  EXPECT_EQ(pager.Allocate(), a);
  EXPECT_EQ(pager.num_free_pages(), 0u);
  // The list is drained: the next allocation grows the disk again.
  EXPECT_EQ(pager.Allocate(), 3u);
  EXPECT_EQ(pager.num_pages(), 4u);
  (void)b;
}

TEST(PagerTest, WriteBlobCarvesContiguousRunsFromTheFreeList) {
  MemPager pager(64);
  std::vector<PageId> run = pager.WriteBlob(std::vector<uint8_t>(64 * 3, 1));
  const PageId extra = pager.Allocate();
  const size_t total = pager.num_pages();
  // Free the run (any order) and one more page that is not adjacent.
  pager.Free(run[1]);
  pager.Free(extra);
  pager.Free(run[0]);
  pager.Free(run[2]);
  // A 3-page blob must reuse the contiguous run, not grow the file.
  std::vector<uint8_t> blob(64 * 3);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = uint8_t(i * 7);
  const std::vector<PageId> again = pager.WriteBlob(blob);
  EXPECT_EQ(again, run);
  EXPECT_EQ(pager.num_pages(), total);
  EXPECT_EQ(pager.ReadBlob(again, blob.size()), blob);
  // The non-adjacent page stayed on the list.
  EXPECT_EQ(pager.FreePageIds(), (std::vector<PageId>{extra}));
}

TEST(PagerTest, WriteBlobGrowsWhenNoContiguousRunExists) {
  MemPager pager(64);
  const PageId a = pager.Allocate();
  (void)pager.Allocate();  // keeps a and c non-adjacent
  const PageId c = pager.Allocate();
  pager.Free(a);
  pager.Free(c);
  const size_t before = pager.num_pages();
  const auto ids = pager.WriteBlob(std::vector<uint8_t>(64 * 2, 9));
  EXPECT_EQ(ids.front(), static_cast<PageId>(before));  // fresh run
  EXPECT_EQ(pager.num_free_pages(), 2u);  // scattered pages untouched
}

/// `size` bytes whose byte i is `seed + i` (mod 256).
std::vector<uint8_t> Pattern(size_t size, uint8_t seed) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) bytes[i] = uint8_t(seed + i);
  return bytes;
}

PageBuffer ReadPage(const Pager& pager, PageId id) {
  PageBuffer buf;
  pager.Read(id, &buf);
  return buf;
}

TEST(PagerTest, PatchChangesOnlyItsRangeAndCountsOneReadAndOneWrite) {
  MemPager pager(128);
  const PageId id = pager.Allocate();
  const std::vector<uint8_t> before = Pattern(128, 5);
  for (const bool flushed : {false, true}) {
    for (const size_t offset : {size_t{0}, size_t{40}, size_t{125}}) {
      SCOPED_TRACE(std::string(flushed ? "base" : "shadow") + " page, offset " +
                   std::to_string(offset));
      pager.Write(id, before);
      if (flushed) pager.FlushToBase();
      const uint64_t gen = pager.PageGen(id);
      const IoStats io = pager.stats();
      const std::vector<uint8_t> patch{0xA1, 0xA2, 0xA3};
      pager.Patch(id, offset, patch);
      const IoStats delta = pager.stats() - io;
      EXPECT_EQ(delta.reads, 1u);
      EXPECT_EQ(delta.writes, 1u);
      EXPECT_GT(pager.PageGen(id), gen);
      std::vector<uint8_t> want = before;
      std::copy(patch.begin(), patch.end(),
                want.begin() + static_cast<ptrdiff_t>(offset));
      EXPECT_EQ(ReadPage(pager, id), want);
    }
  }
}

TEST(PagerTest, PatchKeepsTheBytesOfAnEarlierSnapshot) {
  // No pin is held across the first patch: the shadow image is referenced
  // once, so only its pre-capture generation keeps Patch off it.
  MemPager pager(128);
  const PageId id = pager.Allocate();
  const std::vector<uint8_t> before = Pattern(128, 9);
  pager.Write(id, before);
  const PageSnapshot snap(pager);
  pager.Patch(id, 10, std::vector<uint8_t>(20, 0xFF));
  const PagePin snap_pin = snap.PinPage(id);
  pager.Patch(id, 50, std::vector<uint8_t>(20, 0xEE));  // private: in place

  PageBuffer buf(128);
  snap.FetchPage(id, buf.data());
  EXPECT_EQ(buf, before);
  EXPECT_TRUE(std::equal(before.begin(), before.end(), snap_pin->data()));
  std::vector<uint8_t> want = before;
  std::fill(want.begin() + 10, want.begin() + 30, 0xFF);
  std::fill(want.begin() + 50, want.begin() + 70, 0xEE);
  EXPECT_EQ(ReadPage(pager, id), want);
}

TEST(PagerTest, PatchKeepsTheBytesOfAnEarlierPin) {
  // The page is written after the last snapshot capture (there is none),
  // so only the pin stops Patch from reusing the image in place.
  MemPager pager(128);
  const PageId id = pager.Allocate();
  const std::vector<uint8_t> before = Pattern(128, 3);
  pager.Write(id, before);
  const PagePin pin = pager.PinPage(id);
  EXPECT_EQ(pin.get(), pager.PinPage(id).get());  // the shadow image itself
  pager.Patch(id, 0, std::vector<uint8_t>(128, 0x77));
  EXPECT_TRUE(std::equal(before.begin(), before.end(), pin->data()));
  EXPECT_NE(pager.PinPage(id).get(), pin.get());
  EXPECT_EQ(ReadPage(pager, id), std::vector<uint8_t>(128, 0x77));
}

TEST(PagerTest, PinPageCountsOneReadAndHandsOutShadowImages) {
  MemPager pager(64);
  const PageId id = pager.Allocate();
  pager.Write(id, Pattern(64, 1));
  IoStats io = pager.stats();
  const PagePin shadow = pager.PinPage(id);
  EXPECT_EQ((pager.stats() - io).reads, 1u);
  EXPECT_EQ(shadow.get(), pager.PinPage(id).get());

  pager.FlushToBase();  // now a base page: every pin reads a fresh image
  io = pager.stats();
  const PagePin base = pager.PinPage(id);
  EXPECT_EQ((pager.stats() - io).reads, 1u);
  EXPECT_NE(base.get(), pager.PinPage(id).get());
  const std::vector<uint8_t> want = Pattern(64, 1);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), base->data()));
  EXPECT_TRUE(std::equal(want.begin(), want.end(), shadow->data()));
}

TEST(PagerDeathTest, RejectsPatchPastThePageEnd) {
  MemPager pager(64);
  const PageId id = pager.Allocate();
  EXPECT_DEATH(pager.Patch(id, 60, std::vector<uint8_t>(5, 1)), "offset");
}

TEST(PagerDeathTest, RejectsTinyPageSize) {
  EXPECT_DEATH(MemPager(8), "page_size");
}

TEST(PagerDeathTest, RejectsOutOfRangePage) {
  MemPager pager(64);
  PageBuffer buf;
  EXPECT_DEATH(pager.Read(5, &buf), "id <");
}

}  // namespace
}  // namespace brep
