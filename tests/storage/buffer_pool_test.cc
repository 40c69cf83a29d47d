#include "storage/buffer_pool.h"

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/file_pager.h"

namespace brep {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : pager_(64) {
    for (int i = 0; i < 10; ++i) {
      const PageId id = pager_.Allocate();
      pager_.Write(id, std::vector<uint8_t>{static_cast<uint8_t>(i)});
    }
    pager_.ResetStats();
  }
  MemPager pager_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(&pager_, 4);
  const PagePin a = pool.ReadPinned(3);
  EXPECT_EQ((*a)[0], 3);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
  pool.ReadPinned(3);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pager_.stats().reads, 1u);  // hit did not touch the pager
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(&pager_, 2);
  pool.ReadPinned(0);
  pool.ReadPinned(1);
  pool.ReadPinned(0);  // refresh page 0; page 1 is now LRU
  pool.ReadPinned(2);  // evicts page 1
  pool.ResetStats();
  pool.ReadPinned(0);  // still cached
  pool.ReadPinned(2);  // still cached
  EXPECT_EQ(pool.hits(), 2u);
  pool.ReadPinned(1);  // was evicted
  EXPECT_EQ(pool.misses(), 1u);
}

TEST_F(BufferPoolTest, CapacityNeverExceeded) {
  BufferPool pool(&pager_, 3);
  for (PageId id = 0; id < 10; ++id) pool.ReadPinned(id);
  EXPECT_LE(pool.size(), 3u);
}

TEST_F(BufferPoolTest, RewrittenPageMissesAndReloads) {
  // The pool's only invalidation: a write advances the page's generation,
  // so the resident copy stops matching and the next read refreshes it in
  // place. Every MVCC write relies on this.
  BufferPool pool(&pager_, 4);
  const PagePin before = pool.ReadPinned(5);
  pool.ReadPinned(5);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
  const size_t resident = pool.size();

  const uint64_t gen = pager_.PageGen(5);
  pager_.Write(5, std::vector<uint8_t>{42});
  ASSERT_GT(pager_.PageGen(5), gen);

  const PagePin after = pool.ReadPinned(5);
  EXPECT_EQ((*after)[0], 42);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.evictions(), 0u);  // a version refresh, not an eviction
  EXPECT_EQ(pool.size(), resident);
  EXPECT_EQ((*before)[0], 5);  // the earlier pin keeps the old bytes
}

TEST_F(BufferPoolTest, PinnedPageSurvivesEviction) {
  // Regression: a reference into an unpinned cached page dies when the
  // page is evicted, which a concurrent reader (or any caller holding the
  // reference across another read) would hit. ReadPinned keeps the bytes
  // alive past eviction.
  BufferPool pool(&pager_, 1);
  const PagePin pin = pool.ReadPinned(3);
  EXPECT_EQ((*pin)[0], 3);
  pool.ReadPinned(7);  // capacity 1: evicts page 3
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ((*pin)[0], 3);  // the pinned bytes are still intact
  // Re-reading the evicted page is a fresh miss.
  pool.ResetStats();
  pool.ReadPinned(3);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST_F(BufferPoolTest, PinnedHitSharesTheCachedCopy) {
  BufferPool pool(&pager_, 4);
  const PagePin a = pool.ReadPinned(2);
  const PagePin b = pool.ReadPinned(2);
  EXPECT_EQ(a.get(), b.get());  // one resident copy, shared ownership
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pager_.stats().reads, 1u);
}

TEST_F(BufferPoolTest, ConcurrentPinnedReadsAreConsistent) {
  // Hammer a 2-page pool from several threads; every pin must observe the
  // correct page contents even while other threads force evictions.
  BufferPool pool(&pager_, 2);
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 3000;
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int i = 0; i < kItersPerThread && ok.load(); ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const PageId id = static_cast<PageId>((state >> 33) % 10);
        const PagePin pin = pool.ReadPinned(id);
        if ((*pin)[0] != id) ok.store(false);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(pool.hits() + pool.misses(),
            uint64_t(kThreads) * kItersPerThread);
  EXPECT_LE(pool.size(), 2u);
}

TEST_F(BufferPoolTest, ConcurrentMissesFillEveryByteOfTheirPages) {
  // A miss reads into a page image that is not zero-filled first, so every
  // byte a pin shows must come from the read. Ten full pages, each with its
  // own byte pattern, cycle through a 2-page pool from four threads: almost
  // every read misses, evicting pages other threads still hold pinned.
  constexpr size_t kPage = 4096;
  constexpr PageId kPages = 10;
  const auto pattern = [](PageId id, size_t j) {
    return static_cast<uint8_t>(id * 37 + j * 11 + (j >> 8));
  };
  MemPager pager(kPage);
  std::vector<uint8_t> bytes(kPage);
  for (PageId i = 0; i < kPages; ++i) {
    const PageId id = pager.Allocate();
    for (size_t j = 0; j < kPage; ++j) bytes[j] = pattern(id, j);
    pager.Write(id, bytes);
  }
  pager.FlushToBase();  // misses read the backend

  BufferPool pool(&pager, 2);
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 500;
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread && ok.load(); ++i) {
        const PageId id = static_cast<PageId>((i + 3 * t) % kPages);
        const PagePin pin = pool.ReadPinned(id);
        if (pin->size() != kPage) ok.store(false);
        for (size_t j = 0; j < kPage; ++j) {
          if ((*pin)[j] != pattern(id, j)) ok.store(false);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(pool.hits() + pool.misses(), uint64_t(kThreads) * kItersPerThread);
  EXPECT_GT(pool.misses(), uint64_t(kItersPerThread));
  EXPECT_LE(pool.size(), 2u);
}

TEST_F(BufferPoolTest, MissOnAWrittenPageCachesThePagersOwnImage) {
  // The fixture's pages were written and never flushed, so the pager holds
  // each as a shadow image: a miss pins that image instead of copying it,
  // and later writes leave the pinned bytes alone.
  BufferPool pool(&pager_, 4);
  const PagePin pin = pool.ReadPinned(6);
  EXPECT_EQ(pager_.stats().reads, 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pin.get(), pager_.PinPage(6).get());
  EXPECT_EQ((*pin)[0], 6);

  pager_.Patch(6, 0, std::vector<uint8_t>{60});
  EXPECT_EQ((*pin)[0], 6);
  const PagePin patched = pool.ReadPinned(6);
  EXPECT_EQ((*patched)[0], 60);
  EXPECT_EQ(patched.get(), pager_.PinPage(6).get());

  pager_.Write(6, std::vector<uint8_t>{61});
  EXPECT_EQ((*pin)[0], 6);
  EXPECT_EQ((*patched)[0], 60);
  EXPECT_EQ((*pool.ReadPinned(6))[0], 61);
  EXPECT_EQ(pool.misses(), 3u);
}

TEST_F(BufferPoolTest, FilePagerBaseMissPinsTheMappedFile) {
  const std::string path =
      ::testing::TempDir() + "brep_buffer_pool_base_miss.idx";
  std::string error;
  auto pager = FilePager::Create(path, 64, &error);
  ASSERT_NE(pager, nullptr) << error;
  for (int i = 0; i < 3; ++i) {
    const PageId id = pager->Allocate();
    pager->Write(id, std::vector<uint8_t>{static_cast<uint8_t>(10 + i)});
  }
  pager->FlushToBase();  // every page now lives only in the file
  pager->ResetStats();

  BufferPool pool(pager.get(), 2);
  const PagePin pin = pool.ReadPinned(1);
  EXPECT_EQ(pager->stats().reads, 1u);
  EXPECT_EQ((*pin)[0], 11);
  EXPECT_EQ(pin->data(), pager->PinPage(1)->data());  // the mapping's bytes
  pager->Patch(1, 0, std::vector<uint8_t>{99});
  EXPECT_EQ((*pin)[0], 11);
  EXPECT_EQ((*pool.ReadPinned(1))[0], 99);
  pager.reset();
  std::remove(path.c_str());
}

TEST_F(BufferPoolTest, FilePagerRewrittenPageMissesAndReloads) {
  // RewrittenPageMissesAndReloads on a file, across a FlushToBase: the
  // pool's entry views the page in the file mapping, and the flush
  // rewrites those bytes. The entry keeps its older generation, so the
  // pool never serves it again; the next read refreshes it in place.
  const std::string path =
      ::testing::TempDir() + "brep_buffer_pool_rewritten.idx";
  std::string error;
  auto pager = FilePager::Create(path, 64, &error);
  ASSERT_NE(pager, nullptr) << error;
  for (int i = 0; i < 10; ++i) {
    const PageId id = pager->Allocate();
    pager->Write(id, std::vector<uint8_t>{static_cast<uint8_t>(i)});
  }
  pager->FlushToBase();
  pager->ResetStats();

  BufferPool pool(pager.get(), 4);
  PagePin before = pool.ReadPinned(5);
  pool.ReadPinned(5);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
  const size_t resident = pool.size();

  const uint64_t gen = pager->PageGen(5);
  pager->Write(5, std::vector<uint8_t>{42});
  ASSERT_GT(pager->PageGen(5), gen);
  EXPECT_EQ((*before)[0], 5);  // the write went to a shadow image
  // The save path retires every reader of the older generation before it
  // flushes; a pin held across the flush would see the new bytes.
  before.reset();
  pager->FlushToBase();

  const PagePin after = pool.ReadPinned(5);
  EXPECT_EQ((*after)[0], 42);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.evictions(), 0u);  // a version refresh, not an eviction
  EXPECT_EQ(pool.size(), resident);
  EXPECT_EQ(pager->stats().reads, 2u);
  EXPECT_EQ(after->data(), pager->PinPage(5)->data());  // the mapping again
  pager.reset();
  std::remove(path.c_str());
}

TEST_F(BufferPoolTest, SequentialScanLargerThanPoolAlwaysMisses) {
  BufferPool pool(&pager_, 2);
  for (int round = 0; round < 3; ++round) {
    for (PageId id = 0; id < 5; ++id) pool.ReadPinned(id);
  }
  // Cyclic scan of 5 pages through a 2-page pool: every access misses.
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 15u);
}

}  // namespace
}  // namespace brep
