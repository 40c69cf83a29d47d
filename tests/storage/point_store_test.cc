#include "storage/point_store.h"

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/synthetic.h"

namespace brep {
namespace {

Matrix TestData(size_t n, size_t d) {
  Rng rng(77);
  return MakeIidNormal(rng, n, d);
}

TEST(PointStoreTest, IdentityLayoutFetchesExactRows) {
  MemPager pager(256);  // 256 / (4 * 8) = 8 points per page
  const Matrix data = TestData(20, 4);
  const PointStore store(&pager, data, {});
  EXPECT_EQ(store.points_per_page(), 8u);
  EXPECT_EQ(store.num_data_pages(), 3u);  // ceil(20 / 8)

  std::vector<double> buf(4);
  for (uint32_t id = 0; id < 20; ++id) {
    store.Fetch(id, buf);
    for (size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(buf[j], data.At(id, j));
  }
}

TEST(PointStoreTest, CustomOrderChangesAddressesNotContent) {
  MemPager pager(256);
  const Matrix data = TestData(16, 4);
  std::vector<uint32_t> order(16);
  for (uint32_t i = 0; i < 16; ++i) order[i] = 15 - i;  // reversed
  const PointStore store(&pager, data, order);

  // Point 15 is laid out first -> page 0 slot 0.
  EXPECT_EQ(store.AddressOf(15).page, store.AddressOf(8).page);
  EXPECT_EQ(store.AddressOf(15).slot, 0);
  std::vector<double> buf(4);
  store.Fetch(3, buf);
  for (size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(buf[j], data.At(3, j));
}

TEST(PointStoreTest, FetchManyVisitsEachIdOnce) {
  MemPager pager(256);
  const Matrix data = TestData(30, 4);
  const PointStore store(&pager, data, {});
  const std::vector<uint32_t> ids{5, 17, 5, 2, 29, 17};
  std::set<uint32_t> seen;
  store.FetchMany(ids, [&](uint32_t id, std::span<const double> x) {
    EXPECT_TRUE(seen.insert(id).second) << "duplicate callback for " << id;
    for (size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(x[j], data.At(id, j));
  });
  EXPECT_EQ(seen, (std::set<uint32_t>{2, 5, 17, 29}));
}

TEST(PointStoreTest, FetchManyReadsEachPageOnce) {
  MemPager pager(256);  // 8 points per page
  const Matrix data = TestData(64, 4);
  const PointStore store(&pager, data, {});
  pager.ResetStats();
  // Ids spanning pages 0, 0, 1, 7.
  const std::vector<uint32_t> ids{0, 7, 8, 63};
  store.FetchMany(ids, [](uint32_t, std::span<const double>) {});
  EXPECT_EQ(pager.stats().reads, 3u);
  EXPECT_EQ(store.CountDistinctPages(ids), 3u);
}

TEST(PointStoreTest, KeptPagesAreNotReadAgain) {
  // A kNN query fetches its seeds keeping their pages, then its refine
  // candidates reusing them: a page both touch is read once.
  MemPager pager(256);  // 8 points per page
  const Matrix data = TestData(64, 4);
  const PointStore store(&pager, data, {});
  pager.ResetStats();
  PointStore::PageMemo memo;
  store.FetchMany(std::vector<uint32_t>{1, 9, 40},
                  [](uint32_t, std::span<const double>) {}, nullptr, &memo);
  EXPECT_EQ(pager.stats().reads, 3u);  // pages 0, 1, 5
  EXPECT_EQ(memo.ids, (std::vector<PageId>{store.AddressOf(1).page,
                                           store.AddressOf(9).page,
                                           store.AddressOf(40).page}));
  std::set<uint32_t> seen;
  store.FetchMany(std::vector<uint32_t>{2, 10, 16, 41},
                  [&](uint32_t id, std::span<const double> x) {
                    seen.insert(id);
                    for (size_t j = 0; j < 4; ++j) {
                      EXPECT_DOUBLE_EQ(x[j], data.At(id, j));
                    }
                  },
                  &memo);
  EXPECT_EQ(pager.stats().reads, 4u);  // only page 2 is new
  EXPECT_EQ(seen, (std::set<uint32_t>{2, 10, 16, 41}));
}

TEST(PointStoreTest, FetchManyOverShadowPagesReadsThePagersOwnImage) {
  // The store's pages were written and never flushed, so the pager holds
  // each as a shadow image: FetchMany pins it and hands the callback spans
  // inside that image, copying nothing.
  MemPager pager(256);  // 8 points per page
  const Matrix data = TestData(64, 4);
  const PointStore store(&pager, data, {});
  pager.ResetStats();
  const std::vector<uint32_t> ids{1, 9, 40, 41};
  std::map<uint32_t, const double*> spans;
  store.FetchMany(ids, [&](uint32_t id, std::span<const double> x) {
    spans[id] = x.data();
  });
  EXPECT_EQ(pager.stats().reads, 3u);  // pages 0, 1, 5
  ASSERT_EQ(spans.size(), ids.size());
  for (uint32_t id : ids) {
    const PointAddress addr = store.AddressOf(id);
    const PagePin page = pager.PinPage(addr.page);
    EXPECT_EQ(reinterpret_cast<const uint8_t*>(spans[id]),
              page->data() + addr.slot * 4 * sizeof(double))
        << "id " << id;
  }
}

TEST(PointStoreTest, ClusteredIdsCostFewerPagesThanScattered) {
  MemPager pager(512);  // 16 points per page
  const Matrix data = TestData(160, 4);
  const PointStore store(&pager, data, {});
  std::vector<uint32_t> clustered, scattered;
  for (uint32_t i = 0; i < 10; ++i) {
    clustered.push_back(i);        // one page
    scattered.push_back(i * 16);   // one page each
  }
  EXPECT_EQ(store.CountDistinctPages(clustered), 1u);
  EXPECT_EQ(store.CountDistinctPages(scattered), 10u);
}

TEST(PointStoreTest, PointsPerPageCappedAtSlotWidth) {
  // PointAddress::slot is 16 bits; a huge page with tiny points must not
  // wrap slot numbers (which would silently address the wrong point).
  EXPECT_EQ(PointStore::PointsPerPage(512, 4), 16u);
  EXPECT_EQ(PointStore::PointsPerPage(2 * 1024 * 1024, 2), size_t{1} << 16);
  EXPECT_EQ(PointStore::PointsPerPage(uint64_t{1} << 30, 1), size_t{1} << 16);
}

TEST(PointStoreDeathTest, PageMustHoldOnePoint) {
  MemPager pager(64);  // 8 doubles
  const Matrix data = TestData(4, 16);  // 128-byte points
  EXPECT_DEATH(PointStore(&pager, data, {}), "page size too small");
}

}  // namespace
}  // namespace brep
