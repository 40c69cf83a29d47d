/// Update edge cases: delete down to empty disk trees then re-insert, and
/// the facade's update argument validation.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "api/index.h"
#include "api/search_index.h"
#include "core/brepartition.h"
#include "storage/pager.h"
#include "test_util.h"
#include "update/update_test_util.h"

namespace brep {
namespace {

using testing::LinearScanOracle;

TEST(UpdateFacadeTest, DiskTreesSurviveDeleteToEmptyAndRefill) {
  // Deleting every point collapses each disk tree to root == kNoNode and
  // returns its chunk pages; inserts rebuild it from a fresh leaf.
  constexpr size_t kDim = 8;
  const Matrix pool = testing::MakeDataFor("exponential", 300, kDim, 0xED);
  const Matrix initial(
      60, kDim,
      std::vector<double>(pool.data().begin(),
                          pool.data().begin() + 60 * kDim));
  auto built = IndexBuilder("exponential")
                   .Partitions(4)
                   .PageSize(1024)
                   .MaxLeafSize(8)
                   .Build(initial);
  ASSERT_TRUE(built.ok()) << built.status().message();
  Index index = *std::move(built);

  for (int cycle = 0; cycle < 2; ++cycle) {
    // Down to empty...
    for (uint32_t id = 0; id < 60; ++id) {
      ASSERT_TRUE(index.Delete(id).ok()) << "cycle " << cycle << " id " << id;
    }
    EXPECT_EQ(index.num_points(), 0u);
    index.impl().DebugCheckInvariants();
    EXPECT_EQ(index.Knn(pool.Row(0), 1).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index.Range(pool.Row(0), 1.0)->size(), 0u);
    // ... and back up, re-using the same ids.
    LinearScanOracle oracle(index.divergence());
    for (uint32_t i = 0; i < 60; ++i) {
      const auto x = initial.Row(i);
      const auto id = index.Insert(x);
      ASSERT_TRUE(id.ok()) << id.status().message();
      oracle.Insert(*id, x);
    }
    EXPECT_EQ(index.num_points(), 60u);
    index.impl().DebugCheckInvariants();
    for (size_t q = 0; q < 5; ++q) {
      const auto y = pool.Row(100 + q);
      const auto got = index.Knn(y, 5);
      ASSERT_TRUE(got.ok());
      const auto want = oracle.Knn(y, 5);
      ASSERT_EQ(got->size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*got)[i].id, want[i].id);
        EXPECT_EQ((*got)[i].distance, want[i].distance);
      }
    }
  }
}

TEST(UpdateFacadeTest, ValidatesArgumentsAndBackendCapabilities) {
  constexpr size_t kDim = 6;
  const Matrix data = testing::MakeDataFor("itakura_saito", 80, kDim);
  auto built = IndexBuilder("itakura_saito").Partitions(3).Build(data);
  ASSERT_TRUE(built.ok()) << built.status().message();
  Index index = *std::move(built);

  // Dimensionality mismatch.
  const std::vector<double> short_point(kDim - 1, 1.0);
  EXPECT_EQ(index.Insert(short_point).status().code(),
            StatusCode::kInvalidArgument);
  // Domain violation (Itakura-Saito needs strictly positive coordinates).
  const std::vector<double> negative(kDim, -1.0);
  const auto bad = index.Insert(negative);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("domain"), std::string::npos)
      << bad.status().message();
  // Unknown id.
  EXPECT_EQ(index.Delete(12345).code(), StatusCode::kNotFound);

  // Valid update round trip, with the stats lanes counting.
  SearchIndex::Stats stats;
  const std::vector<double> x(kDim, 0.5);
  const auto id = index.Insert(x, &stats);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(stats.inserts, 1u);
  ASSERT_TRUE(index.Delete(*id, &stats).ok());
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(index.UpdateStats().inserts, 1u);
  EXPECT_EQ(index.UpdateStats().deletes, 1u);

  // Baseline adapters are read-only...
  MemPager pager(32 * 1024);
  const BregmanDivergence div = MakeDivergence("itakura_saito", kDim);
  for (const char* backend : {"scan", "bbtree", "vafile"}) {
    auto adapter = MakeSearchIndex(backend, &pager, data, div);
    ASSERT_TRUE(adapter.ok()) << backend;
    const auto insert = (*adapter)->Insert(x);
    EXPECT_EQ(insert.status().code(), StatusCode::kFailedPrecondition)
        << backend;
    EXPECT_EQ((*adapter)->Delete(0).code(), StatusCode::kFailedPrecondition)
        << backend;
  }

  // ... while the registry's "brepartition" is a whole Index on a disk of
  // its own: it takes updates, answers them exactly and joins natively.
  {
    BackendOptions options;
    options.brepartition.num_partitions = 3;
    const size_t shared_pages = pager.num_pages();
    auto adapter = MakeSearchIndex("brepartition", &pager, data, div, options);
    ASSERT_TRUE(adapter.ok()) << adapter.status().message();
    EXPECT_EQ(pager.num_pages(), shared_pages);
    SearchIndex& bp = **adapter;
    LinearScanOracle oracle(div);
    for (uint32_t row = 0; row < data.rows(); ++row) {
      oracle.Insert(row, data.Row(row));
    }
    const auto inserted = bp.Insert(x);
    ASSERT_TRUE(inserted.ok()) << inserted.status().message();
    oracle.Insert(*inserted, x);
    for (const uint32_t gone : {3u, 17u, 40u}) {
      ASSERT_TRUE(bp.Delete(gone).ok()) << gone;
      oracle.Delete(gone);
    }
    EXPECT_EQ(bp.num_points(), oracle.size());
    const Matrix queries = testing::MakeQueriesFor("itakura_saito", data, 6);
    for (size_t q = 0; q < queries.rows(); ++q) {
      const auto got = bp.Knn(queries.Row(q), 5);
      ASSERT_TRUE(got.ok()) << got.status().message();
      const auto want = oracle.Knn(queries.Row(q), 5);
      ASSERT_EQ(got->size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*got)[i].id, want[i].id) << "q=" << q << " i=" << i;
        EXPECT_EQ((*got)[i].distance, want[i].distance);
      }
    }
    // The native join scans every live point for every row; the per-row
    // fallback reports only the candidates its queries decided.
    const auto joined = bp.KnnJoin(queries, 3);
    ASSERT_TRUE(joined.ok()) << joined.status().message();
    EXPECT_EQ(joined->stats.pairs_evaluated,
              queries.rows() * oracle.size());
  }

  // Approximate views pin the index read-only...
  auto view = index.Approximate(ApproximateConfig{});
  // ... but a mutated index refuses to hand one out in the first place.
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kFailedPrecondition);

  // On a pristine index the order is reversed: view first, then updates
  // are refused.
  auto fresh = IndexBuilder("itakura_saito").Partitions(3).Build(data);
  ASSERT_TRUE(fresh.ok());
  Index pristine = *std::move(fresh);
  auto ok_view = pristine.Approximate(ApproximateConfig{});
  ASSERT_TRUE(ok_view.ok()) << ok_view.status().message();
  EXPECT_EQ(pristine.Insert(x).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(pristine.Delete(0).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace brep
