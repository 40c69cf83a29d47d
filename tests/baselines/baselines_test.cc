#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "baselines/bbt_baseline.h"
#include "baselines/linear_scan.h"
#include "baselines/var_baseline.h"
#include "core/approximate.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

class BaselinesTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr size_t kDim = 10;
  std::string gen_ = GetParam();
  Matrix data_ = testing::MakeDataFor(gen_, 600, kDim);
  Matrix queries_ = testing::MakeQueriesFor(gen_, data_, 8);
  BregmanDivergence div_ = MakeDivergence(gen_, kDim);
};

TEST_P(BaselinesTest, BBTBaselineIsExact) {
  MemPager pager(4096);
  BBTBaselineConfig config;
  config.tree.max_leaf_size = 16;
  const BBTBaseline bbt(&pager, data_, div_, config);
  const LinearScan scan(data_, div_);
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto expected = scan.KnnSearch(queries_.Row(q), 10);
    const auto got = bbt.KnnSearch(queries_.Row(q), 10);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance,
                  1e-9 * std::max(1.0, expected[i].distance))
          << gen_;
    }
  }
}

TEST_P(BaselinesTest, VarBaselineReturnsKReasonableResults) {
  MemPager pager(4096);
  VarBaselineConfig config;
  config.base.tree.max_leaf_size = 16;
  const VarBaseline var(&pager, data_, div_, config);
  const LinearScan scan(data_, div_);
  double ratio_acc = 0.0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto got = var.KnnSearch(queries_.Row(q), 10);
    ASSERT_EQ(got.size(), 10u);
    const auto exact = scan.KnnSearch(queries_.Row(q), 10);
    ratio_acc += OverallRatio(got, exact);
  }
  EXPECT_LT(ratio_acc / queries_.rows(), 1.5) << gen_;
}

INSTANTIATE_TEST_SUITE_P(Generators, BaselinesTest,
                         ::testing::Values("squared_l2", "itakura_saito",
                                           "exponential"),
                         [](const auto& info) { return info.param; });

TEST(LinearScanTest, RangeAndKnnConsistent) {
  const Matrix data = testing::MakeDataFor("squared_l2", 300, 6);
  const BregmanDivergence div = MakeDivergence("squared_l2", 6);
  const LinearScan scan(data, div);
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 3);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto knn = scan.KnnSearch(queries.Row(q), 10);
    // Range search with radius = k-th distance returns at least k points,
    // all within the radius.
    const double radius = knn.back().distance;
    const auto in_range = scan.RangeSearch(queries.Row(q), radius);
    EXPECT_GE(in_range.size(), 10u);
    for (uint32_t id : in_range) {
      EXPECT_LE(div.Divergence(data.Row(id), queries.Row(q)),
                radius + 1e-12);
    }
  }
}

TEST(LinearScanTest, AllDistancesMatchesDivergence) {
  const Matrix data = testing::MakeDataFor("exponential", 50, 4);
  const BregmanDivergence div = MakeDivergence("exponential", 4);
  const LinearScan scan(data, div);
  const auto dists = scan.AllDistances(data.Row(7));
  ASSERT_EQ(dists.size(), 50u);
  EXPECT_DOUBLE_EQ(dists[7], 0.0);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(dists[i], div.Divergence(data.Row(i), data.Row(7)));
  }
}

TEST(VarBaselineTest, HarderGateDoesLessWork) {
  const Matrix data = testing::MakeDataFor("squared_l2", 1200, 10);
  const BregmanDivergence div = MakeDivergence("squared_l2", 10);
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 10);

  auto points_evaluated = [&](double min_hits) {
    MemPager pager(4096);
    VarBaselineConfig config;
    config.min_expected_hits = min_hits;
    const VarBaseline var(&pager, data, div, config);
    size_t total = 0;
    for (size_t q = 0; q < queries.rows(); ++q) {
      WorkCounters stats;
      var.KnnSearch(queries.Row(q), 10, &stats);
      total += stats.points_evaluated;
    }
    return total;
  };
  EXPECT_LE(points_evaluated(5.0), points_evaluated(0.1));
}

}  // namespace
}  // namespace brep
