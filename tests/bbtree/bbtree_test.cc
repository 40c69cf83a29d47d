#include "bbtree/bbtree.h"

#include <algorithm>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "common/math_utils.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

/// (generator, k) sweep checking exactness of kNN against brute force.
class BBTreeExactnessTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {
 protected:
  static constexpr size_t kDim = 10;
  std::string gen_ = std::get<0>(GetParam());
  size_t k_ = std::get<1>(GetParam());
  Matrix data_ = testing::MakeDataFor(gen_, 600, kDim);
  Matrix queries_ = testing::MakeQueriesFor(gen_, data_, 15);
  BregmanDivergence div_ = MakeDivergence(gen_, kDim);
};

TEST_P(BBTreeExactnessTest, KnnMatchesLinearScan) {
  BBTreeConfig config;
  config.max_leaf_size = 16;
  const BBTree tree(data_, div_, config);
  const LinearScan scan(data_, div_);
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto expected = scan.KnnSearch(queries_.Row(q), k_);
    const auto got = tree.KnnSearch(queries_.Row(q), k_);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance,
                  1e-9 * std::max(1.0, expected[i].distance))
          << gen_ << " q=" << q << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BBTreeExactnessTest,
    ::testing::Combine(::testing::Values("squared_l2", "itakura_saito",
                                         "exponential"),
                       ::testing::Values(1, 5, 20)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

class BBTreeTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 8;
  Matrix data_ = testing::MakeDataFor("squared_l2", 500, kDim);
  BregmanDivergence div_ = MakeDivergence("squared_l2", kDim);
  BBTreeConfig config_ = [] {
    BBTreeConfig c;
    c.max_leaf_size = 20;
    return c;
  }();
};

TEST_F(BBTreeTest, RangeSearchMatchesLinearScan) {
  const BBTree tree(data_, div_, config_);
  const LinearScan scan(data_, div_);
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data_, 10);
  for (size_t q = 0; q < queries.rows(); ++q) {
    // Pick a radius that captures a handful of points.
    auto dists = scan.AllDistances(queries.Row(q));
    const double radius = Quantile(dists, 0.05);
    auto expected = scan.RangeSearch(queries.Row(q), radius);
    auto got = tree.RangeSearch(queries.Row(q), radius);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "q=" << q;
  }
}

TEST_F(BBTreeTest, LeafOrderIsPermutation) {
  const BBTree tree(data_, div_, config_);
  auto order = tree.LeafOrder();
  ASSERT_EQ(order.size(), data_.rows());
  std::sort(order.begin(), order.end());
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST_F(BBTreeTest, LeafSizesRespectConfig) {
  const BBTree tree(data_, div_, config_);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf()) {
      EXPECT_LE(node.ids.size(), config_.max_leaf_size);
      EXPECT_FALSE(node.ids.empty());
    }
  }
}

TEST_F(BBTreeTest, BallsContainTheirPoints) {
  const BBTree tree(data_, div_, config_);
  for (const auto& node : tree.nodes()) {
    if (!node.is_leaf()) continue;
    for (uint32_t id : node.ids) {
      EXPECT_LE(div_.Divergence(data_.Row(id), node.ball.center),
                node.ball.radius + 1e-9);
    }
  }
}

TEST_F(BBTreeTest, PruningActuallyHappens) {
  const BBTree tree(data_, div_, config_);
  WorkCounters stats;
  tree.KnnSearch(data_.Row(0), 1, &stats);
  EXPECT_LT(stats.points_evaluated, data_.rows());
  EXPECT_GT(stats.nodes_visited, 0u);
}

TEST_F(BBTreeTest, DuplicatePointsHandled) {
  Matrix dup(50, 4);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 4; ++j) dup.At(i, j) = 1.0;
  }
  const BregmanDivergence div = MakeDivergence("squared_l2", 4);
  BBTreeConfig config;
  config.max_leaf_size = 8;
  const BBTree tree(dup, div, config);  // must not loop on unsplittable data
  const std::vector<double> q{1.0, 1.0, 1.0, 1.0};
  const auto res = tree.KnnSearch(q, 3);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_DOUBLE_EQ(res[0].distance, 0.0);
}

TEST_F(BBTreeTest, KnnOfDataPointFindsItself) {
  const BBTree tree(data_, div_, config_);
  for (size_t i = 0; i < 20; ++i) {
    const auto res = tree.KnnSearch(data_.Row(i), 1);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_DOUBLE_EQ(res[0].distance, 0.0);
  }
}

}  // namespace
}  // namespace brep
