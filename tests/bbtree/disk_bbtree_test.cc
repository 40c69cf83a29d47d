#include "bbtree/disk_bbtree.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "common/math_utils.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

class DiskBBTreeTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr size_t kDim = 8;
  std::string gen_ = GetParam();
  Matrix data_ = testing::MakeDataFor(gen_, 500, kDim);
  Matrix queries_ = testing::MakeQueriesFor(gen_, data_, 8);
  BregmanDivergence div_ = MakeDivergence(gen_, kDim);
  BBTreeConfig tree_config_ = [] {
    BBTreeConfig c;
    c.max_leaf_size = 16;
    return c;
  }();
};

TEST_P(DiskBBTreeTest, KnnMatchesInMemoryTree) {
  MemPager pager(4096);
  const BBTree mem_tree(data_, div_, tree_config_);
  const PointStore store(&pager, data_, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree);

  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto expected = mem_tree.KnnSearch(queries_.Row(q), 10);
    const auto got = disk_tree.KnnSearch(queries_.Row(q), 10, store);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance,
                  1e-9 * std::max(1.0, expected[i].distance));
    }
  }
}

TEST_P(DiskBBTreeTest, RangeCandidatesMatchInMemoryTree) {
  MemPager pager(4096);
  const BBTree mem_tree(data_, div_, tree_config_);
  const DiskBBTree disk_tree(&pager, mem_tree);
  const LinearScan scan(data_, div_);

  for (size_t q = 0; q < queries_.rows(); ++q) {
    auto dists = scan.AllDistances(queries_.Row(q));
    const double radius = Quantile(dists, 0.1);
    auto expected = mem_tree.RangeCandidates(queries_.Row(q), radius);
    auto got = disk_tree.RangeCandidates(queries_.Row(q), radius);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

/// Reference range descent over BBTree::nodes(): the trees' own depth-first
/// order, pruning with the value form of the ball bound. `exact` holds the
/// ids within `radius`, `candidates` every id of every kept leaf; `stats`
/// counts the exact search's work (the candidate descent evaluates no
/// points).
struct ReferenceRange {
  std::vector<uint32_t> exact, candidates;
  WorkCounters stats;
};

ReferenceRange ReferenceRangeDescent(const BBTree& tree,
                                     std::span<const double> y,
                                     double radius) {
  const BregmanDivergence& div = tree.divergence();
  std::vector<double> grad(div.dim());
  div.Gradient(y, std::span<double>(grad));
  ReferenceRange ref;
  std::vector<int32_t> stack{tree.root()};
  while (!stack.empty()) {
    const BBTree::Node& node = tree.nodes()[stack.back()];
    stack.pop_back();
    ++ref.stats.nodes_visited;
    if (BallDistanceLowerBound(div, node.ball, y, grad,
                               tree.config().bound_iters) > radius) {
      continue;
    }
    if (node.is_leaf()) {
      ++ref.stats.leaves_visited;
      for (uint32_t id : node.ids) {
        ++ref.stats.points_evaluated;
        ref.candidates.push_back(id);
        if (div.Divergence(tree.data().Row(id), y) <= radius) {
          ref.exact.push_back(id);
        }
      }
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  return ref;
}

TEST_P(DiskBBTreeTest, RangeDescentsMatchReferencePruning) {
  MemPager pager(4096);
  const BBTree mem_tree(data_, div_, tree_config_);
  const DiskBBTree disk_tree(&pager, mem_tree);
  const LinearScan scan(data_, div_);

  auto expect_same = [](const std::vector<uint32_t>& got,
                        const WorkCounters& got_stats,
                        const std::vector<uint32_t>& want,
                        const WorkCounters& want_stats, const char* method) {
    EXPECT_EQ(got, want) << method;
    EXPECT_EQ(got_stats.nodes_visited, want_stats.nodes_visited) << method;
    EXPECT_EQ(got_stats.leaves_visited, want_stats.leaves_visited) << method;
    EXPECT_EQ(got_stats.points_evaluated, want_stats.points_evaluated)
        << method;
  };

  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto y = queries_.Row(q);
    auto dists = scan.AllDistances(y);
    const double farthest = *std::max_element(dists.begin(), dists.end());
    for (double radius : {0.0, Quantile(dists, 0.01), Quantile(dists, 0.1),
                          Quantile(dists, 0.5), farthest, 2.0 * farthest}) {
      SCOPED_TRACE("query " + std::to_string(q) + " radius " +
                   std::to_string(radius));
      const ReferenceRange ref = ReferenceRangeDescent(mem_tree, y, radius);
      WorkCounters cand_stats = ref.stats;
      cand_stats.points_evaluated = 0;

      WorkCounters st;
      auto got = mem_tree.RangeSearch(y, radius, &st);
      expect_same(got, st, ref.exact, ref.stats, "BBTree::RangeSearch");
      st = {};
      got = mem_tree.RangeCandidates(y, radius, &st);
      expect_same(got, st, ref.candidates, cand_stats,
                  "BBTree::RangeCandidates");
      st = {};
      got = disk_tree.RangeSearchExact(y, radius, &st);
      expect_same(got, st, ref.exact, ref.stats,
                  "DiskBBTree::RangeSearchExact");
      st = {};
      got = disk_tree.RangeCandidates(y, radius, &st);
      expect_same(got, st, ref.candidates, cand_stats,
                  "DiskBBTree::RangeCandidates");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, DiskBBTreeTest,
                         ::testing::Values("squared_l2", "itakura_saito",
                                           "exponential"),
                         [](const auto& info) { return info.param; });

TEST(DiskBBTreeIoTest, SearchChargesPageReads) {
  const Matrix data = testing::MakeDataFor("squared_l2", 600, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", 8);
  BBTreeConfig config;
  config.max_leaf_size = 16;

  MemPager pager(2048);
  const BBTree mem_tree(data, div, config);
  const PointStore store(&pager, data, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree, /*pool_pages=*/4);

  pager.ResetStats();
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 1);
  disk_tree.KnnSearch(queries.Row(0), 5, store);
  EXPECT_GT(pager.stats().reads, 0u);
  EXPECT_EQ(pager.stats().writes, 0u);  // search never writes
}

TEST(DiskBBTreeIoTest, LargerPoolReducesNodeReads) {
  const Matrix data = testing::MakeDataFor("squared_l2", 800, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", 8);
  BBTreeConfig config;
  config.max_leaf_size = 8;
  const BBTree mem_tree(data, div, config);
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 10);

  auto reads_with_pool = [&](size_t pool_pages) {
    MemPager pager(1024);
    const PointStore store(&pager, data, mem_tree.LeafOrder());
    const DiskBBTree disk_tree(&pager, mem_tree, pool_pages);
    pager.ResetStats();
    for (size_t q = 0; q < queries.rows(); ++q) {
      disk_tree.KnnSearch(queries.Row(q), 5, store);
    }
    return pager.stats().reads;
  };
  EXPECT_LT(reads_with_pool(256), reads_with_pool(1));
}

TEST(DiskBBTreeIoTest, HeaderOnlyChildBoundsStrictlyReduceIo) {
  // Regression for the descent double-read: an older KnnImpl fully
  // deserialized both children at every interior expansion (including leaf
  // payloads of count*(4 + 8*dim) bytes) just to compute ball lower
  // bounds, then read the popped child again. Child bounds now come from
  // the fixed-size header prefix, so every query must materialize exactly
  // the nodes it visits -- the same nodes, and the same answer, as the
  // in-memory tree. A one-page pool makes every repeat read a real one.
  const size_t kDim = 16;
  const Matrix data = testing::MakeDataFor("squared_l2", 800, kDim);
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  BBTreeConfig config;
  config.max_leaf_size = 8;
  const BBTree mem_tree(data, div, config);
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 10);

  MemPager pager(1024);
  const PointStore store(&pager, data, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree, /*pool_pages=*/1);
  for (size_t q = 0; q < queries.rows(); ++q) {
    SCOPED_TRACE("q=" + std::to_string(q));
    WorkCounters mem_stats, disk_stats;
    const auto want = mem_tree.KnnSearch(queries.Row(q), 10, &mem_stats);
    const uint64_t full_before = disk_tree.full_node_reads();
    const auto got =
        disk_tree.KnnSearch(queries.Row(q), 10, store, &disk_stats);
    // full_node_reads is counted inside the read path itself, so it carries
    // signal even if the traversal's own accounting were wrong.
    EXPECT_EQ(disk_tree.full_node_reads() - full_before,
              disk_stats.nodes_visited);
    EXPECT_EQ(disk_stats.nodes_visited, mem_stats.nodes_visited);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].distance, want[i].distance);
    }
  }
}

TEST(DiskBBTreeIoTest, VariationalSearchVisitsNoMoreThanExact) {
  const Matrix data = testing::MakeDataFor("squared_l2", 800, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", 8);
  BBTreeConfig config;
  config.max_leaf_size = 16;
  MemPager pager(2048);
  const BBTree mem_tree(data, div, config);
  const PointStore store(&pager, data, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree);

  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 10);
  size_t exact_points = 0, var_points = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    WorkCounters exact_stats, var_stats;
    disk_tree.KnnSearch(queries.Row(q), 10, store, &exact_stats);
    disk_tree.KnnSearchVariational(queries.Row(q), 10, store, 2.0,
                                   &var_stats);
    exact_points += exact_stats.points_evaluated;
    var_points += var_stats.points_evaluated;
  }
  EXPECT_LE(var_points, exact_points);
}

TEST(DiskBBTreeIoTest, VariationalResultsAreReasonablyAccurate) {
  const Matrix data = testing::MakeDataFor("squared_l2", 1000, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", 8);
  BBTreeConfig config;
  config.max_leaf_size = 16;
  MemPager pager(2048);
  const BBTree mem_tree(data, div, config);
  const PointStore store(&pager, data, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree);
  const LinearScan scan(data, div);

  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 20);
  double ratio_sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto exact = scan.KnnSearch(queries.Row(q), 10);
    const auto approx =
        disk_tree.KnnSearchVariational(queries.Row(q), 10, store, 0.5);
    ASSERT_EQ(approx.size(), 10u);
    // Compare k-th distances (scale-free accuracy check).
    const double e = exact.back().distance;
    const double a = approx.back().distance;
    ratio_sum += e > 0 ? a / e : 1.0;
  }
  EXPECT_LT(ratio_sum / queries.rows(), 1.5);
}

}  // namespace
}  // namespace brep
