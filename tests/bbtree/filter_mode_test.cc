#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "core/brepartition.h"
#include "dataset/synthetic.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

/// The two filter granularities (DESIGN.md ablation): exact-range (Cayton'09,
/// default) vs whole-cluster loading (the paper's Section 5.1 cost model).
class FilterModeTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 32;
  static constexpr size_t kK = 10;
  Matrix data_ = [] {
    Rng rng(3);
    return MakeFontsLike(rng, 1200, kDim);
  }();
  BregmanDivergence div_ = MakeDivergence("itakura_saito", kDim);
  Matrix queries_ = [this] {
    Rng rng(4);
    return MakeQueries(rng, data_, 8, 0.1, true);
  }();

  BrePartitionConfig Config(FilterMode mode) {
    BrePartitionConfig c;
    c.num_partitions = 4;
    c.forest.filter_mode = mode;
    return c;
  }
};

TEST_F(FilterModeTest, BothModesAreExact) {
  MemPager pager_a(4096), pager_b(4096);
  const BrePartition exact_mode(&pager_a, data_, div_,
                                Config(FilterMode::kExactRange));
  const BrePartition cluster_mode(&pager_b, data_, div_,
                                  Config(FilterMode::kCluster));
  const LinearScan scan(data_, div_);
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto truth = scan.KnnSearch(queries_.Row(q), kK);
    for (const auto& got :
         {testing::ExactKnn(exact_mode, queries_.Row(q), kK),
          testing::ExactKnn(cluster_mode, queries_.Row(q), kK)}) {
      ASSERT_EQ(got.size(), truth.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].distance, truth[i].distance,
                    1e-9 * std::max(1.0, truth[i].distance));
      }
    }
  }
}

TEST_F(FilterModeTest, ExactRangeProducesNoMoreCandidates) {
  MemPager pager_a(4096), pager_b(4096);
  const BrePartition exact_mode(&pager_a, data_, div_,
                                Config(FilterMode::kExactRange));
  const BrePartition cluster_mode(&pager_b, data_, div_,
                                  Config(FilterMode::kCluster));
  size_t exact_cand = 0, cluster_cand = 0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    QueryStats a, b;
    testing::ExactKnn(exact_mode, queries_.Row(q), kK, &a);
    testing::ExactKnn(cluster_mode, queries_.Row(q), kK, &b);
    exact_cand += a.candidates;
    cluster_cand += b.candidates;
  }
  EXPECT_LE(exact_cand, cluster_cand);
}

TEST_F(FilterModeTest, DiskExactRangeMatchesInMemoryRangeSearch) {
  // The disk tree's leaf-stored subvectors must reproduce the in-memory
  // exact range results bit-for-bit.
  const BBTreeConfig tree_config{};
  const BBTree mem_tree(data_, div_, tree_config);
  MemPager pager(4096);
  const DiskBBTree disk_tree(&pager, mem_tree);
  const TransformedDataset tuples = TransformedDataset::WholeSpace(data_, div_);
  const LinearScan scan(data_, div_);
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto dists = scan.AllDistances(queries_.Row(q));
    std::vector<double> sorted = dists;
    std::nth_element(sorted.begin(), sorted.begin() + 30, sorted.end());
    const double radius = sorted[30];
    auto mem = mem_tree.RangeSearch(queries_.Row(q), radius);
    auto disk = disk_tree.RangeSearchExact(queries_.Row(q), radius, tuples, 0);
    std::sort(mem.begin(), mem.end());
    std::sort(disk.begin(), disk.end());
    EXPECT_EQ(mem, disk);
  }
}

}  // namespace
}  // namespace brep
