#include "bbtree/bbforest.h"

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "core/bound.h"
#include "core/partition.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

class BBForestTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr size_t kDim = 12;
  static constexpr size_t kM = 3;
  std::string gen_ = GetParam();
  Matrix data_ = testing::MakeDataFor(gen_, 400, kDim);
  Matrix queries_ = testing::MakeQueriesFor(gen_, data_, 6);
  BregmanDivergence div_ = MakeDivergence(gen_, kDim);
  Partitioning parts_ = EqualContiguousPartition(kDim, kM);
  std::vector<BregmanDivergence> sub_divs_ = [this] {
    std::vector<BregmanDivergence> out;
    for (const auto& cols : parts_) out.push_back(div_.Restrict(cols));
    return out;
  }();
  TransformedDataset tuples_{data_, parts_, sub_divs_};

  BBForestConfig Config() {
    BBForestConfig c;
    c.tree.max_leaf_size = 16;
    return c;
  }

  std::vector<std::vector<double>> Gather(std::span<const double> y) {
    std::vector<std::vector<double>> subs(parts_.size());
    for (size_t m = 0; m < parts_.size(); ++m) {
      for (size_t c : parts_[m]) subs[m].push_back(y[c]);
    }
    return subs;
  }
};

TEST_P(BBForestTest, StructureMatchesPartitioning) {
  MemPager pager(4096);
  const BBForest forest(&pager, data_, div_, parts_, Config(), tuples_);
  ASSERT_EQ(forest.num_partitions(), kM);
  for (size_t m = 0; m < kM; ++m) {
    EXPECT_EQ(forest.tree(m).dim(), parts_[m].size());
    EXPECT_EQ(forest.subspace_divergence(m).dim(), parts_[m].size());
  }
  EXPECT_EQ(forest.num_points(), data_.rows());
}

TEST_P(BBForestTest, CandidateUnionContainsExactKnnUnderTheoremBounds) {
  // End-to-end Theorem 3 check at the forest level: radii taken from the
  // k-th smallest total upper bound must yield a candidate set containing
  // the exact kNN.
  MemPager pager(4096);
  const BBForest forest(&pager, data_, div_, parts_, Config(), tuples_);
  const LinearScan scan(data_, div_);
  constexpr size_t kK = 10;

  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto y = queries_.Row(q);
    const auto y_subs = Gather(y);
    std::vector<QueryTriple> triples(parts_.size());
    for (size_t m = 0; m < parts_.size(); ++m) {
      triples[m] = TransformQuery(sub_divs_[m], y_subs[m]);
    }
    const QueryBounds qb = QBDetermine(tuples_, triples, kK);
    const auto candidates =
        forest.RangeCandidatesUnion(y_subs, qb.radii);
    const std::set<uint32_t> cand_set(candidates.begin(), candidates.end());

    for (const Neighbor& nn : scan.KnnSearch(y, kK)) {
      EXPECT_TRUE(cand_set.count(nn.id))
          << gen_ << ": true neighbor " << nn.id << " missing (q=" << q
          << ")";
    }
  }
}

TEST_P(BBForestTest, UnionIsSortedAndUnique) {
  MemPager pager(4096);
  const BBForest forest(&pager, data_, div_, parts_, Config(), tuples_);
  const auto y = queries_.Row(0);
  const auto y_subs = Gather(y);
  const std::vector<double> radii(kM, 1e9);  // everything qualifies
  const auto cands = forest.RangeCandidatesUnion(y_subs, radii);
  EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
  EXPECT_EQ(std::adjacent_find(cands.begin(), cands.end()), cands.end());
  EXPECT_EQ(cands.size(), data_.rows());  // every point in some leaf
}

INSTANTIATE_TEST_SUITE_P(Generators, BBForestTest,
                         ::testing::Values("squared_l2", "itakura_saito",
                                           "exponential"),
                         [](const auto& info) { return info.param; });

TEST(BBForestLayoutTest, PointStoreUsesFirstTreeLeafOrder) {
  // Points in the same first-subspace leaf must be contiguous on disk
  // (consecutive slots/pages) -- the I/O optimization of Section 6.
  const Matrix data = testing::MakeDataFor("squared_l2", 300, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", 8);
  const Partitioning parts = EqualContiguousPartition(8, 2);

  BBForestConfig config;
  config.tree.max_leaf_size = 10;

  // Rebuild the first tree exactly as the forest does to get its leaf order.
  const Matrix sub0 = data.GatherColumns(parts[0]);
  const BregmanDivergence div0 = div.Restrict(parts[0]);
  const BBTree tree0(sub0, div0, config.tree);
  const auto order = tree0.LeafOrder();

  std::vector<BregmanDivergence> sub_divs;
  for (const auto& cols : parts) sub_divs.push_back(div.Restrict(cols));
  const TransformedDataset tuples(data, parts, sub_divs);
  MemPager pager(2048);
  const BBForest forest(&pager, data, div, parts, config, tuples);
  const PointStore& store = forest.point_store();
  // The i-th point in leaf order occupies slot i of the layout.
  const size_t per_page = store.points_per_page();
  for (size_t i = 0; i < order.size(); ++i) {
    const PointAddress addr = store.AddressOf(order[i]);
    EXPECT_EQ(addr.slot, i % per_page);
  }
}

}  // namespace
}  // namespace brep
