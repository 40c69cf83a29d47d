// Boundary cases of the certified identity evaluation (README, "Certified
// identity evaluation"): radii set to exactly one point's divergence, and
// one ulp below it, sit inside the rounding bound, so the filter and the
// refine must resolve them through the exact expression. A kNN tie between
// duplicated rows checks that the refine's lower-bound skip never drops a
// candidate that the (distance, id) order would keep.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/index.h"
#include "bbtree/bbtree.h"
#include "bbtree/disk_bbtree.h"
#include "core/bound.h"
#include "divergence/factory.h"
#include "divergence/generators.h"
#include "engine/query_engine.h"
#include "storage/pager.h"
#include "storage/point_store.h"
#include "test_util.h"

namespace brep {
namespace {

constexpr size_t kDim = 12;
constexpr size_t kRows = 360;

/// Factory names, plus "weighted_isd": Itakura-Saito with uneven weights.
BregmanDivergence DivergenceFor(const std::string& spec) {
  if (spec == "weighted_isd") {
    std::vector<double> w(kDim);
    for (size_t j = 0; j < kDim; ++j) w[j] = 0.3 + 0.45 * double(j % 5);
    return BregmanDivergence(std::make_shared<ItakuraSaitoGenerator>(),
                             std::move(w));
  }
  return MakeDivergence(spec, kDim);
}

std::string DataSpec(const std::string& spec) {
  return spec == "weighted_isd" ? "itakura_saito" : spec;
}

class CertifiedBoundaryTest : public ::testing::TestWithParam<std::string> {
 protected:
  BregmanDivergence div_ = DivergenceFor(GetParam());
  Matrix data_ = testing::MakeDataFor(DataSpec(GetParam()), kRows, kDim);
  Matrix queries_ = testing::MakeQueriesFor(DataSpec(GetParam()), data_, 3);

  std::vector<double> Distances(std::span<const double> y) const {
    std::vector<double> d(data_.rows());
    for (size_t i = 0; i < data_.rows(); ++i) {
      d[i] = div_.Divergence(data_.Row(i), y);
    }
    return d;
  }

  /// Ids spread over the distance order of `dist`: the radius each one sets
  /// cuts through the data at a different depth.
  static std::vector<uint32_t> Targets(const std::vector<double>& dist) {
    std::vector<uint32_t> order(dist.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = uint32_t(i);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return dist[a] != dist[b] ? dist[a] < dist[b] : a < b;
    });
    std::vector<uint32_t> out;
    for (size_t rank : {size_t{0}, size_t{3}, size_t{11}, size_t{29},
                        size_t{60}, size_t{120}, size_t{240}}) {
      out.push_back(order[rank]);
    }
    return out;
  }

  /// Today's range answer of a partitioned index: the filter keeps ids
  /// within `r` in every subspace, the refine those within `r` in full.
  std::vector<uint32_t> PartitionedRange(const Partitioning& parts,
                                         std::span<const double> y,
                                         double r) const {
    std::vector<uint32_t> out;
    for (size_t i = 0; i < data_.rows(); ++i) {
      bool keep = div_.Divergence(data_.Row(i), y) <= r;
      for (size_t m = 0; keep && m < parts.size(); ++m) {
        std::vector<double> xs, ys;
        for (size_t c : parts[m]) {
          xs.push_back(data_.Row(i)[c]);
          ys.push_back(y[c]);
        }
        keep = div_.Restrict(parts[m]).Divergence(xs, ys) <= r;
      }
      if (keep) out.push_back(uint32_t(i));
    }
    return out;
  }
};

bool Has(const std::vector<uint32_t>& ids, uint32_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST_P(CertifiedBoundaryTest, DiskTreeRangeResolvesTheRadiusExactly) {
  BBTreeConfig config;
  config.max_leaf_size = 16;
  const BBTree mem_tree(data_, div_, config);
  MemPager pager(4096);
  const DiskBBTree tree(&pager, mem_tree);
  const TransformedDataset tuples = TransformedDataset::WholeSpace(data_, div_);

  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto y = queries_.Row(q);
    const std::vector<double> dist = Distances(y);
    for (uint32_t target : Targets(dist)) {
      const double at = dist[target];
      for (double r : {at, std::nextafter(at, -HUGE_VAL)}) {
        SCOPED_TRACE("query " + std::to_string(q) + " target " +
                     std::to_string(target) + (r == at ? " at" : " below"));
        WorkCounters st;
        std::vector<uint32_t> got =
            tree.RangeSearchExact(y, r, tuples, 0, &st);
        std::sort(got.begin(), got.end());
        std::vector<uint32_t> want;
        for (size_t i = 0; i < dist.size(); ++i) {
          if (dist[i] <= r) want.push_back(uint32_t(i));
        }
        EXPECT_EQ(got, want);
        EXPECT_EQ(Has(got, target), r == at);
        // A point exactly at the radius sits inside the rounding bound.
        if (r == at) {
          EXPECT_GE(st.exact_evals, 1u);
        }
        // Squared L2 evaluates every leaf point exactly (its batched exact
        // scan is cheaper than the identity); the identity decides all but
        // a few of the other generators' points.
        if (GetParam() == "squared_l2") {
          EXPECT_EQ(st.exact_evals, st.points_evaluated);
        } else {
          EXPECT_LT(st.exact_evals, st.points_evaluated);
        }
      }
    }
  }
}

TEST_P(CertifiedBoundaryTest, IndexAndEngineRangeResolveTheRadiusExactly) {
  IndexOptions options;
  options.config.num_partitions = 3;
  options.page_size = 4096;
  auto index = Index::Build(data_, div_, options);
  ASSERT_TRUE(index.ok()) << index.status().message();
  QueryEngineOptions eo;
  eo.num_threads = 2;
  const QueryEngine engine(index->impl(), eo);
  const Partitioning& parts = index->impl().partitioning();

  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto y = queries_.Row(q);
    const std::vector<double> dist = Distances(y);
    for (uint32_t target : Targets(dist)) {
      const double at = dist[target];
      for (double r : {at, std::nextafter(at, -HUGE_VAL)}) {
        SCOPED_TRACE("query " + std::to_string(q) + " target " +
                     std::to_string(target) + (r == at ? " at" : " below"));
        const std::vector<uint32_t> want = PartitionedRange(parts, y, r);
        // A point exactly at the radius passes every subspace filter unless
        // a subspace sum rounds above the full one; such a target says
        // nothing about the refine, so only the answer is compared.
        const bool reaches_refine = Has(want, target);

        SearchIndex::Stats st;
        auto got = index->Range(y, r, &st);
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_EQ(*got, want);
        if (r != at) {
          EXPECT_FALSE(Has(*got, target));
        }
        EXPECT_LE(st.exact_evals, st.points_evaluated + st.candidates);

        QueryStats qs;
        const std::vector<uint32_t> eng = engine.RangeSearch(y, r, &qs);
        EXPECT_EQ(eng, want);
        if (r == at && reaches_refine) {
          EXPECT_TRUE(Has(eng, target));
          EXPECT_GE(qs.exact_evals, 1u);
        }
      }
    }
  }
}

/// Both kNN pipelines over `index` (whose id i holds row i of `rows`),
/// with k chosen so the identical rows `low` < `high` tie at the k-th
/// place: the answer must keep `low`, exactly like the oracle's
/// (distance, id) order.
void ExpectTieKeepsLowerId(const Index& index, const Matrix& rows,
                           const BregmanDivergence& div,
                           const Matrix& queries, uint32_t low,
                           uint32_t high) {
  QueryEngineOptions eo;
  eo.num_threads = 2;
  const QueryEngine engine(index.impl(), eo);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto y = queries.Row(q);
    std::vector<Neighbor> all;
    for (size_t i = 0; i < rows.rows(); ++i) {
      all.push_back({div.Divergence(rows.Row(i), y), uint32_t(i)});
    }
    std::sort(all.begin(), all.end());
    size_t rank = 0;
    while (all[rank].id != low) ++rank;
    ASSERT_EQ(all[rank + 1].id, high);  // the tie, smaller id first
    const size_t k = rank + 1;
    const std::vector<Neighbor> want(all.begin(), all.begin() + k);
    SCOPED_TRACE("query " + std::to_string(q) + " k " + std::to_string(k));

    auto got = index.Knn(y, k);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, want);

    QueryStats qs;
    EXPECT_EQ(engine.KnnSearch(y, k, &qs), want);
    EXPECT_GE(qs.exact_evals, k);  // the top-k themselves are exact

    Matrix batch(2, kDim);
    for (size_t j = 0; j < kDim; ++j) {
      batch.MutableRow(0)[j] = batch.MutableRow(1)[j] = y[j];
    }
    for (const auto& r : engine.KnnSearchBatch(batch, k)) EXPECT_EQ(r, want);
  }
}

TEST_P(CertifiedBoundaryTest, KnnTieKeepsTheSmallerIdInBothPipelines) {
  IndexOptions options;
  options.config.num_partitions = 3;
  options.page_size = 4096;
  {
    // Built with row kLast duplicating row kTwin: the twins share a leaf,
    // so the refine fetches the smaller id first.
    constexpr uint32_t kTwin = 17;
    constexpr uint32_t kLast = kRows - 1;
    Matrix data = data_;
    for (size_t j = 0; j < kDim; ++j) {
      data.MutableRow(kLast)[j] = data.Row(kTwin)[j];
    }
    auto index = Index::Build(data, div_, options);
    ASSERT_TRUE(index.ok()) << index.status().message();
    SCOPED_TRACE("built twins");
    ExpectTieKeepsLowerId(*index, data, div_, queries_, kTwin, kLast);
  }
  {
    // Twins made by an update: deleting `low` and inserting a copy of a
    // larger id `high` reuses `low` in its old slot, the last one the
    // refine reads among the ids below `high`. The refine then meets the
    // larger twin first and every other candidate before the smaller one,
    // which must displace the larger at exactly the k-th distance.
    auto index = Index::Build(data_, div_, options);
    ASSERT_TRUE(index.ok()) << index.status().message();
    const PointStore& store = index->impl().forest().point_store();
    uint32_t high = kRows / 2;
    for (uint32_t id = high + 1; id < kRows; ++id) {
      if (store.AddressOf(id).page < store.AddressOf(high).page) high = id;
    }
    auto later = [&](uint32_t a, uint32_t b) {
      const PointAddress pa = store.AddressOf(a);
      const PointAddress pb = store.AddressOf(b);
      return pa.page != pb.page ? pa.page > pb.page : pa.slot > pb.slot;
    };
    uint32_t low = 0;
    for (uint32_t id = 1; id < high; ++id) {
      if (later(id, low)) low = id;
    }
    ASSERT_TRUE(index->Delete(low).ok());
    auto reused = index->Insert(data_.Row(high));
    ASSERT_TRUE(reused.ok()) << reused.status().message();
    ASSERT_EQ(*reused, low);
    ASSERT_GT(store.AddressOf(low).page, store.AddressOf(high).page);
    Matrix data = data_;
    for (size_t j = 0; j < kDim; ++j) {
      data.MutableRow(low)[j] = data.Row(high)[j];
    }
    SCOPED_TRACE("updated twins");
    ExpectTieKeepsLowerId(*index, data, div_, queries_, low, high);
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, CertifiedBoundaryTest,
                         ::testing::Values("squared_l2", "itakura_saito",
                                           "exponential", "lp:3",
                                           "weighted_isd"),
                         [](const auto& info) {
                           return testing::GeneratorTestName(info.param);
                         });

}  // namespace
}  // namespace brep
