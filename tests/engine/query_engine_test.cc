#include "engine/query_engine.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bbtree/bbtree.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

/// One fixture builds the index once; every test compares the concurrent
/// engine against sequential ground truths on it.
class QueryEngineTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 24;
  static constexpr size_t kK = 10;

  QueryEngineTest()
      : data_(testing::MakeDataFor("itakura_saito", 1200, kDim)),
        queries_(testing::MakeQueriesFor("itakura_saito", data_, 16)),
        div_(MakeDivergence("itakura_saito", kDim)),
        pager_(4096) {
    BrePartitionConfig config;
    config.num_partitions = 4;
    config.forest.tree.max_leaf_size = 16;
    index_ = std::make_unique<BrePartition>(&pager_, data_, div_, config);
  }

  QueryEngine MakeEngine(size_t threads) const {
    QueryEngineOptions options;
    options.num_threads = threads;
    return QueryEngine(*index_, options);
  }

  Matrix data_;
  Matrix queries_;
  BregmanDivergence div_;
  MemPager pager_;
  std::unique_ptr<BrePartition> index_;
};

TEST_F(QueryEngineTest, BatchMatchesSequentialBBTreeGroundTruth) {
  // The ISSUE's bar: batched kNN on N threads returns exactly what the
  // sequential in-memory BBTree search returns.
  const BBTree truth_tree(data_, div_, BBTreeConfig{});
  const QueryEngine engine = MakeEngine(4);
  const auto batch = engine.KnnSearchBatch(queries_, kK);
  ASSERT_EQ(batch.size(), queries_.rows());
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto expected = truth_tree.KnnSearch(queries_.Row(q), kK);
    ASSERT_EQ(batch[q].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch[q][i].id, expected[i].id) << "q=" << q << " i=" << i;
      EXPECT_NEAR(batch[q][i].distance, expected[i].distance,
                  1e-9 * std::max(1.0, expected[i].distance));
    }
  }
}

TEST_F(QueryEngineTest, ResultsAreIdenticalAcrossThreadCounts) {
  // Byte-identical results for every thread count, including the
  // sequential reference engine and the BrePartition path itself.
  const QueryEngine seq = MakeEngine(1);
  const auto reference = seq.KnnSearchBatch(queries_, kK);
  for (size_t threads : {2ul, 3ul, 8ul}) {
    const QueryEngine engine = MakeEngine(threads);
    const auto got = engine.KnnSearchBatch(queries_, kK);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t q = 0; q < got.size(); ++q) {
      EXPECT_TRUE(got[q] == reference[q]) << "threads=" << threads
                                          << " q=" << q;
    }
  }
  for (size_t q = 0; q < queries_.rows(); ++q) {
    EXPECT_TRUE(reference[q] == index_->KnnSearch(queries_.Row(q), kK));
  }
}

TEST_F(QueryEngineTest, SingleQueryParallelFilterMatchesSequential) {
  const QueryEngine engine = MakeEngine(4);
  for (size_t q = 0; q < queries_.rows(); ++q) {
    QueryStats par_stats;
    QueryStats seq_stats;
    const auto got = engine.KnnSearch(queries_.Row(q), kK, &par_stats);
    const auto expected = index_->KnnSearch(queries_.Row(q), kK, &seq_stats);
    EXPECT_TRUE(got == expected) << "q=" << q;
    // The fan-out performs exactly the sequential filter's logical work.
    EXPECT_EQ(par_stats.candidates, seq_stats.candidates);
    EXPECT_EQ(par_stats.nodes_visited, seq_stats.nodes_visited);
    EXPECT_GT(par_stats.io_reads, 0u);
  }
}

TEST_F(QueryEngineTest, LogicalStatsAreDeterministicAcrossThreadCounts) {
  QueryStats seq_stats;
  QueryStats par_stats;
  MakeEngine(1).KnnSearchBatch(queries_, kK, &seq_stats);
  MakeEngine(4).KnnSearchBatch(queries_, kK, &par_stats);

  EXPECT_EQ(par_stats.candidates, seq_stats.candidates);
  EXPECT_EQ(par_stats.nodes_visited, seq_stats.nodes_visited);
  EXPECT_EQ(par_stats.leaves_visited, seq_stats.leaves_visited);
  EXPECT_EQ(par_stats.points_evaluated, seq_stats.points_evaluated);
  // I/O happens on both paths but is schedule-dependent (shared caches).
  EXPECT_GT(seq_stats.candidates, 0u);
  EXPECT_GT(par_stats.io_reads, 0u);
  EXPECT_GT(par_stats.total_ms, 0.0);
}

TEST_F(QueryEngineTest, RangeSearchMatchesBruteForce) {
  const QueryEngine engine = MakeEngine(4);
  for (size_t q = 0; q < 4; ++q) {
    const auto y = queries_.Row(q);
    // Radius around the 5th neighbor so results are non-trivial.
    const double radius = index_->KnnSearch(y, 5).back().distance;
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < data_.rows(); ++i) {
      if (div_.Divergence(data_.Row(i), y) <= radius) {
        expected.push_back(static_cast<uint32_t>(i));
      }
    }
    EXPECT_TRUE(engine.RangeSearch(y, radius) == expected) << "q=" << q;
  }
}

TEST_F(QueryEngineTest, RangeBatchIdenticalAcrossThreadCounts) {
  const double radius = index_->KnnSearch(queries_.Row(0), 8).back().distance;
  const auto reference = MakeEngine(1).RangeSearchBatch(queries_, radius);
  QueryStats stats;
  const auto got = MakeEngine(5).RangeSearchBatch(queries_, radius, &stats);
  ASSERT_EQ(got.size(), reference.size());
  for (size_t q = 0; q < got.size(); ++q) {
    EXPECT_TRUE(got[q] == reference[q]) << "q=" << q;
  }
}

TEST_F(QueryEngineTest, SingleRowBatchUsesSubspaceFanOut) {
  const Matrix one = queries_.Truncated(1);
  QueryStats stats;
  const auto batch = MakeEngine(4).KnnSearchBatch(one, kK, &stats);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0] == index_->KnnSearch(one.Row(0), kK));
}

TEST_F(QueryEngineTest, DefaultThreadCountResolvesToHardware) {
  const QueryEngine engine = MakeEngine(0);
  EXPECT_GE(engine.num_threads(), 1u);
}

// A second divergence exercises the squared-L2 generator's zero-weight-free
// path under concurrency.
TEST(QueryEngineSquaredL2Test, BatchedExactness) {
  constexpr size_t kDim = 16;
  const Matrix data = testing::MakeDataFor("squared_l2", 800, kDim);
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  MemPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 3;
  const BrePartition index(&pager, data, div, config);
  const BBTree truth_tree(data, div, BBTreeConfig{});

  QueryEngineOptions options;
  options.num_threads = 4;
  const QueryEngine engine(index, options);
  const auto batch = engine.KnnSearchBatch(queries, 7);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto expected = truth_tree.KnnSearch(queries.Row(q), 7);
    ASSERT_EQ(batch[q].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch[q][i].id, expected[i].id);
    }
  }
}

}  // namespace
}  // namespace brep
