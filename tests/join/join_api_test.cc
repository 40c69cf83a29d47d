/// SearchIndex::KnnJoin facade contract: the wrapper validates identically
/// on every backend (native, fallback, sharded), the fallback serves joins
/// through per-query search, the native and sharded paths are
/// byte-identical to the nested-loop oracle, and join work lands in the
/// metrics registry and the trace ring.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/index.h"
#include "api/search_index.h"
#include "divergence/factory.h"
#include "join/join_types.h"
#include "join_test_util.h"
#include "obs/index_metrics.h"
#include "shard/sharded_index.h"
#include "storage/pager.h"
#include "test_util.h"

namespace brep {
namespace {

using ::brep::testing::ExpectJoinIdentical;
using ::brep::testing::MakeDataFor;
using ::brep::testing::MakeQueriesFor;
using ::brep::testing::NestedLoopJoin;

constexpr size_t kDim = 5;
constexpr size_t kN = 150;

Matrix SmallQueries(const Matrix& data, size_t rows = 12) {
  return MakeQueriesFor("squared_l2", data, rows);
}

IndexOptions TracedOptions() {
  IndexOptions options;
  options.config.num_partitions = 3;
  options.slow_query_threshold_ms = 0.0;  // trace every call
  return options;
}

/// Every invalid input must fail with kInvalidArgument BEFORE any join work
/// runs, with the same contract on `index` regardless of backend.
void ExpectValidationContract(const SearchIndex& index, const Matrix& data) {
  const Matrix r = SmallQueries(data);
  const size_t n = index.num_points();

  // Empty R.
  const Matrix empty(0, kDim, {});
  auto result = index.KnnJoin(empty, 3);
  ASSERT_FALSE(result.ok()) << index.Describe();
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << index.Describe();

  // Dimensionality mismatch.
  const Matrix wrong(2, kDim + 1, std::vector<double>(2 * (kDim + 1), 0.5));
  result = index.KnnJoin(wrong, 3);
  ASSERT_FALSE(result.ok()) << index.Describe();
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << index.Describe();

  // k out of range.
  result = index.KnnJoin(r, 0);
  ASSERT_FALSE(result.ok()) << index.Describe();
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << index.Describe();
  result = index.KnnJoin(r, n + 1);
  ASSERT_FALSE(result.ok()) << index.Describe();
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << index.Describe();

  // A NaN row in R is refused by the evaluability gate when the backend
  // exposes its divergence.
  std::vector<double> bad(r.rows() * kDim, 0.5);
  bad[kDim + 2] = std::numeric_limits<double>::quiet_NaN();
  const Matrix poisoned(r.rows(), kDim, std::move(bad));
  result = index.KnnJoin(poisoned, 3);
  ASSERT_FALSE(result.ok()) << index.Describe();
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << index.Describe();
}

TEST(JoinValidationTest, SameContractOnEveryRegisteredBackend) {
  const Matrix data = MakeDataFor("squared_l2", kN, kDim);
  MemPager pager(32 * 1024);
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  for (const std::string& backend : RegisteredBackends()) {
    auto index = MakeSearchIndex(backend, &pager, data, div);
    ASSERT_TRUE(index.ok()) << backend << ": " << index.status().message();
    SCOPED_TRACE(backend);
    ExpectValidationContract(**index, data);
  }
}

TEST(JoinValidationTest, SameContractOnIndexParallelAndSharded) {
  const Matrix data = MakeDataFor("squared_l2", kN, kDim);
  auto built = Index::Build(data, "squared_l2", TracedOptions());
  ASSERT_TRUE(built.ok()) << built.status().message();
  ExpectValidationContract(*built, data);

  auto parallel = built->Parallel(2);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  ExpectValidationContract(*parallel, data);

  ShardedIndexOptions shard_options;
  shard_options.num_shards = 3;
  shard_options.shard.config.num_partitions = 3;
  auto sharded = ShardedIndex::Build(data, "squared_l2", shard_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  ExpectValidationContract(**sharded, data);
}

// ----------------------------------------------------------- fallback path

// Backends without a native join still serve the exact join through the
// default per-query fallback, byte-identical to the oracle.
TEST(JoinFallbackTest, ExactJoinMatchesOracleOnExactFallbackBackends) {
  const Matrix data = MakeDataFor("itakura_saito", kN, kDim);
  const Matrix r = MakeQueriesFor("itakura_saito", data, 10);
  MemPager pager(32 * 1024);
  const BregmanDivergence div = MakeDivergence("itakura_saito", kDim);
  const auto oracle = NestedLoopJoin(div, r, data, 4);
  for (const std::string backend : {"scan", "bbtree", "vafile"}) {
    auto index = MakeSearchIndex(backend, &pager, data, div);
    ASSERT_TRUE(index.ok()) << backend << ": " << index.status().message();
    SearchIndex::Stats stats;
    auto result = (*index)->KnnJoin(r, 4, &stats);
    ASSERT_TRUE(result.ok()) << backend << ": " << result.status().message();
    ExpectJoinIdentical(result->neighbors, oracle, backend);
    EXPECT_EQ(stats.queries, r.rows()) << backend;
    EXPECT_GT(result->stats.pairs_evaluated, 0u) << backend;
  }
}

// ------------------------------------------------------------- native path

TEST(JoinIndexTest, ExactJoinMatchesOracleAndFillsStats) {
  const Matrix data = MakeDataFor("itakura_saito", 400, kDim);
  const Matrix r = MakeQueriesFor("itakura_saito", data, 30);
  auto built = Index::Build(data, "itakura_saito", TracedOptions());
  ASSERT_TRUE(built.ok()) << built.status().message();

  SearchIndex::Stats stats;
  auto result = built->KnnJoin(r, 5, &stats);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ExpectJoinIdentical(result->neighbors,
                      NestedLoopJoin(built->divergence(), r, data, 5),
                      "native index join");

  EXPECT_EQ(stats.queries, r.rows());
  EXPECT_EQ(stats.nodes_visited, result->stats.node_pairs_visited);
  EXPECT_EQ(stats.leaves_visited, result->stats.leaf_blocks);
  EXPECT_EQ(stats.points_evaluated, result->stats.pairs_evaluated);
  EXPECT_GT(result->stats.node_pairs_visited, 0u);
  EXPECT_GE(stats.wall_ms, 0.0);
}

TEST(JoinIndexTest, ParallelHandleIsByteIdenticalToSequential) {
  const Matrix data = MakeDataFor("squared_l2", 400, kDim);
  const Matrix r = MakeQueriesFor("squared_l2", data, 40);
  auto built = Index::Build(data, "squared_l2", TracedOptions());
  ASSERT_TRUE(built.ok()) << built.status().message();
  const auto sequential = built->KnnJoin(r, 6);
  ASSERT_TRUE(sequential.ok()) << sequential.status().message();
  for (const size_t threads : {1u, 2u, 4u}) {
    auto parallel = built->Parallel(threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().message();
    const auto result = parallel->KnnJoin(r, 6);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ExpectJoinIdentical(result->neighbors, sequential->neighbors,
                        "threads=" + std::to_string(threads));
    EXPECT_EQ(result->stats.node_pairs_visited,
              sequential->stats.node_pairs_visited)
        << threads << " threads";
    EXPECT_EQ(result->stats.node_pairs_pruned,
              sequential->stats.node_pairs_pruned)
        << threads << " threads";
  }
}

TEST(JoinIndexTest, JoinReflectsDeletes) {
  const Matrix data = MakeDataFor("squared_l2", kN, kDim);
  const Matrix r = SmallQueries(data);
  auto built = Index::Build(data, "squared_l2", TracedOptions());
  ASSERT_TRUE(built.ok()) << built.status().message();

  // Delete every third point, then join: the answer must match an oracle
  // over only the survivors, with their original ids.
  std::vector<uint32_t> live;
  for (uint32_t id = 0; id < kN; ++id) {
    if (id % 3 == 0) {
      ASSERT_TRUE(built->Delete(id).ok()) << id;
    } else {
      live.push_back(id);
    }
  }
  std::vector<double> rows;
  rows.reserve(live.size() * kDim);
  for (const uint32_t id : live) {
    const auto row = data.Row(id);
    rows.insert(rows.end(), row.begin(), row.end());
  }
  const Matrix survivors(live.size(), kDim, std::move(rows));
  const auto result = built->KnnJoin(r, 4);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ExpectJoinIdentical(result->neighbors,
                      NestedLoopJoin(built->divergence(), r, survivors, 4,
                                     live),
                      "join after deletes");
}

// ---------------------------------------------------------- observability

TEST(JoinIndexTest, JoinWorkLandsInMetricsAndTraceRing) {
  const Matrix data = MakeDataFor("squared_l2", kN, kDim);
  const Matrix r = SmallQueries(data);
  auto built = Index::Build(data, "squared_l2", TracedOptions());
  ASSERT_TRUE(built.ok()) << built.status().message();

  const auto result = built->KnnJoin(r, 3);
  ASSERT_TRUE(result.ok()) << result.status().message();

  const auto snapshot = built->Metrics();
  const uint64_t* joins =
      snapshot.FindCounter(obs::kJoinsTotal);
  ASSERT_NE(joins, nullptr);
  EXPECT_EQ(*joins, 1u);
  const uint64_t* rows =
      snapshot.FindCounter(obs::kJoinRowsTotal);
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(*rows, r.rows());
  const uint64_t* pairs =
      snapshot.FindCounter(obs::kJoinNodePairsVisitedTotal);
  ASSERT_NE(pairs, nullptr);
  EXPECT_EQ(*pairs, result->stats.node_pairs_visited);
  const uint64_t* pruned =
      snapshot.FindCounter(obs::kJoinNodePairsPrunedTotal);
  ASSERT_NE(pruned, nullptr);
  EXPECT_EQ(*pruned, result->stats.node_pairs_pruned);
  const uint64_t* blocks =
      snapshot.FindCounter(obs::kJoinLeafBlocksTotal);
  ASSERT_NE(blocks, nullptr);
  EXPECT_EQ(*blocks, result->stats.leaf_blocks);
  const auto* latency =
      snapshot.FindHistogram(obs::kJoinLatencyMs);
  ASSERT_NE(latency, nullptr);

  // Threshold 0 traces the call: op 'j' with the pair counters attached.
  const auto traces = built->SlowQueries();
  ASSERT_FALSE(traces.empty());
  const auto& entry = traces.back();
  EXPECT_EQ(entry.op, 'j');
  EXPECT_EQ(entry.k, 3u);
  EXPECT_EQ(entry.results, r.rows());
  EXPECT_EQ(entry.nodes_visited, result->stats.node_pairs_visited);
  EXPECT_EQ(entry.leaves_visited, result->stats.leaf_blocks);
  EXPECT_EQ(entry.points_evaluated, result->stats.pairs_evaluated);
  EXPECT_EQ(entry.node_pairs_pruned, result->stats.node_pairs_pruned);
  EXPECT_GE(entry.total_ms, 0.0);
}

// ------------------------------------------------------------ sharded path

TEST(JoinShardedTest, ScatterJoinIsByteIdenticalToUnsharded) {
  const Matrix data = MakeDataFor("squared_l2", 360, kDim);
  const Matrix r = MakeQueriesFor("squared_l2", data, 24);
  const auto oracle =
      NestedLoopJoin(MakeDivergence("squared_l2", kDim), r, data, 5);
  for (const size_t shards : {1u, 2u, 4u}) {
    ShardedIndexOptions options;
    options.num_shards = shards;
    options.shard.config.num_partitions = 3;
    auto sharded = ShardedIndex::Build(data, "squared_l2", options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().message();
    SearchIndex::Stats stats;
    const auto result = (*sharded)->KnnJoin(r, 5, &stats);
    ASSERT_TRUE(result.ok()) << shards << " shards: "
                             << result.status().message();
    ExpectJoinIdentical(result->neighbors, oracle,
                        std::to_string(shards) + " shards");
    EXPECT_EQ(stats.queries, r.rows()) << shards << " shards";
    EXPECT_GT(result->stats.node_pairs_visited, 0u) << shards << " shards";
  }
}

// A shard with no live points is skipped, and one with fewer live points
// than k answers with all of them; the merge must still match the oracle
// over the live rows under their global ids.
TEST(JoinShardedTest, EmptyAndShortShardsMatchOracle) {
  constexpr size_t kShards = 4;
  constexpr size_t kK = 5;
  const Matrix data = MakeDataFor("squared_l2", 200, kDim);
  const Matrix r = MakeQueriesFor("squared_l2", data, 16);
  ShardedIndexOptions options;
  options.num_shards = kShards;
  options.shard.config.num_partitions = 3;
  auto sharded = ShardedIndex::Build(data, "squared_l2", options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();

  // Global id g lives on shard g % 4: empty shard 1 and keep only two
  // points on shard 2 (k = 5 exceeds its population).
  std::vector<uint32_t> live;
  size_t kept_on_short_shard = 0;
  for (uint32_t id = 0; id < data.rows(); ++id) {
    const size_t shard = ShardedIndex::ShardOf(id, kShards);
    const bool keep =
        shard == 0 || shard == 3 || (shard == 2 && kept_on_short_shard++ < 2);
    if (keep) {
      live.push_back(id);
    } else {
      ASSERT_TRUE((*sharded)->Delete(id).ok()) << id;
    }
  }
  ASSERT_EQ((*sharded)->num_points(), live.size());

  const Matrix survivors =
      data.GatherRows(std::vector<size_t>(live.begin(), live.end()));
  const auto result = (*sharded)->KnnJoin(r, kK);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ExpectJoinIdentical(result->neighbors,
                      NestedLoopJoin(MakeDivergence("squared_l2", kDim), r,
                                     survivors, kK, live),
                      "empty and short shards");
}

}  // namespace
}  // namespace brep
