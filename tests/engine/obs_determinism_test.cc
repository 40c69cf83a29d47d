#include <cstdint>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "api/index.h"
#include "common/work_counters.h"
#include "obs/index_metrics.h"
#include "test_util.h"

namespace brep {

// Readable EXPECT_EQ failures for WorkCounters (found by ADL).
static void PrintTo(const WorkCounters& w, std::ostream* os) {
  *os << "{io_reads " << w.io_reads << ", candidates " << w.candidates
      << ", nodes " << w.nodes_visited << ", leaves " << w.leaves_visited
      << ", points " << w.points_evaluated << ", pool " << w.pool_hits << "/"
      << w.pool_misses << "}";
}

namespace {

/// The observability bar from the ISSUE: logical work counters are
/// schedule-independent. The same workload served at any thread count must
/// export byte-identical counts for queries, candidates, nodes, leaves and
/// evaluated points -- only the latency DISTRIBUTIONS may differ, never
/// their sample counts.
class ObsDeterminismTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 24;
  static constexpr size_t kK = 8;

  ObsDeterminismTest()
      : data_(testing::MakeDataFor("itakura_saito", 1000, kDim)),
        queries_(testing::MakeQueriesFor("itakura_saito", data_, 12)) {}

  Index BuildIndex() const {
    auto built = IndexBuilder("itakura_saito")
                     .Partitions(4)
                     .Seed(7)
                     .SlowQueryThreshold(0.0)
                     .Build(data_);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return *std::move(built);
  }

  /// Serve the fixed workload: every query as a single facade call, then
  /// the whole set as one batch through a `threads`-wide handle.
  void Serve(const Index& index, size_t threads) const {
    for (size_t q = 0; q < queries_.rows(); ++q) {
      ASSERT_TRUE(index.Knn(queries_.Row(q), kK).ok());
    }
    auto parallel = index.Parallel(threads);
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(parallel->KnnBatch(queries_, kK).ok());
    ASSERT_TRUE(parallel->RangeBatch(queries_, radius_).ok());
  }

  Matrix data_;
  Matrix queries_;
  double radius_ = 0.05;
};

TEST_F(ObsDeterminismTest, LogicalCountersAreIdenticalAcrossThreadCounts) {
  std::vector<obs::MetricsSnapshot> snaps;
  for (size_t threads : {1ul, 2ul, 4ul}) {
    const Index index = BuildIndex();  // fresh registry per thread count
    Serve(index, threads);
    snaps.push_back(index.Metrics());
  }
  // Pager/pool traffic is deliberately absent here: the node caches are
  // shared, so overlapping lanes may duplicate a miss -- those series are
  // documented as approximate under concurrency.
  const char* logical[] = {
      obs::kKnnQueriesTotal,    obs::kRangeQueriesTotal,
      obs::kCandidatesTotal,    obs::kNodesVisitedTotal,
      obs::kLeavesVisitedTotal, obs::kPointsEvaluatedTotal,
      obs::kExactEvalsTotal,    obs::kBallStepsTotal,
  };
  for (const char* name : logical) {
    const uint64_t* reference = snaps[0].FindCounter(name);
    ASSERT_NE(reference, nullptr) << name;
    for (size_t i = 1; i < snaps.size(); ++i) {
      const uint64_t* got = snaps[i].FindCounter(name);
      ASSERT_NE(got, nullptr) << name;
      EXPECT_EQ(*got, *reference) << name << " diverged at thread count #"
                                  << i;
    }
  }
  // Latency histograms: values vary run to run, sample counts must not.
  const char* latencies[] = {obs::kKnnLatencyMs, obs::kRangeLatencyMs,
                             obs::kBoundLatencyMs, obs::kFilterLatencyMs,
                             obs::kRefineLatencyMs};
  for (const char* name : latencies) {
    const auto* reference = snaps[0].FindHistogram(name);
    ASSERT_NE(reference, nullptr) << name;
    for (size_t i = 1; i < snaps.size(); ++i) {
      EXPECT_EQ(snaps[i].FindHistogram(name)->count, reference->count)
          << name;
    }
  }
  // 12 single calls + 12 batched calls, each traced at threshold 0.
  EXPECT_EQ(*snaps[0].FindCounter(obs::kKnnQueriesTotal), 24u);
  EXPECT_EQ(*snaps[0].FindCounter(obs::kRangeQueriesTotal), 12u);
  EXPECT_EQ(snaps[0].FindHistogram(obs::kKnnLatencyMs)->count, 24u);
}

TEST_F(ObsDeterminismTest, CountersEqualOracleDerivedWork) {
  // The registry must agree exactly with the per-call Stats the facade
  // already reports -- the metrics are a second reader of the same work,
  // not a second opinion.
  const Index index = BuildIndex();
  const obs::MetricsSnapshot before = index.Metrics();
  SearchIndex::Stats oracle;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    SearchIndex::Stats call;
    ASSERT_TRUE(index.Knn(queries_.Row(q), kK, &call).ok());
    oracle.queries += call.queries;
    oracle.candidates += call.candidates;
    oracle.nodes_visited += call.nodes_visited;
    oracle.leaves_visited += call.leaves_visited;
    oracle.points_evaluated += call.points_evaluated;
    oracle.ball_steps += call.ball_steps;
    oracle.io_reads += call.io_reads;
  }
  const obs::MetricsSnapshot snap = index.Metrics();
  EXPECT_EQ(*snap.FindCounter(obs::kKnnQueriesTotal), oracle.queries);
  EXPECT_EQ(*snap.FindCounter(obs::kCandidatesTotal), oracle.candidates);
  EXPECT_EQ(*snap.FindCounter(obs::kNodesVisitedTotal),
            oracle.nodes_visited);
  EXPECT_EQ(*snap.FindCounter(obs::kLeavesVisitedTotal),
            oracle.leaves_visited);
  EXPECT_EQ(*snap.FindCounter(obs::kPointsEvaluatedTotal),
            oracle.points_evaluated);
  EXPECT_GT(oracle.ball_steps, 0u);
  EXPECT_EQ(*snap.FindCounter(obs::kBallStepsTotal), oracle.ball_steps);
  // Pager reads: compare as a delta over the serving window (the build
  // itself already issued reads). Single-threaded, so the count is exact.
  EXPECT_EQ(*snap.FindCounter(obs::kPagerReadsTotal) -
                *before.FindCounter(obs::kPagerReadsTotal),
            oracle.io_reads);
  // And the trace log saw every one of them (threshold 0).
  EXPECT_EQ(index.SlowQueries().size(), queries_.rows());
}

TEST_F(ObsDeterminismTest, PerCallStatsEqualTheirTraceEntries) {
  // The trace entry is a copy of the work the call reports, not a second
  // measurement: every counter agrees exactly, storage deltas included
  // (threshold 0, one call at a time).
  const Index index = BuildIndex();
  const auto work = [](const WorkCounters& w) { return w; };
  SearchIndex::Stats st;

  ASSERT_TRUE(index.Knn(queries_.Row(0), kK, &st).ok());
  EXPECT_EQ(work(st), work(index.SlowQueries().back())) << "knn";

  ASSERT_TRUE(index.Range(queries_.Row(1), radius_, &st).ok());
  EXPECT_EQ(work(st), work(index.SlowQueries().back())) << "range";

  ASSERT_TRUE(index.KnnJoin(queries_, kK, &st).ok());
  const obs::QueryTraceEntry join = index.SlowQueries().back();
  EXPECT_EQ(join.op, 'j');
  EXPECT_EQ(work(st), work(join)) << "join";

  // A batch reports the sum of its queries' entries.
  auto parallel = index.Parallel(1);
  ASSERT_TRUE(parallel.ok());
  const size_t before = index.SlowQueries().size();
  ASSERT_TRUE(parallel->KnnBatch(queries_, kK, &st).ok());
  const auto entries = index.SlowQueries();
  ASSERT_EQ(entries.size(), before + queries_.rows());
  WorkCounters sum;
  for (size_t i = before; i < entries.size(); ++i) sum += entries[i];
  EXPECT_EQ(work(st), sum) << "batch";
}

TEST_F(ObsDeterminismTest, TracedEntriesCarryTheSpanBreakdown) {
  const Index index = BuildIndex();
  ASSERT_TRUE(index.Knn(queries_.Row(0), kK).ok());
  const auto traces = index.SlowQueries();
  ASSERT_EQ(traces.size(), 1u);
  const obs::QueryTraceEntry& e = traces[0];
  EXPECT_EQ(e.op, 'k');
  EXPECT_EQ(e.k, kK);
  EXPECT_EQ(e.results, kK);
  EXPECT_GT(e.total_ms, 0.0);
  // The three phases are all exercised and sum to at most the total.
  EXPECT_GT(e.bound_ms, 0.0);
  EXPECT_GT(e.filter_ms, 0.0);
  EXPECT_GT(e.refine_ms, 0.0);
  EXPECT_LE(e.bound_ms + e.filter_ms + e.refine_ms, e.total_ms * 1.0001);
  EXPECT_GT(e.candidates, 0u);
  EXPECT_GT(e.nodes_visited, 0u);
}

}  // namespace
}  // namespace brep
