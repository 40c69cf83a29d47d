#include "join/dual_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "bbtree/bbtree.h"
#include "common/rng.h"
#include "core/join_bound.h"
#include "divergence/factory.h"
#include "engine/thread_pool.h"
#include "join/join_types.h"
#include "join_test_util.h"
#include "test_util.h"

namespace brep {
namespace {

using testing::AllGenerators;
using testing::ExpectJoinIdentical;
using testing::MakeDataFor;
using testing::MakeQueriesFor;
using testing::NestedLoopJoin;

BregmanDivergence MakeDiv(const std::string& generator, size_t d) {
  auto gen = ParseGenerator(generator);
  EXPECT_TRUE(gen.ok()) << generator;
  return BregmanDivergence(*std::move(gen), d);
}

// 16-point leaves give the small test sets multi-level trees, so the
// descent has node pairs to prune (at 64-point leaves the ISD case of
// VisitsStrictlyFewerNodePairsThanSingleQueries prunes none).
constexpr size_t kLeafSize = 16;
// The leaf capacity the facade joins with.
constexpr size_t kFacadeLeafSize = 64;

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

// ----------------------------------------------------------------- bounds

// The box-pair bound must never exceed any realizable pair distance: brute
// force over every (s, r) point pair of two random clouds, for every
// generator family.
TEST(JoinBoundTest, BoxPairBoundIsValidForEveryGenerator) {
  constexpr size_t kN = 40;
  constexpr size_t kD = 5;
  for (const std::string& generator : AllGenerators()) {
    const BregmanDivergence div = MakeDiv(generator, kD);
    const Matrix s = MakeDataFor(generator, kN, kD, /*seed=*/3);
    const Matrix r = MakeDataFor(generator, kN, kD, /*seed=*/17);
    const std::vector<uint32_t> ids = Iota(kN);
    const CoordBox s_box = BoxOfRows(s, ids);
    const CoordBox r_box = BoxOfRows(r, ids);
    std::vector<double> cx(kD), cy(kD);
    const double lb = BoxPairLowerBound(div, s_box, r_box, cx, cy);
    EXPECT_GE(lb, 0.0) << generator;
    double min_pair = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < kN; ++i) {
      for (size_t j = 0; j < kN; ++j) {
        min_pair = std::min(min_pair, div.Divergence(s.Row(i), r.Row(j)));
      }
    }
    EXPECT_LE(lb, min_pair) << generator;
  }
}

// Degenerate single-point boxes must reproduce the pair distance
// bit-for-bit (what makes the descent's strict prune safe at the leaves).
TEST(JoinBoundTest, SinglePointBoxesGiveExactPairDistance) {
  constexpr size_t kD = 6;
  for (const std::string& generator : AllGenerators()) {
    const BregmanDivergence div = MakeDiv(generator, kD);
    const Matrix s = MakeDataFor(generator, 8, kD, /*seed=*/5);
    const Matrix r = MakeDataFor(generator, 8, kD, /*seed=*/23);
    std::vector<double> cx(kD), cy(kD);
    for (size_t i = 0; i < s.rows(); ++i) {
      for (size_t j = 0; j < r.rows(); ++j) {
        const std::vector<uint32_t> si{static_cast<uint32_t>(i)};
        const std::vector<uint32_t> rj{static_cast<uint32_t>(j)};
        const double lb =
            BoxPairLowerBound(div, BoxOfRows(s, si), BoxOfRows(r, rj), cx, cy);
        EXPECT_EQ(lb, div.Divergence(s.Row(i), r.Row(j)))
            << generator << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

// Overlapping boxes must bound to exactly zero (a shared corner value
// zeroes every coordinate term in floating point too).
TEST(JoinBoundTest, OverlappingBoxesBoundToZero) {
  constexpr size_t kD = 4;
  for (const std::string& generator : AllGenerators()) {
    const BregmanDivergence div = MakeDiv(generator, kD);
    const Matrix pts = MakeDataFor(generator, 60, kD, /*seed=*/9);
    const std::vector<uint32_t> ids = Iota(pts.rows());
    // Same point set on both sides: fully overlapping boxes.
    const CoordBox box = BoxOfRows(pts, ids);
    std::vector<double> cx(kD), cy(kD);
    EXPECT_EQ(BoxPairLowerBound(div, box, box, cx, cy), 0.0) << generator;
  }
}

// The metric ball-pair bound: valid under squared L2, a no-op elsewhere.
TEST(JoinBoundTest, BallPairBound) {
  constexpr size_t kD = 5;
  const BregmanDivergence l2 = MakeDiv("squared_l2", kD);
  const Matrix s = MakeDataFor("squared_l2", 50, kD, /*seed=*/13);
  const Matrix r = MakeDataFor("squared_l2", 50, kD, /*seed=*/29);
  BBTreeConfig config;
  config.max_leaf_size = 64;  // single-node trees: one ball each
  const BBTree s_tree(s, l2, config);
  const BBTree r_tree(r, l2, config);
  const double lb = BallPairLowerBound(l2, s_tree.nodes()[s_tree.root()].ball,
                                       r_tree.nodes()[r_tree.root()].ball);
  EXPECT_GE(lb, 0.0);
  double min_pair = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < s.rows(); ++i) {
    for (size_t j = 0; j < r.rows(); ++j) {
      min_pair = std::min(min_pair, l2.Divergence(s.Row(i), r.Row(j)));
    }
  }
  EXPECT_LE(lb, min_pair);

  const BregmanDivergence is = MakeDiv("itakura_saito", kD);
  const Matrix p = MakeDataFor("itakura_saito", 20, kD, /*seed=*/3);
  const BBTree p_tree(p, is, config);
  EXPECT_EQ(BallPairLowerBound(is, p_tree.nodes()[p_tree.root()].ball,
                               p_tree.nodes()[p_tree.root()].ball),
            0.0)
      << "no metric structure to exploit outside the squared-L2 family";
}

// ------------------------------------------------------------- exact join

// The dual-tree join must be byte-identical to the nested-loop oracle for
// every generator family (including KL: the core is whole-space).
TEST(DualTreeJoinTest, MatchesNestedLoopOracleForEveryGenerator) {
  constexpr size_t kN = 300;
  constexpr size_t kR = 60;
  constexpr size_t kD = 6;
  constexpr size_t kK = 5;
  for (const std::string& generator : AllGenerators()) {
    const BregmanDivergence div = MakeDiv(generator, kD);
    const Matrix s = MakeDataFor(generator, kN, kD);
    const Matrix r = MakeQueriesFor(generator, s, kR);
    const std::vector<uint32_t> ids = Iota(kN);
    const JoinResult result =
        DualTreeKnnJoin(r, s, ids, div, kK, kLeafSize, /*pool=*/nullptr);
    ExpectJoinIdentical(result.neighbors, NestedLoopJoin(div, r, s, kK),
                        generator);
    EXPECT_EQ(result.stats.pairs_evaluated + /*pruned pairs evaluate 0*/ 0,
              result.stats.pairs_evaluated);
    EXPECT_GT(result.stats.node_pairs_visited, 0u) << generator;
  }
}

// Non-contiguous strictly-increasing s_ids (the live-id set after deletes)
// must flow through to the reported neighbors.
TEST(DualTreeJoinTest, ReportsProvidedIds) {
  constexpr size_t kD = 4;
  const BregmanDivergence div = MakeDiv("squared_l2", kD);
  const Matrix s = MakeDataFor("squared_l2", 100, kD);
  const Matrix r = MakeQueriesFor("squared_l2", s, 20);
  std::vector<uint32_t> ids(s.rows());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>(3 * i + 7);  // strictly increasing
  }
  const JoinResult result =
      DualTreeKnnJoin(r, s, ids, div, 3, kFacadeLeafSize, /*pool=*/nullptr);
  ExpectJoinIdentical(result.neighbors, NestedLoopJoin(div, r, s, 3, ids),
                      "remapped ids");
}

// k == |S| degenerates to a full sort; still byte-identical.
TEST(DualTreeJoinTest, KEqualsAllPoints) {
  constexpr size_t kD = 3;
  const BregmanDivergence div = MakeDiv("exponential", kD);
  const Matrix s = MakeDataFor("exponential", 40, kD);
  const Matrix r = MakeQueriesFor("exponential", s, 10);
  const std::vector<uint32_t> ids = Iota(s.rows());
  const JoinResult result =
      DualTreeKnnJoin(r, s, ids, div, s.rows(), kFacadeLeafSize,
                      /*pool=*/nullptr);
  ExpectJoinIdentical(result.neighbors,
                      NestedLoopJoin(div, r, s, s.rows()), "k == n");
}

// Self-join: every point's nearest neighbor under D(x, y) with x == y is
// itself at distance exactly 0.
TEST(DualTreeJoinTest, SelfJoinFindsSelfFirst) {
  constexpr size_t kD = 5;
  const BregmanDivergence div = MakeDiv("itakura_saito", kD);
  const Matrix s = MakeDataFor("itakura_saito", 200, kD);
  const std::vector<uint32_t> ids = Iota(s.rows());
  const JoinResult result =
      DualTreeKnnJoin(s, s, ids, div, 2, kFacadeLeafSize, /*pool=*/nullptr);
  for (size_t i = 0; i < s.rows(); ++i) {
    ASSERT_EQ(result.neighbors[i].size(), 2u);
    EXPECT_EQ(result.neighbors[i][0].id, i);
    EXPECT_EQ(result.neighbors[i][0].distance, 0.0);
  }
}

// --------------------------------------------------------- determinism

// Byte-identical results AND counters at 1/2/4 threads: the R-subtree task
// decomposition depends only on the tree, never the pool.
TEST(DualTreeJoinTest, ByteIdenticalAcrossThreadCounts) {
  constexpr size_t kN = 500;
  constexpr size_t kR = 80;
  constexpr size_t kD = 6;
  constexpr size_t kK = 7;
  for (const std::string& generator : {std::string("squared_l2"),
                                       std::string("itakura_saito")}) {
    const BregmanDivergence div = MakeDiv(generator, kD);
    const Matrix s = MakeDataFor(generator, kN, kD);
    const Matrix r = MakeQueriesFor(generator, s, kR);
    const std::vector<uint32_t> ids = Iota(kN);
    const JoinResult sequential =
        DualTreeKnnJoin(r, s, ids, div, kK, kLeafSize, /*pool=*/nullptr);
    for (const size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads - 1);  // lanes = workers + caller
      const JoinResult parallel =
          DualTreeKnnJoin(r, s, ids, div, kK, kLeafSize, &pool);
      ExpectJoinIdentical(parallel.neighbors, sequential.neighbors,
                          generator + " @" + std::to_string(threads));
      EXPECT_EQ(parallel.stats.node_pairs_visited,
                sequential.stats.node_pairs_visited)
          << generator << " @" << threads;
      EXPECT_EQ(parallel.stats.node_pairs_pruned,
                sequential.stats.node_pairs_pruned)
          << generator << " @" << threads;
      EXPECT_EQ(parallel.stats.leaf_blocks, sequential.stats.leaf_blocks)
          << generator << " @" << threads;
      EXPECT_EQ(parallel.stats.pairs_evaluated,
                sequential.stats.pairs_evaluated)
          << generator << " @" << threads;
    }
  }
}

// --------------------------------------------------- amortization proof

// The acceptance instrument: the dual-tree descent must visit strictly
// fewer node pairs than the same workload issued as N single-query
// descents visits nodes, and both must agree byte-for-byte.
TEST(DualTreeJoinTest, VisitsStrictlyFewerNodePairsThanSingleQueries) {
  constexpr size_t kN = 1000;
  constexpr size_t kR = 200;
  constexpr size_t kD = 6;
  constexpr size_t kK = 5;
  for (const std::string& generator : {std::string("squared_l2"),
                                       std::string("itakura_saito"),
                                       std::string("lp:3")}) {
    const BregmanDivergence div = MakeDiv(generator, kD);
    const Matrix s = MakeDataFor(generator, kN, kD);
    const Matrix r = MakeQueriesFor(generator, s, kR);
    const std::vector<uint32_t> ids = Iota(kN);
    const JoinResult dual =
        DualTreeKnnJoin(r, s, ids, div, kK, kLeafSize, /*pool=*/nullptr);
    const JoinResult single =
        SingleTreeKnnJoin(r, s, ids, div, kK, kLeafSize);
    ExpectJoinIdentical(dual.neighbors, single.neighbors, generator);
    EXPECT_LT(dual.stats.node_pairs_visited, single.stats.node_pairs_visited)
        << generator
        << ": the dual-tree descent must amortize bound work across nearby "
           "R points";
    EXPECT_GT(dual.stats.node_pairs_pruned, 0u) << generator;
  }
}

}  // namespace
}  // namespace brep
