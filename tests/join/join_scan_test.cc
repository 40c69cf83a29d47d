#include "join/scan_join.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

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

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

// The scan must be byte-identical to the nested-loop oracle for every
// generator family (including KL: the core is whole-space), and it
// evaluates every pair.
TEST(ScanJoinTest, MatchesNestedLoopOracleForEveryGenerator) {
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
        ScanKnnJoin(r, s, ids, div, kK, /*pool=*/nullptr);
    ExpectJoinIdentical(result.neighbors, NestedLoopJoin(div, r, s, kK),
                        generator);
    EXPECT_EQ(result.stats.pairs_evaluated, kR * kN) << generator;
  }
}

// Non-contiguous strictly-increasing s_ids (the live-id set after deletes)
// must flow through to the reported neighbors.
TEST(ScanJoinTest, ReportsProvidedIds) {
  constexpr size_t kD = 4;
  const BregmanDivergence div = MakeDiv("squared_l2", kD);
  const Matrix s = MakeDataFor("squared_l2", 100, kD);
  const Matrix r = MakeQueriesFor("squared_l2", s, 20);
  std::vector<uint32_t> ids(s.rows());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>(3 * i + 7);  // strictly increasing
  }
  const JoinResult result = ScanKnnJoin(r, s, ids, div, 3, /*pool=*/nullptr);
  ExpectJoinIdentical(result.neighbors, NestedLoopJoin(div, r, s, 3, ids),
                      "remapped ids");
}

// k == |S| degenerates to a full sort; still byte-identical.
TEST(ScanJoinTest, KEqualsAllPoints) {
  constexpr size_t kD = 3;
  const BregmanDivergence div = MakeDiv("exponential", kD);
  const Matrix s = MakeDataFor("exponential", 40, kD);
  const Matrix r = MakeQueriesFor("exponential", s, 10);
  const std::vector<uint32_t> ids = Iota(s.rows());
  const JoinResult result =
      ScanKnnJoin(r, s, ids, div, s.rows(), /*pool=*/nullptr);
  ExpectJoinIdentical(result.neighbors,
                      NestedLoopJoin(div, r, s, s.rows()), "k == n");
}

// Self-join: every point's nearest neighbor under D(x, y) with x == y is
// itself at distance exactly 0.
TEST(ScanJoinTest, SelfJoinFindsSelfFirst) {
  constexpr size_t kD = 5;
  const BregmanDivergence div = MakeDiv("itakura_saito", kD);
  const Matrix s = MakeDataFor("itakura_saito", 200, kD);
  const std::vector<uint32_t> ids = Iota(s.rows());
  const JoinResult result = ScanKnnJoin(s, s, ids, div, 2, /*pool=*/nullptr);
  for (size_t i = 0; i < s.rows(); ++i) {
    ASSERT_EQ(result.neighbors[i].size(), 2u);
    EXPECT_EQ(result.neighbors[i][0].id, i);
    EXPECT_EQ(result.neighbors[i][0].distance, 0.0);
  }
}

// Byte-identical results AND counters at 1/2/4 threads: the row-range
// decomposition depends only on |R|, never on the pool.
TEST(ScanJoinTest, ByteIdenticalAcrossThreadCounts) {
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
        ScanKnnJoin(r, s, ids, div, kK, /*pool=*/nullptr);
    for (const size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads - 1);  // lanes = workers + caller
      const JoinResult parallel = ScanKnnJoin(r, s, ids, div, kK, &pool);
      ExpectJoinIdentical(parallel.neighbors, sequential.neighbors,
                          generator + " @" + std::to_string(threads));
      EXPECT_EQ(parallel.stats.leaf_blocks, sequential.stats.leaf_blocks)
          << generator << " @" << threads;
      EXPECT_EQ(parallel.stats.pairs_evaluated,
                sequential.stats.pairs_evaluated)
          << generator << " @" << threads;
    }
  }
}

}  // namespace
}  // namespace brep
