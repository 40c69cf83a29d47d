/// The seeded searching bound (README, "Searching bound: exact seeds"):
/// a kNN query's radii come from the k-th of its exactly evaluated seeds,
/// the k points with the lowest Algorithm 4 totals plus tree 0's nearest
/// leaves (QueryEngine::SelectSeeds). These tests pin its edge cases -- a
/// k-th seed distance of 0, ties across the seed boundary, fewer live
/// points than seeds, deleted and unbounded rows, a tree 0 that sees only
/// noise -- against the linear-scan oracle, bit for bit.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/index.h"
#include "core/bound.h"
#include "shard/sharded_index.h"
#include "test_util.h"
#include "update/update_test_util.h"

namespace brep {
namespace {

using testing::LinearScanOracle;

constexpr size_t kSeedsPerK = QueryEngine::kSeedsPerK;

/// Same ids in the same order and bit-equal distances.
void ExpectIdentical(const std::vector<Neighbor>& got,
                     const std::vector<Neighbor>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].distance),
              std::bit_cast<uint64_t>(want[i].distance))
        << what << " rank " << i << ": " << got[i].distance << " vs "
        << want[i].distance;
  }
}

LinearScanOracle OracleOver(const Matrix& data, const std::string& generator) {
  LinearScanOracle oracle(MakeDivergence(generator, data.cols()));
  for (size_t i = 0; i < data.rows(); ++i) {
    oracle.Insert(static_cast<uint32_t>(i), data.Row(i));
  }
  return oracle;
}

Index BuildIndex(const Matrix& data, const std::string& generator,
                 size_t partitions) {
  auto built = IndexBuilder(generator)
                   .Partitions(partitions)
                   .MaxLeafSize(16)
                   .PageSize(2048)
                   .Seed(5)
                   .Build(data);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return *std::move(built);
}

/// The rows `rows` of `data`, then `copies` copies of row `dup`.
Matrix WithCopies(const Matrix& data, size_t rows, size_t dup, size_t copies) {
  Matrix out(rows + copies, data.cols());
  for (size_t i = 0; i < rows + copies; ++i) {
    const auto src = data.Row(i < rows ? i : dup);
    std::copy(src.begin(), src.end(), out.MutableRow(i).begin());
  }
  return out;
}

/// The ids the bound phase seeds for (y, k): the engine's own selection.
std::vector<uint32_t> SeedsOf(const BrePartition& bp, std::span<const double> y,
                              size_t k) {
  const BrePartition::ReadView view = bp.OpenReadView();
  const auto y_subs = bp.GatherQuery(y);
  WorkCounters work;
  return QueryEngine::SelectSeeds(view, y_subs, bp.TransformQueryAll(y_subs),
                                  k, &work);
}

/// The k points with the smallest (upper-bound total, id), ascending by
/// id, recomputed here from the tuple table (every row is live in the
/// indexes this is used on): the seeds that keep the seeded radius total
/// at or below Algorithm 4's.
std::vector<uint32_t> LowestTotals(const BrePartition& bp,
                                   std::span<const double> y, size_t k) {
  const BrePartition::ReadView view = bp.OpenReadView();
  QBScratch scratch;
  UBTotals(view.transformed(), bp.TransformQueryAll(bp.GatherQuery(y)),
           /*record_ub=*/false, &scratch);
  std::vector<uint32_t> ids(view.transformed().num_points());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    const double ta = scratch.totals[a];
    const double tb = scratch.totals[b];
    return ta != tb ? ta < tb : a < b;
  });
  ids.resize(std::min(ids.size(), k));
  std::sort(ids.begin(), ids.end());
  return ids;
}

class ExactSeedsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ExactSeedsTest, OracleIdenticalAtOneAndFourThreadsAndOnTwoShards) {
  const std::string generator = GetParam();
  const Matrix data = testing::MakeDataFor(generator, 900, 16);
  const Matrix queries = testing::MakeQueriesFor(generator, data, 10);
  const LinearScanOracle oracle = OracleOver(data, generator);
  const Index index = BuildIndex(data, generator, 4);
  auto parallel = index.Parallel(4);
  ASSERT_TRUE(parallel.ok());

  ShardedIndexOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.threads = 2;
  sharded_options.shard.config.num_partitions = 3;
  sharded_options.shard.config.forest.tree.max_leaf_size = 16;
  sharded_options.shard.page_size = 2048;
  auto sharded = ShardedIndex::Build(data, generator, sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();

  for (size_t k : {1ul, 7ul, 40ul}) {
    const auto batch = parallel->KnnBatch(queries, k);
    ASSERT_TRUE(batch.ok());
    for (size_t q = 0; q < queries.rows(); ++q) {
      const std::string what =
          generator + " k=" + std::to_string(k) + " q=" + std::to_string(q);
      const auto want = oracle.Knn(queries.Row(q), k);
      ExpectIdentical(*index.Knn(queries.Row(q), k), want, what + " 1 thread");
      ExpectIdentical(*parallel->Knn(queries.Row(q), k), want,
                      what + " 4 threads, fanned out");
      ExpectIdentical((*batch)[q], want, what + " 4 threads, batch");
      ExpectIdentical(*(*sharded)->Knn(queries.Row(q), k), want,
                      what + " 2 shards");
    }
  }
}

TEST_P(ExactSeedsTest, RadiusTotalNeverExceedsAlgorithm4s) {
  const std::string generator = GetParam();
  const Matrix data = testing::MakeDataFor(generator, 900, 16);
  const Matrix queries = testing::MakeQueriesFor(generator, data, 16);
  const Index index = BuildIndex(data, generator, 4);
  for (size_t k : {1ul, 10ul, 50ul}) {
    for (size_t q = 0; q < queries.rows(); ++q) {
      SearchIndex::Stats stats;
      ASSERT_TRUE(index.Knn(queries.Row(q), k, &stats).ok());
      const double alg4 =
          testing::Algorithm4Total(index.impl(), queries.Row(q), k);
      EXPECT_LE(stats.radius_total, alg4 * (1.0 + 0x1p-40))
          << generator << " k=" << k << " q=" << q;
      EXPECT_GT(stats.radius_total, 0.0);
      // Every seed is evaluated exactly and counted as a candidate.
      const size_t seeds = SeedsOf(index.impl(), queries.Row(q), k).size();
      EXPECT_GE(seeds, k);
      EXPECT_GE(stats.exact_evals, seeds);
      EXPECT_GE(stats.candidates, seeds);
    }
  }
}

TEST_P(ExactSeedsTest, NoiseInTreeZerosColumnsKeepsTheAlgorithm4Bound) {
  // Tree 0 indexes the first d/M columns, which here are noise that neither
  // the data's clusters nor the queries share: its nearest leaves are
  // poor seeds. The lowest-total seeds still hold the radius total to
  // Algorithm 4's, and the answers stay exact.
  const std::string generator = GetParam();
  constexpr size_t kDim = 16;
  constexpr size_t kParts = 4;
  const bool positive = generator == "itakura_saito";
  Matrix data = testing::MakeDataFor(generator, 900, kDim);
  Matrix queries = testing::MakeQueriesFor(generator, data, 12);
  Rng rng(41);
  for (Matrix* m : {&data, &queries}) {
    for (size_t i = 0; i < m->rows(); ++i) {
      auto row = m->MutableRow(i);
      for (size_t j = 0; j < kDim / kParts; ++j) {
        row[j] = positive ? rng.Uniform(0.05, 6.0) : rng.Uniform(-4.0, 4.0);
      }
    }
  }
  auto built = IndexBuilder(generator)
                   .Partitions(kParts)
                   .Strategy(PartitionStrategy::kEqualContiguous)
                   .MaxLeafSize(16)
                   .PageSize(2048)
                   .Seed(5)
                   .Build(data);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const LinearScanOracle oracle = OracleOver(data, generator);
  for (size_t k : {1ul, 10ul, 50ul}) {
    for (size_t q = 0; q < queries.rows(); ++q) {
      const std::string what =
          generator + " k=" + std::to_string(k) + " q=" + std::to_string(q);
      const auto y = queries.Row(q);
      SearchIndex::Stats stats;
      const auto got = built->Knn(y, k, &stats);
      ASSERT_TRUE(got.ok()) << what;
      ExpectIdentical(*got, oracle.Knn(y, k), what);
      EXPECT_LE(stats.radius_total,
                testing::Algorithm4Total(built->impl(), y, k) *
                    (1.0 + 0x1p-40))
          << what;
      const std::vector<uint32_t> seeds = SeedsOf(built->impl(), y, k);
      const std::vector<uint32_t> lowest = LowestTotals(built->impl(), y, k);
      EXPECT_TRUE(std::includes(seeds.begin(), seeds.end(), lowest.begin(),
                                lowest.end()))
          << what;
    }
  }
}

TEST_P(ExactSeedsTest, RowCopiedPastTheSeedCountHasKthSeedDistanceZero) {
  // Query at a row copied more than kSeedsPerK * k times: the k nearest
  // are copies at distance 0, so the radii are the margin alone.
  const std::string generator = GetParam();
  constexpr size_t kK = 5;
  const Matrix base = testing::MakeDataFor(generator, 600, 12);
  const size_t copies = kSeedsPerK * kK + 7;
  const Matrix data = WithCopies(base, 600, 123, copies);
  const LinearScanOracle oracle = OracleOver(data, generator);
  const Index index = BuildIndex(data, generator, 3);

  const auto y = data.Row(123);
  SearchIndex::Stats stats;
  const auto got = index.Knn(y, kK, &stats);
  ASSERT_TRUE(got.ok());
  ExpectIdentical(*got, oracle.Knn(y, kK), generator);
  for (const Neighbor& n : *got) EXPECT_EQ(n.distance, 0.0);
  EXPECT_GT(stats.radius_total, 0.0);
  EXPECT_LE(stats.radius_total,
            testing::Algorithm4Total(index.impl(), y, kK) * (1.0 + 0x1p-40));

  // k = every copy and the original: the k-th distance is still 0.
  const size_t all = copies + 1;
  ExpectIdentical(*index.Knn(y, all), oracle.Knn(y, all),
                  generator + " k=all copies");
}

INSTANTIATE_TEST_SUITE_P(
    Generators, ExactSeedsTest,
    ::testing::ValuesIn(testing::PartitionSafeGenerators()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return testing::GeneratorTestName(info.param);
    });

TEST(ExactSeedsEdgeTest, KlNeverReachesTheSeededBound) {
  // KL is not partition-safe, so no BrePartition index serves it; the
  // oracle comparisons above cover every generator that does.
  const Matrix data = testing::MakeDataFor("kl", 200, 8);
  EXPECT_FALSE(IndexBuilder("kl").Partitions(2).Build(data).ok());
}

/// Squared L2's upper bound, sum_m (||x_m|| + ||y_m||)^2, ignores direction:
/// `decoys` points near the origin outrank (by upper bound) 30 copies of a
/// row next to the query, although the copies are far nearer, so the k
/// lowest-total seeds are the decoys and then the copies with the lowest
/// ids. Tree 0's nearest leaf is taken by points that match the query in
/// tree 0's columns but are far off in tree 1's, more of them than the
/// tree-0 seed count. So the seeds hold k - decoys copies and miss the
/// rest, and the copies' tie at the k-th distance straddles the seed
/// boundary.
void CheckTieAcrossTheSeedBoundary(size_t decoys) {
  constexpr size_t kK = 5;
  constexpr size_t kDim = 8;
  constexpr size_t kCopies = 30;
  constexpr size_t kFar = 300;
  constexpr size_t kTreeZeroDecoys = kSeedsPerK * kK + 4;
  ASSERT_LT(decoys, kK);
  Rng rng(17);
  Matrix data(kFar + decoys + kCopies + kTreeZeroDecoys, kDim);
  std::vector<double> row(kDim);
  for (double& v : row) v = rng.Uniform(1.8, 2.2);
  std::vector<double> y(row);
  y[0] += 0.05;
  // Interleave the four groups so the copies' ids are spread out.
  std::vector<size_t> group;
  group.insert(group.end(), kFar, 0);
  group.insert(group.end(), decoys, 1);
  group.insert(group.end(), kCopies, 2);
  group.insert(group.end(), kTreeZeroDecoys, 3);
  rng.Shuffle(&group);
  std::vector<uint32_t> copy_ids;
  for (size_t i = 0; i < group.size(); ++i) {
    auto out = data.MutableRow(i);
    for (size_t j = 0; j < kDim; ++j) {
      switch (group[i]) {
        case 0: out[j] = rng.Uniform(4.0, 6.0); break;
        case 1: out[j] = rng.Uniform(-0.01, 0.01); break;
        case 2: out[j] = row[j]; break;
        default: out[j] = j < kDim / 2 ? y[j] : 5.0;
      }
    }
    if (group[i] == 2) copy_ids.push_back(static_cast<uint32_t>(i));
  }
  const LinearScanOracle oracle = OracleOver(data, "squared_l2");
  auto built = IndexBuilder("squared_l2")
                   .Partitions(2)
                   .Strategy(PartitionStrategy::kEqualContiguous)
                   .MaxLeafSize(16)
                   .PageSize(2048)
                   .Seed(5)
                   .Build(data);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Index& index = *built;

  // The precondition: seeds hold some copies and miss others.
  const std::vector<uint32_t> seeds = SeedsOf(index.impl(), y, kK);
  size_t seeded_copies = 0;
  for (uint32_t id : copy_ids) {
    seeded_copies += std::binary_search(seeds.begin(), seeds.end(), id);
  }
  ASSERT_EQ(seeded_copies, kK - decoys);

  const auto want = oracle.Knn(y, kK);
  for (const Neighbor& n : want) EXPECT_EQ(n.distance, want[0].distance);
  ExpectIdentical(*index.Knn(y, kK), want,
                  "decoys=" + std::to_string(decoys));
  auto parallel = index.Parallel(4);
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(*parallel->Knn(y, kK), want,
                  "decoys=" + std::to_string(decoys) + " 4 threads");
  // Every copy, at the tied distance, in id order.
  ExpectIdentical(*index.Knn(y, kCopies), oracle.Knn(y, kCopies),
                  "decoys=" + std::to_string(decoys) + " k=copies");
}

TEST(ExactSeedsEdgeTest, TieAtTheKthPlaceStraddlesTheSeedBoundary) {
  // Two copies are seeds: p* is a decoy and the answer needs three
  // copies the seeds missed.
  CheckTieAcrossTheSeedBoundary(3);
  // Five copies are seeds: p* is a copy, and 25 unseeded copies sit at
  // exactly its distance.
  CheckTieAcrossTheSeedBoundary(0);
}

TEST_P(ExactSeedsTest, DistancesEqualUpToRoundingStayOracleIdentical) {
  // Every row permutes the coordinates of one base row within each
  // contiguous subspace, and the query is constant within each subspace:
  // every row sums the same per-coordinate terms, in another order. All
  // distances then agree up to rounding, so the top-k and every tree's
  // comparison with its radius are decided by the last bits.
  const std::string generator = GetParam();
  constexpr size_t kDim = 16;
  constexpr size_t kParts = 4;
  constexpr size_t kBlock = kDim / kParts;
  const bool positive = generator == "itakura_saito";
  Rng rng(29);
  std::vector<double> base(kDim);
  for (double& v : base) {
    v = positive ? rng.Uniform(0.3, 3.0) : rng.Uniform(-1.5, 1.5);
  }
  Matrix data(700, kDim);
  std::vector<size_t> perm(kBlock);
  for (size_t i = 0; i < data.rows(); ++i) {
    auto row = data.MutableRow(i);
    for (size_t b = 0; b < kParts; ++b) {
      for (size_t j = 0; j < kBlock; ++j) perm[j] = j;
      rng.Shuffle(&perm);
      for (size_t j = 0; j < kBlock; ++j) {
        row[b * kBlock + j] = base[b * kBlock + perm[j]];
      }
    }
  }
  auto built = IndexBuilder(generator)
                   .Partitions(kParts)
                   .Strategy(PartitionStrategy::kEqualContiguous)
                   .MaxLeafSize(16)
                   .PageSize(2048)
                   .Build(data);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const LinearScanOracle oracle = OracleOver(data, generator);
  for (size_t q = 0; q < 8; ++q) {
    std::vector<double> y(kDim);
    for (size_t b = 0; b < kParts; ++b) {
      const double c =
          positive ? rng.Uniform(0.5, 2.0) : rng.Uniform(-1.0, 1.0);
      std::fill_n(y.begin() + ptrdiff_t(b * kBlock), kBlock, c);
    }
    for (size_t k : {3ul, 20ul}) {
      ExpectIdentical(*built->Knn(y, k), oracle.Knn(y, k),
                      generator + " q=" + std::to_string(q) +
                          " k=" + std::to_string(k));
    }
  }
}

TEST(ExactSeedsEdgeTest, MarginKeepsARowThatRoundsAboveInEverySubspace) {
  // Squared L2 at y = 0: each coordinate's term is x_j^2, summed in
  // order. A subspace holds one term 1 and eight terms of ~0.6 ulp(1).
  // Summed big-first they round up to 1 + 8 ulp; small-first to 1 + 5 ulp.
  // Row x is big-first in both subspaces, row p small-first, so x is
  // larger than p in every subspace -- by more than the one-ulp round-up
  // of the radii -- yet smaller over the whole space, where x's second
  // block of small terms is absorbed. p outranks x by upper bound (here
  // the subspace sums themselves), so p is the k = 1 lowest-total seed;
  // with leaves of at most four points, p's four copies split off x into
  // tree 0's nearest leaf, so they are all the seeds and p* = p. Only the
  // margin keeps x, the true nearest.
  constexpr size_t kBlock = 9;
  constexpr size_t kDim = 2 * kBlock;
  const double big = 1.0;
  const double small = std::sqrt(0.6) * 0x1p-26;  // small^2 ~ 0.6 ulp(1)
  std::vector<double> x_row, p_row;
  for (size_t b = 0; b < 2; ++b) {
    x_row.push_back(big);
    for (size_t j = 1; j < kBlock; ++j) x_row.push_back(small);
    for (size_t j = 1; j < kBlock; ++j) p_row.push_back(small);
    p_row.push_back(big);
  }
  Matrix data(40, kDim);
  for (size_t i = 0; i < data.rows(); ++i) {
    auto row = data.MutableRow(i);
    if (i < 4) {
      std::copy(p_row.begin(), p_row.end(), row.begin());
    } else if (i == 4) {
      std::copy(x_row.begin(), x_row.end(), row.begin());
    } else {
      for (size_t j = 0; j < kDim; ++j) row[j] = 2.0 + 0.01 * double(i + j);
    }
  }
  const std::vector<double> y(kDim, 0.0);

  // The preconditions, on the library's own expressions.
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  ASSERT_LT(div.Divergence(x_row, y), div.Divergence(p_row, y));
  for (size_t b = 0; b < 2; ++b) {
    std::vector<size_t> cols(kBlock);
    for (size_t j = 0; j < kBlock; ++j) cols[j] = b * kBlock + j;
    const BregmanDivergence sub = div.Restrict(cols);
    const std::span<const double> xs(x_row.data() + b * kBlock, kBlock);
    const std::span<const double> ps(p_row.data() + b * kBlock, kBlock);
    const std::span<const double> ys(y.data(), kBlock);
    ASSERT_GT(sub.Divergence(xs, ys),
              std::nextafter(sub.Divergence(ps, ys), 2.0));
  }

  auto built = IndexBuilder("squared_l2")
                   .Partitions(2)
                   .Strategy(PartitionStrategy::kEqualContiguous)
                   .MaxLeafSize(4)
                   .PageSize(2048)
                   .Build(data);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(SeedsOf(built->impl(), y, 1),
            (std::vector<uint32_t>{0, 1, 2, 3}));
  const LinearScanOracle oracle = OracleOver(data, "squared_l2");
  ASSERT_EQ(oracle.Knn(y, 1)[0].id, 4u);
  for (size_t k : {1ul, 2ul, 5ul}) {
    ExpectIdentical(*built->Knn(y, k), oracle.Knn(y, k),
                    "k=" + std::to_string(k));
  }
}

TEST(ExactSeedsEdgeTest, FewerLivePointsThanSeedsOnAFileIndex) {
  // Deletes leave fewer live points than kSeedsPerK * k, on a reopened
  // file index (FilePager), and k reaches the live count. Deleted rows
  // hold +inf totals and must never be fetched (PointStore::FetchMany
  // aborts on them); a live point whose coordinates overflow sum x^2 has
  // a +inf total too and must still be found.
  const std::string path = ::testing::TempDir() + "brep_exact_seeds.idx";
  const std::string generator = "itakura_saito";
  const Matrix data = testing::MakeDataFor(generator, 160, 8);
  const Matrix queries = testing::MakeQueriesFor(generator, data, 6);
  LinearScanOracle oracle = OracleOver(data, generator);
  {
    const Index built = BuildIndex(data, generator, 2);
    ASSERT_TRUE(built.Save(path).ok());
  }

  const auto check = [&](const Index& index, const std::string& what) {
    const size_t live = oracle.size();
    ASSERT_EQ(index.num_points(), live);
    for (size_t k : {1ul, 5ul, 6ul, live}) {
      for (size_t q = 0; q < queries.rows(); ++q) {
        ExpectIdentical(*index.Knn(queries.Row(q), k),
                        oracle.Knn(queries.Row(q), k),
                        what + " k=" + std::to_string(k) + " q=" +
                            std::to_string(q));
      }
    }
  };

  {
    auto index = Index::Open(path);
    ASSERT_TRUE(index.ok()) << index.status().message();
    for (uint32_t id = 0; id < 140; ++id) {
      ASSERT_TRUE(index->Delete(id).ok());
      oracle.Delete(id);
    }
    check(*index, "after deletes");  // 20 live < kSeedsPerK * 6
    ASSERT_TRUE(index->Save(path).ok());
  }
  {
    // Reopened: the tuple table's maxima come from the live rows only.
    auto index = Index::Open(path);
    ASSERT_TRUE(index.ok()) << index.status().message();
    check(*index, "reopened");

    std::vector<double> huge(data.Row(150).begin(), data.Row(150).end());
    for (double& v : huge) v *= 1e200;
    const auto huge_id = index->Insert(huge);
    ASSERT_TRUE(huge_id.ok()) << huge_id.status().message();
    oracle.Insert(*huge_id, huge);
    check(*index, "with an unbounded live point");

    ASSERT_TRUE(index->Delete(*huge_id).ok());
    oracle.Delete(*huge_id);
    for (size_t i = 0; i < 3; ++i) {
      const auto id = index->Insert(queries.Row(i));
      ASSERT_TRUE(id.ok());
      oracle.Insert(*id, queries.Row(i));
    }
    check(*index, "after reuse");
    index->impl().DebugCheckInvariants();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace brep
