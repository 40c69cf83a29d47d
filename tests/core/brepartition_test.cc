#include "core/brepartition.h"

#include <algorithm>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

/// The headline correctness sweep: (generator, strategy, k) — BrePartition
/// must return exactly the linear-scan kNN (Theorem 3).
class BrePartitionExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, PartitionStrategy, size_t>> {
 protected:
  static constexpr size_t kDim = 16;
  std::string gen_ = std::get<0>(GetParam());
  PartitionStrategy strategy_ = std::get<1>(GetParam());
  size_t k_ = std::get<2>(GetParam());
  Matrix data_ = testing::MakeDataFor(gen_, 700, kDim);
  Matrix queries_ = testing::MakeQueriesFor(gen_, data_, 10);
  BregmanDivergence div_ = MakeDivergence(gen_, kDim);
};

TEST_P(BrePartitionExactnessTest, KnnMatchesLinearScan) {
  MemPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 4;
  config.strategy = strategy_;
  config.forest.tree.max_leaf_size = 16;
  const BrePartition index(&pager, data_, div_, config);
  const LinearScan scan(data_, div_);

  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto expected = scan.KnnSearch(queries_.Row(q), k_);
    const auto got = testing::ExactKnn(index, queries_.Row(q), k_);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance,
                  1e-9 * std::max(1.0, expected[i].distance))
          << gen_ << " q=" << q << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BrePartitionExactnessTest,
    ::testing::Combine(
        ::testing::Values("squared_l2", "itakura_saito", "exponential",
                          "lp:3"),
        ::testing::Values(PartitionStrategy::kPccp,
                          PartitionStrategy::kEqualContiguous,
                          PartitionStrategy::kRandom),
        ::testing::Values(1, 10, 50)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      switch (std::get<1>(info.param)) {
        case PartitionStrategy::kPccp:
          name += "_pccp";
          break;
        case PartitionStrategy::kEqualContiguous:
          name += "_contig";
          break;
        case PartitionStrategy::kRandom:
          name += "_random";
          break;
      }
      return name + "_k" + std::to_string(std::get<2>(info.param));
    });

class BrePartitionTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 12;
  Matrix data_ = testing::MakeDataFor("squared_l2", 600, kDim);
  Matrix queries_ = testing::MakeQueriesFor("squared_l2", data_, 5);
  BregmanDivergence div_ = MakeDivergence("squared_l2", kDim);
};

TEST_F(BrePartitionTest, DerivedMIsUsedWhenUnpinned) {
  MemPager pager(4096);
  BrePartitionConfig config;  // num_partitions = 0 -> Theorem 4
  const BrePartition index(&pager, data_, div_, config);
  EXPECT_GE(index.num_partitions(), 1u);
  EXPECT_LE(index.num_partitions(), kDim);
  EXPECT_LT(index.cost_model().alpha, 1.0);
  // Still exact with the derived M.
  const LinearScan scan(data_, div_);
  const auto expected = scan.KnnSearch(queries_.Row(0), 10);
  const auto got = testing::ExactKnn(index, queries_.Row(0), 10);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9);
  }
}

TEST_F(BrePartitionTest, StatsArePopulated) {
  MemPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 3;
  const BrePartition index(&pager, data_, div_, config);
  QueryStats stats;
  testing::ExactKnn(index, queries_.Row(0), 10, &stats);
  EXPECT_GT(stats.io_reads, 0u);
  EXPECT_GE(stats.candidates, 10u);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.radius_total, 0.0);
  EXPECT_GE(stats.total_ms, 0.0);
  EXPECT_DOUBLE_EQ(stats.approx_coefficient, 1.0);
}

TEST_F(BrePartitionTest, CandidatesPrunedBelowFullScan) {
  // Pruning effectiveness needs a divergence/data pairing with a tight
  // Cauchy bound (comparable per-point magnitudes): the Fonts-like /
  // Itakura-Saito pairing of the paper.
  Rng rng(31);
  const Matrix data = MakeFontsLike(rng, 1500, 32);
  const BregmanDivergence div = MakeDivergence("itakura_saito", 32);
  Rng qrng(32);
  const Matrix queries = MakeQueries(qrng, data, 5, 0.1, true);

  MemPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 4;
  const BrePartition index(&pager, data, div, config);
  for (size_t q = 0; q < queries.rows(); ++q) {
    QueryStats stats;
    testing::ExactKnn(index, queries.Row(q), 10, &stats);
    EXPECT_LT(stats.candidates, data.rows() / 2);
  }
}

TEST_F(BrePartitionTest, FontsLikeItakuraSaitoMatchesLinearScan) {
  // The paper's Fonts-like / Itakura-Saito pairing at d = 32 with the
  // default 64-point leaves: the exact range filter plus the refine must
  // return the linear-scan kNN.
  Rng rng(3);
  const Matrix data = MakeFontsLike(rng, 1200, 32);
  const BregmanDivergence div = MakeDivergence("itakura_saito", 32);
  Rng qrng(4);
  const Matrix queries = MakeQueries(qrng, data, 8, 0.1, true);

  MemPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 4;
  const BrePartition index(&pager, data, div, config);
  const LinearScan scan(data, div);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto expected = scan.KnnSearch(queries.Row(q), 10);
    const auto got = testing::ExactKnn(index, queries.Row(q), 10);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance,
                  1e-9 * std::max(1.0, expected[i].distance))
          << "q=" << q << " i=" << i;
    }
  }
}

TEST_F(BrePartitionTest, PartitioningIsValidAndSized) {
  MemPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 5;
  const BrePartition index(&pager, data_, div_, config);
  EXPECT_EQ(index.num_partitions(), 5u);
  EXPECT_TRUE(IsValidPartitioning(index.partitioning(), kDim));
}

TEST_F(BrePartitionTest, WeightedMahalanobisIsExactToo) {
  std::vector<double> weights(kDim);
  for (size_t j = 0; j < kDim; ++j) weights[j] = 0.5 + double(j);
  const BregmanDivergence maha = MakeDiagonalMahalanobis(weights);
  MemPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 3;
  const BrePartition index(&pager, data_, maha, config);
  const LinearScan scan(data_, maha);
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto expected = scan.KnnSearch(queries_.Row(q), 5);
    const auto got = testing::ExactKnn(index, queries_.Row(q), 5);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance,
                  1e-9 * std::max(1.0, expected[i].distance));
    }
  }
}

TEST_F(BrePartitionTest, KEqualsNReturnsEverything) {
  const Matrix small = data_.Truncated(40);
  MemPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 2;
  const BrePartition index(&pager, small, div_, config);
  const auto got = testing::ExactKnn(index, queries_.Row(0), 40);
  EXPECT_EQ(got.size(), 40u);
}

TEST(BrePartitionDeathTest, RejectsKLDivergence) {
  const Matrix data = testing::MakeDataFor("kl", 50, 8);
  const BregmanDivergence div = MakeDivergence("kl", 8);
  MemPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 2;
  EXPECT_DEATH(BrePartition(&pager, data, div, config), "not cumulative");
}

/// Write-count spy: records the order of page writes vs catalog commits,
/// so a test can prove where the commit points sit in the Save protocol.
class SpyPager final : public MemPager {
 public:
  explicit SpyPager(size_t page_size) : MemPager(page_size) {}

  void CommitCatalog(const CatalogRef& ref) override {
    commits_.push_back(writes_);  // writes seen when this commit happened
    MemPager::CommitCatalog(ref);
  }

  uint64_t writes() const { return writes_; }
  const std::vector<uint64_t>& commits() const { return commits_; }

 protected:
  void DoWrite(PageId id, std::span<const uint8_t> data) override {
    ++writes_;
    MemPager::DoWrite(id, data);
  }

 private:
  uint64_t writes_ = 0;
  std::vector<uint64_t> commits_;
};

TEST_F(BrePartitionTest, SaveCommitsExactlyOnceAfterAllCatalogWrites) {
  SpyPager pager(4096);
  BrePartitionConfig config;
  config.num_partitions = 3;
  BrePartition index(&pager, data_, div_, config);

  // Save: every catalog page write lands BEFORE the single commit (the
  // durability point), and freeing the previous run happens after it --
  // on a FilePager each commit is a real fsync (see
  // FilePagerTest.EveryCommitPointReachesTheDisk), so this ordering is
  // what makes a crash mid-save keep the previous committed state.
  const uint64_t writes_before = pager.writes();
  index.Save(/*durable_lsn=*/7);
  ASSERT_EQ(pager.commits().size(), 1u);
  EXPECT_GT(pager.commits()[0], writes_before) << "commit before any write";
  EXPECT_EQ(pager.catalog().durable_lsn, 7u);
  const CatalogRef first_ref = pager.catalog();

  // A second Save writes a fresh run, commits again (exactly once), and
  // only then releases the old run back to the free-list.
  index.Save(/*durable_lsn=*/9);
  ASSERT_EQ(pager.commits().size(), 2u);
  EXPECT_GT(pager.commits()[1], pager.commits()[0]);
  EXPECT_EQ(pager.catalog().durable_lsn, 9u);
  EXPECT_GE(pager.num_free_pages(), first_ref.num_pages);
  index.DebugCheckInvariants();
}

}  // namespace
}  // namespace brep
