/// End-to-end persistence coverage: build -> Save -> close -> Open must
/// serve byte-identical kNN and range results through QueryEngine at every
/// thread count, with zero rebuild work (no cost-model fit, no PCCP, no
/// dataset transform, no forest construction) and zero pager writes on the
/// open path; corrupted files must fail with clean errors, never crash.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/build_counters.h"
#include "core/brepartition.h"
#include "divergence/generators.h"
#include "engine/query_engine.h"
#include "storage/file_pager.h"
#include "storage/pager.h"
#include "test_util.h"

namespace brep {
namespace {

struct BuildSnapshot {
  uint64_t fit, pccp, transform, forest;
  static BuildSnapshot Take() {
    auto& c = internal::GetBuildCounters();
    return {c.fit_cost_model.load(), c.pccp.load(), c.dataset_transform.load(),
            c.forest_builds.load()};
  }
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "brep_persist_" + name;
}

class PersistenceTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 16;
  static constexpr size_t kK = 10;
  Matrix data_ = testing::MakeDataFor("itakura_saito", 600, kDim);
  Matrix queries_ = testing::MakeQueriesFor("itakura_saito", data_, 6);
  BregmanDivergence div_ = MakeDivergence("itakura_saito", kDim);

  BrePartitionConfig Config() const {
    BrePartitionConfig config;
    config.num_partitions = 4;
    return config;
  }
};

/// Byte-identical: same ids in the same order, bit-equal distances.
void ExpectIdentical(const std::vector<Neighbor>& a,
                     const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].distance, b[i].distance);  // exact, not near
  }
}

TEST_F(PersistenceTest, FileBackedReopenServesIdenticalResultsAcrossThreads) {
  const std::string path = TempPath("roundtrip.idx");

  // Build on a file-backed pager, record baseline answers, save, close.
  std::vector<std::vector<Neighbor>> baseline_knn(queries_.rows());
  std::vector<std::vector<uint32_t>> baseline_range(queries_.rows());
  std::vector<double> radii(queries_.rows());
  {
    auto pager = FilePager::Create(path, 4096);
    ASSERT_NE(pager, nullptr);
    const BrePartition built(pager.get(), data_, div_, Config());
    for (size_t q = 0; q < queries_.rows(); ++q) {
      baseline_knn[q] = testing::ExactKnn(built, queries_.Row(q), kK);
      radii[q] = baseline_knn[q].back().distance;  // guarantees >= k hits
    }
    QueryEngineOptions opt;
    opt.num_threads = 1;
    const QueryEngine engine(built, opt);
    for (size_t q = 0; q < queries_.rows(); ++q) {
      baseline_range[q] = engine.RangeSearch(queries_.Row(q), radii[q]);
      EXPECT_GE(baseline_range[q].size(), kK);
    }
    built.Save();
  }

  // Reopen: a fresh pager object, as a new process would see the file.
  std::string error;
  auto pager = FilePager::Open(path, &error);
  ASSERT_NE(pager, nullptr) << error;

  const BuildSnapshot before = BuildSnapshot::Take();
  const IoStats io_before = pager->stats();
  auto index = BrePartition::Open(pager.get(), &error);
  const BuildSnapshot after = BuildSnapshot::Take();
  ASSERT_NE(index, nullptr) << error;

  // Zero rebuild work on the open path.
  EXPECT_EQ(after.fit, before.fit);
  EXPECT_EQ(after.pccp, before.pccp);
  EXPECT_EQ(after.transform, before.transform);
  EXPECT_EQ(after.forest, before.forest);
  // ... and zero writes: only catalog pages were read.
  EXPECT_EQ((pager->stats() - io_before).writes, 0u);
  EXPECT_GT((pager->stats() - io_before).reads, 0u);

  EXPECT_FALSE(index->has_data());
  EXPECT_EQ(index->num_points(), data_.rows());
  EXPECT_EQ(index->num_partitions(), 4u);

  // Sequential path.
  for (size_t q = 0; q < queries_.rows(); ++q) {
    ExpectIdentical(testing::ExactKnn(*index, queries_.Row(q), kK),
                    baseline_knn[q]);
  }

  // Engine paths at 1/2/4 threads: single-query and batched, kNN and range.
  for (size_t threads : {1ul, 2ul, 4ul}) {
    QueryEngineOptions opt;
    opt.num_threads = threads;
    const QueryEngine engine(*index, opt);
    for (size_t q = 0; q < queries_.rows(); ++q) {
      ExpectIdentical(engine.KnnSearch(queries_.Row(q), kK), baseline_knn[q]);
      EXPECT_EQ(engine.RangeSearch(queries_.Row(q), radii[q]),
                baseline_range[q]);
    }
    const auto batch = engine.KnnSearchBatch(queries_, kK);
    ASSERT_EQ(batch.size(), queries_.rows());
    for (size_t q = 0; q < queries_.rows(); ++q) {
      ExpectIdentical(batch[q], baseline_knn[q]);
    }
  }
  std::remove(path.c_str());
}

TEST_F(PersistenceTest, MemPagerSaveOpenRoundTripsInProcess) {
  MemPager pager(4096);
  const BrePartition built(&pager, data_, div_, Config());
  built.Save();

  const BuildSnapshot before = BuildSnapshot::Take();
  std::string error;
  auto reopened = BrePartition::Open(&pager, &error);
  const BuildSnapshot after = BuildSnapshot::Take();
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(after.fit, before.fit);
  EXPECT_EQ(after.forest, before.forest);

  for (size_t q = 0; q < queries_.rows(); ++q) {
    ExpectIdentical(testing::ExactKnn(*reopened, queries_.Row(q), kK),
                    testing::ExactKnn(built, queries_.Row(q), kK));
  }
}

TEST_F(PersistenceTest, ReopenedIndexReportsSavedModelAndPartitioning) {
  MemPager pager(4096);
  const BrePartition built(&pager, data_, div_, Config());
  built.Save();
  auto reopened = BrePartition::Open(&pager);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->partitioning(), built.partitioning());
  EXPECT_EQ(reopened->cost_model().A, built.cost_model().A);
  EXPECT_EQ(reopened->cost_model().alpha, built.cost_model().alpha);
  EXPECT_EQ(reopened->cost_model().beta, built.cost_model().beta);
  EXPECT_EQ(reopened->divergence().Name(), built.divergence().Name());
  EXPECT_EQ(reopened->divergence().dim(), built.divergence().dim());
  EXPECT_EQ(reopened->transformed().num_tuples(),
            built.transformed().num_tuples());
}

TEST_F(PersistenceTest, LpDivergenceParameterRoundTripsExactly) {
  // Name() prints p with six decimals; the catalog stores the binary
  // double, so a p needing more precision must survive Save/Open exactly
  // (a truncated p would silently evaluate a different divergence against
  // ball radii built under the original one).
  const double p = 8.0 / 3.0;  // 2.666... : not representable in 6 decimals
  const BregmanDivergence div(std::make_shared<LpNormGenerator>(p), kDim);
  const Matrix data = testing::MakeDataFor("lp:3", 300, kDim);
  MemPager pager(4096);
  const BrePartition built(&pager, data, div, Config());
  built.Save();

  std::string error;
  auto reopened = BrePartition::Open(&pager, &error);
  ASSERT_NE(reopened, nullptr) << error;
  const auto* lp = dynamic_cast<const LpNormGenerator*>(
      &reopened->divergence().generator());
  ASSERT_NE(lp, nullptr);
  EXPECT_EQ(lp->p(), p);  // bit-exact, not near

  const Matrix queries = testing::MakeQueriesFor("lp:3", data, 4);
  for (size_t q = 0; q < queries.rows(); ++q) {
    ExpectIdentical(testing::ExactKnn(*reopened, queries.Row(q), kK),
                    testing::ExactKnn(built, queries.Row(q), kK));
  }
}

TEST_F(PersistenceTest, OpenWithoutSaveFailsCleanly) {
  MemPager pager(4096);
  const BrePartition built(&pager, data_, div_, Config());  // no Save()
  std::string error;
  EXPECT_EQ(BrePartition::Open(&pager, &error), nullptr);
  EXPECT_NE(error.find("no committed index catalog"), std::string::npos)
      << error;
}

TEST_F(PersistenceTest, CorruptedCatalogFailsCleanly) {
  MemPager pager(4096);
  const BrePartition built(&pager, data_, div_, Config());
  built.Save();
  // Flip bytes inside the first catalog page: the trailing checksum must
  // reject the catalog without crashing.
  const CatalogRef ref = pager.catalog();
  PageBuffer page;
  pager.Read(ref.first_page, &page);
  page[40] ^= 0xFF;
  pager.Write(ref.first_page, page);
  std::string error;
  EXPECT_EQ(BrePartition::Open(&pager, &error), nullptr);
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

TEST_F(PersistenceTest, OutOfRangeCatalogRefFailsCleanly) {
  MemPager pager(4096);
  const BrePartition built(&pager, data_, div_, Config());
  built.Save();
  CatalogRef bogus = pager.catalog();
  bogus.first_page = static_cast<PageId>(pager.num_pages());  // past the end
  pager.CommitCatalog(bogus);
  std::string error;
  EXPECT_EQ(BrePartition::Open(&pager, &error), nullptr);
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST_F(PersistenceTest, ReadOnlyIndexFileServes) {
  // An index deployed as an immutable artifact (chmod 0444) must still
  // open and serve; pure readers never write, so closing the pager must
  // not modify the file either.
  const std::string path = TempPath("readonly.idx");
  std::vector<Neighbor> expected;
  {
    auto pager = FilePager::Create(path, 4096);
    ASSERT_NE(pager, nullptr);
    const BrePartition built(pager.get(), data_, div_, Config());
    built.Save();
    expected = testing::ExactKnn(built, queries_.Row(0), kK);
  }
  ASSERT_EQ(chmod(path.c_str(), 0444), 0);

  struct stat before{};
  ASSERT_EQ(stat(path.c_str(), &before), 0);
  {
    std::string error;
    auto pager = FilePager::Open(path, &error);
    ASSERT_NE(pager, nullptr) << error;
    // root bypasses the 0444 mode bits, so the O_RDONLY fallback only
    // triggers for unprivileged users (CI); the no-write-on-close
    // guarantee below holds either way.
    if (geteuid() != 0) {
      EXPECT_TRUE(pager->read_only());
    }
    auto index = BrePartition::Open(pager.get(), &error);
    ASSERT_NE(index, nullptr) << error;
    ExpectIdentical(testing::ExactKnn(*index, queries_.Row(0), kK), expected);
  }
  struct stat after{};
  ASSERT_EQ(stat(path.c_str(), &after), 0);
  EXPECT_EQ(before.st_size, after.st_size);
  EXPECT_EQ(before.st_mtime, after.st_mtime);

  ASSERT_EQ(chmod(path.c_str(), 0644), 0);
  std::remove(path.c_str());
}

TEST_F(PersistenceTest, FileCorruptionPathsFailCleanly) {
  const std::string path = TempPath("corrupt.idx");
  {
    auto pager = FilePager::Create(path, 4096);
    ASSERT_NE(pager, nullptr);
    const BrePartition built(pager.get(), data_, div_, Config());
    built.Save();
  }

  // Superblock magic corruption.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);
    std::fclose(f);
    std::string error;
    EXPECT_EQ(FilePager::Open(path, &error), nullptr);
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
    std::FILE* g = std::fopen(path.c_str(), "r+b");
    std::fputc('B', g);  // restore
    std::fclose(g);
  }

  // Truncation below the promised page span.
  {
    std::string error;
    auto pager = FilePager::Open(path, &error);
    ASSERT_NE(pager, nullptr) << error;
    const uint64_t full =
        4096 + static_cast<uint64_t>(pager->num_pages()) * 4096;
    pager.reset();
    ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(full / 2)), 0);
    EXPECT_EQ(FilePager::Open(path, &error), nullptr);
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace brep
