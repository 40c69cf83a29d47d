/// Facade error paths and facade/implementation parity: every user mistake
/// surfaces as a typed Status (never an abort), and facade results are
/// byte-identical to the implementation layer at every thread count.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/index.h"
#include "api/search_index.h"
#include "core/brepartition.h"
#include "divergence/factory.h"
#include "storage/pager.h"
#include "test_util.h"

namespace brep {
namespace {

using ::brep::testing::MakeDataFor;
using ::brep::testing::MakeQueriesFor;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class ApiTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 16;
  static constexpr size_t kN = 600;
  Matrix data_ = MakeDataFor("squared_l2", kN, kDim);
  Matrix queries_ = MakeQueriesFor("squared_l2", data_, 6);
};

// ---------------------------------------------------------------- build

TEST_F(ApiTest, BuildRejectsEmptyData) {
  const Matrix empty;
  const auto built = Index::Build(empty, "squared_l2");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(built.status().message(), "zero rows"));
}

TEST_F(ApiTest, BuildRejectsUnknownGenerator) {
  const auto built = Index::Build(data_, "frobnicate");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  // The message teaches the accepted spellings.
  EXPECT_TRUE(Contains(built.status().message(), "frobnicate"));
  EXPECT_TRUE(Contains(built.status().message(), "squared_l2"));
  EXPECT_TRUE(Contains(built.status().message(), "itakura_saito"));
}

TEST_F(ApiTest, GeneratorFactoryVariantsAgree) {
  // ParseGenerator is the source of truth; MakeGenerator (aborting) and
  // TryMakeGenerator (nullptr-on-error) delegate to it.
  ASSERT_TRUE(ParseGenerator("itakura_saito").ok());
  EXPECT_NE(TryMakeGenerator("itakura_saito"), nullptr);
  EXPECT_NE(TryMakeGenerator("lp:3"), nullptr);

  const auto bad = ParseGenerator("lp:0.5");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(bad.status().message(), "p > 1"));
  EXPECT_EQ(TryMakeGenerator("lp:0.5"), nullptr);
  EXPECT_EQ(TryMakeGenerator("frobnicate"), nullptr);
}

TEST_F(ApiTest, BuildRejectsKlDivergence) {
  const auto built = Index::Build(data_, "kl");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(built.status().message(), "partition"));
}

TEST_F(ApiTest, BuildRejectsInvalidConfig) {
  {
    IndexOptions options;
    options.config.num_partitions = kDim + 1;
    const auto built = Index::Build(data_, "squared_l2", options);
    ASSERT_FALSE(built.ok());
    EXPECT_TRUE(Contains(built.status().message(), "num_partitions"));
  }
  {
    IndexOptions options;
    options.config.max_partitions = 0;
    const auto built = Index::Build(data_, "squared_l2", options);
    ASSERT_FALSE(built.ok());
    EXPECT_TRUE(Contains(built.status().message(), "max_partitions"));
  }
  {
    IndexOptions options;
    options.config.fit_samples = 0;
    const auto built = Index::Build(data_, "squared_l2", options);
    ASSERT_FALSE(built.ok());
    EXPECT_TRUE(Contains(built.status().message(), "fit_samples"));
  }
  {
    IndexOptions options;
    options.config.min_partitions = 9;
    options.config.max_partitions = 4;
    const auto built = Index::Build(data_, "squared_l2", options);
    ASSERT_FALSE(built.ok());
    EXPECT_TRUE(Contains(built.status().message(), "min_partitions"));
  }
  {
    IndexOptions options;
    options.page_size = 64;  // cannot hold one 16-d point
    const auto built = Index::Build(data_, "squared_l2", options);
    ASSERT_FALSE(built.ok());
    EXPECT_TRUE(Contains(built.status().message(), "page size"));
  }
}

TEST_F(ApiTest, BuilderReportsFirstSetterError) {
  const auto built = IndexBuilder("squared_l2")
                         .PageSize(0)       // first error wins
                         .FitSamples(0)
                         .Build(data_);
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(Contains(built.status().message(), "page_size"));
}

TEST_F(ApiTest, BuilderChainBuildsAndPinsKnobs) {
  const auto built = IndexBuilder("squared_l2")
                         .Partitions(4)
                         .PageSize(8192)
                         .MaxLeafSize(32)
                         .Seed(7)
                         .Build(data_);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->num_partitions(), 4u);
  EXPECT_EQ(built->dim(), kDim);
  EXPECT_EQ(built->num_points(), kN);
  EXPECT_TRUE(built->exact());
}

// ---------------------------------------------------------------- search

TEST_F(ApiTest, SearchErrorsAreStatusesOnEveryBackend) {
  MemPager pager(8192);
  BackendOptions options;
  options.brepartition.num_partitions = 4;
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  for (const std::string& name : RegisteredBackends()) {
    auto engine = MakeSearchIndex(name, &pager, data_, div, options);
    ASSERT_TRUE(engine.ok()) << name << ": " << engine.status().ToString();

    const std::vector<double> short_query(kDim - 1, 1.0);
    const auto wrong_dim = (*engine)->Knn(short_query, 5);
    ASSERT_FALSE(wrong_dim.ok()) << name;
    EXPECT_EQ(wrong_dim.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Contains(wrong_dim.status().message(), "dimensions")) << name;

    const auto zero_k = (*engine)->Knn(queries_.Row(0), 0);
    ASSERT_FALSE(zero_k.ok()) << name;
    EXPECT_EQ(zero_k.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Contains(zero_k.status().message(), "k must be >= 1"));

    const auto big_k = (*engine)->Knn(queries_.Row(0), kN + 1);
    ASSERT_FALSE(big_k.ok()) << name;
    EXPECT_EQ(big_k.status().code(), StatusCode::kInvalidArgument);

    const auto neg_radius = (*engine)->Range(queries_.Row(0), -1.0);
    ASSERT_FALSE(neg_radius.ok()) << name;
    // Backends without a range path answer kUnimplemented only for valid
    // arguments; invalid ones are always kInvalidArgument.
    EXPECT_EQ(neg_radius.status().code(), StatusCode::kInvalidArgument);

    // And a well-formed call works.
    const auto good = (*engine)->Knn(queries_.Row(0), 5);
    ASSERT_TRUE(good.ok()) << name << ": " << good.status().ToString();
    EXPECT_EQ(good->size(), 5u);
  }
}

TEST_F(ApiTest, RangeUnimplementedBackendsSaySo) {
  MemPager pager(8192);
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  auto vaf = MakeSearchIndex("vafile", &pager, data_, div);
  ASSERT_TRUE(vaf.ok());
  const auto ranged = (*vaf)->Range(queries_.Row(0), 1.0);
  ASSERT_FALSE(ranged.ok());
  EXPECT_EQ(ranged.status().code(), StatusCode::kUnimplemented);
}

TEST_F(ApiTest, UnknownBackendListsRegistry) {
  MemPager pager(8192);
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  const auto engine = MakeSearchIndex("fancy_index", &pager, data_, div);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(Contains(engine.status().message(), "fancy_index"));
  for (const std::string& name : RegisteredBackends()) {
    EXPECT_TRUE(Contains(engine.status().message(), name)) << name;
  }
}

TEST_F(ApiTest, RegistryRejectsEmptyDataWithNamedDivergence) {
  // The empty matrix must be rejected before a 0-dimensional divergence is
  // ever constructed (which would abort in the implementation layer).
  const auto engine = MakeSearchIndex("scan", nullptr, Matrix{}, "squared_l2");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(engine.status().message(), "zero rows"));
}

TEST_F(ApiTest, KlRejectedByPartitionedBackendsOnly) {
  MemPager pager(8192);
  const Matrix data = MakeDataFor("kl", 300, 8);
  const BregmanDivergence div = MakeDivergence("kl", 8);
  const auto bp = MakeSearchIndex("brepartition", &pager, data, div);
  ASSERT_FALSE(bp.ok());
  EXPECT_EQ(bp.status().code(), StatusCode::kInvalidArgument);
  const auto bbt = MakeSearchIndex("bbtree", &pager, data, div);
  EXPECT_TRUE(bbt.ok()) << bbt.status().ToString();
}

// ---------------------------------------------------------------- parity

TEST_F(ApiTest, FacadeMatchesImplementationByteForByte) {
  IndexOptions options;
  options.config.num_partitions = 4;
  options.page_size = 8192;
  const auto built = Index::Build(data_, "squared_l2", options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  // The pre-redesign path: BrePartition constructed by hand on its own
  // simulated disk with the same configuration.
  MemPager pager(8192);
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  const BrePartition bp(&pager, data_, div, options.config);

  for (size_t q = 0; q < queries_.rows(); ++q) {
    SearchIndex::Stats stats;
    const auto facade = built->Knn(queries_.Row(q), 10, &stats);
    ASSERT_TRUE(facade.ok());
    const auto direct = testing::ExactKnn(bp, queries_.Row(q), 10);
    EXPECT_EQ(*facade, direct);  // ids AND distances, bit-exact
    EXPECT_GT(stats.io_reads, 0u);
    EXPECT_GT(stats.candidates, 0u);
    EXPECT_EQ(stats.queries, 1u);
  }
}

TEST_F(ApiTest, ParallelBatchesMatchSequentialAtEveryThreadCount) {
  IndexOptions options;
  options.config.num_partitions = 4;
  const auto built = Index::Build(data_, "squared_l2", options);
  ASSERT_TRUE(built.ok());

  std::vector<std::vector<Neighbor>> expected_knn;
  std::vector<std::vector<uint32_t>> expected_range;
  const double radius = built->Knn(queries_.Row(0), 10).value()[9].distance;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    expected_knn.push_back(built->Knn(queries_.Row(q), 10).value());
    expected_range.push_back(built->Range(queries_.Row(q), radius).value());
  }

  for (size_t threads : {1ul, 2ul, 4ul}) {
    auto parallel = built->Parallel(threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->threads(), threads);

    SearchIndex::Stats stats;
    const auto knn = parallel->KnnBatch(queries_, 10, &stats);
    ASSERT_TRUE(knn.ok());
    EXPECT_EQ(*knn, expected_knn) << threads << " threads";
    EXPECT_EQ(stats.queries, queries_.rows());

    const auto ranged = parallel->RangeBatch(queries_, radius);
    ASSERT_TRUE(ranged.ok());
    EXPECT_EQ(*ranged, expected_range) << threads << " threads";

    // Single-query path (parallel per-subspace filter) agrees too.
    const auto one = parallel->Knn(queries_.Row(0), 10);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(*one, expected_knn[0]);

    // An empty batch is a no-op, not an abort.
    const auto none = parallel->KnnBatch(Matrix{}, 10);
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none->empty());
    EXPECT_TRUE(parallel->RangeBatch(Matrix{}, radius)->empty());
  }
}

// ----------------------------------------------------------- persistence

class ApiPersistenceTest : public ApiTest {
 protected:
  std::string path_ = ::testing::TempDir() + "/brep_api_test.idx";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(ApiPersistenceTest, SaveOpenRoundTripServesIdentically) {
  IndexOptions options;
  options.config.num_partitions = 4;
  options.page_size = 8192;
  const auto built = Index::Build(data_, "squared_l2", options);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(path_).ok());

  const auto reopened = Index::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_points(), kN);
  EXPECT_EQ(reopened->num_partitions(), built->num_partitions());

  for (size_t q = 0; q < queries_.rows(); ++q) {
    EXPECT_EQ(reopened->Knn(queries_.Row(q), 10).value(),
              built->Knn(queries_.Row(q), 10).value());
  }

  // The approximate extension needs raw data rows, which a reopened index
  // does not have.
  const auto abp = reopened->Approximate(ApproximateConfig{});
  ASSERT_FALSE(abp.ok());
  EXPECT_EQ(abp.status().code(), StatusCode::kFailedPrecondition);
  // On the built index it works.
  const auto abp_built = built->Approximate(ApproximateConfig{});
  ASSERT_TRUE(abp_built.ok()) << abp_built.status().ToString();
  EXPECT_FALSE((*abp_built)->exact());
  EXPECT_TRUE((*abp_built)->Knn(queries_.Row(0), 10).ok());
}

TEST_F(ApiPersistenceTest, OpenMissingPathIsNotFound) {
  const auto opened = Index::Open(::testing::TempDir() + "/does_not_exist.idx");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(Contains(opened.status().message(), "does_not_exist"));
}

TEST_F(ApiPersistenceTest, OpenGarbageFileIsDataLoss) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not an index file";
  out.close();
  const auto opened = Index::Open(path_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST_F(ApiPersistenceTest, OpenCorruptedFileIsDataLoss) {
  IndexOptions options;
  options.config.num_partitions = 4;
  options.page_size = 4096;
  const auto built = Index::Build(data_, "squared_l2", options);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(path_).ok());

  // Flip bytes at the start of the LAST page: the catalog run is the final
  // allocation of Save, so this lands inside the checksummed catalog blob.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 4096 + 4096);
  f.seekp(size - 4096);
  const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
  f.write(garbage, sizeof(garbage));
  f.close();

  const auto opened = Index::Open(path_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);

  // A superblock corruption (clobbered magic) is caught by the pager layer
  // instead.
  ASSERT_TRUE(built->Save(path_).ok());
  std::fstream f2(path_, std::ios::in | std::ios::out | std::ios::binary);
  f2.seekp(0);
  f2.write(garbage, sizeof(garbage));
  f2.close();
  const auto opened2 = Index::Open(path_);
  ASSERT_FALSE(opened2.ok());
  EXPECT_EQ(opened2.status().code(), StatusCode::kDataLoss);
}

TEST_F(ApiPersistenceTest, SaveToUnwritablePathIsInternal) {
  IndexOptions options;
  options.config.num_partitions = 2;
  const auto built = Index::Build(data_, "squared_l2", options);
  ASSERT_TRUE(built.ok());
  const Status saved = built->Save("/nonexistent_dir_zzz/x.idx");
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace brep
