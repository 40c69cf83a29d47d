/// Oracle-backed update fuzz: seeded randomized sequences of mixed
/// insert/delete/kNN/range operations through the brep::Index facade,
/// parameterized over every registered partition-safe divergence generator
/// (KL cannot build a BrePartition index by design). Every query result is
/// compared for byte-identical ids and bit-equal distances against a
/// LinearScanOracle maintained in lockstep, and the whole-index structural
/// invariants (ball containment, occupancy, counts, page accounting,
/// free-list) are re-proven after every batch. Failures print the seed for
/// replay; override with BREP_FUZZ_SEED / BREP_FUZZ_OPS.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/index.h"
#include "common/rng.h"
#include "core/brepartition.h"
#include "storage/pager.h"
#include "test_util.h"
#include "update/update_test_util.h"

namespace brep {
namespace {

using testing::GeneratorTestName;
using testing::LinearScanOracle;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

void ExpectIdentical(const std::vector<Neighbor>& got,
                     const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;  // bit-exact
  }
}

class UpdateFuzzTest : public ::testing::TestWithParam<std::string> {};

TEST_P(UpdateFuzzTest, MixedOpsStayByteIdenticalToOracle) {
  const std::string gen = GetParam();
  // 2600 ops x 4 generators > 10k mixed operations across the suite.
  const size_t kOps = EnvOr("BREP_FUZZ_OPS", 2600);
  const uint64_t seed =
      EnvOr("BREP_FUZZ_SEED", 0xF00D0000 + std::hash<std::string>{}(gen) % 997);
  SCOPED_TRACE("replay: BREP_FUZZ_SEED=" + std::to_string(seed) +
               " BREP_FUZZ_OPS=" + std::to_string(kOps) + " generator=" + gen);

  constexpr size_t kDim = 8;
  constexpr size_t kInitial = 250;
  const Matrix pool = testing::MakeDataFor(gen, 4000, kDim, seed ^ 0xDA7A);
  const Matrix initial(kInitial, kDim,
                       std::vector<double>(pool.data().begin(),
                                           pool.data().begin() +
                                               kInitial * kDim));

  auto built = IndexBuilder(gen)
                   .Partitions(4)
                   .PageSize(1024)
                   .MaxLeafSize(16)
                   .Seed(seed)
                   .Build(initial);
  ASSERT_TRUE(built.ok()) << built.status().message();
  Index index = *std::move(built);

  LinearScanOracle oracle(index.divergence());
  std::vector<uint32_t> live_ids;
  for (uint32_t id = 0; id < kInitial; ++id) {
    oracle.Insert(id, initial.Row(id));
    live_ids.push_back(id);
  }
  size_t pool_cursor = kInitial;

  Rng rng(seed);
  size_t inserts = 0, deletes = 0, knns = 0, ranges = 0;
  for (size_t op = 0; op < kOps; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    uint64_t dice = rng.NextBelow(100);
    if (pool_cursor >= pool.rows() && dice < 40) dice = 50;  // pool drained
    if (live_ids.empty() && dice >= 40) dice = 0;            // must insert

    if (dice < 40) {
      // Insert the next pool row.
      ASSERT_LT(pool_cursor, pool.rows()) << "fuzz pool exhausted";
      const auto x = pool.Row(pool_cursor++);
      const auto id = index.Insert(x);
      ASSERT_TRUE(id.ok()) << id.status().message();
      ASSERT_FALSE(oracle.Contains(*id)) << "id " << *id << " double-assigned";
      oracle.Insert(*id, x);
      live_ids.push_back(*id);
      ++inserts;
    } else if (dice < 65) {
      // Delete a random live point.
      const size_t pick = rng.NextBelow(live_ids.size());
      const uint32_t id = live_ids[pick];
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
      ASSERT_TRUE(index.Delete(id).ok());
      oracle.Delete(id);
      // A second delete of the same id must cleanly fail.
      EXPECT_EQ(index.Delete(id).code(), StatusCode::kNotFound);
      ++deletes;
    } else if (dice < 85) {
      // kNN, compared byte-identically against the oracle.
      const auto y = pool.Row(rng.NextBelow(pool.rows()));
      const size_t k = 1 + rng.NextBelow(std::min<size_t>(10, oracle.size()));
      const auto got = index.Knn(y, k);
      ASSERT_TRUE(got.ok()) << got.status().message();
      ExpectIdentical(*got, oracle.Knn(y, k));
      ++knns;
    } else {
      // Range, radius anchored at a live point's distance.
      const auto y = pool.Row(rng.NextBelow(pool.rows()));
      const uint32_t anchor = live_ids[rng.NextBelow(live_ids.size())];
      const double base =
          index.divergence().Divergence(oracle.live().at(anchor), y);
      const double scale[] = {0.5, 1.0, 1.5};
      const double radius = base * scale[rng.NextBelow(3)];
      const auto got = index.Range(y, radius);
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(*got, oracle.Range(y, radius));
      ++ranges;
    }

    ASSERT_EQ(index.num_points(), oracle.size());
    if ((op + 1) % 500 == 0) index.impl().DebugCheckInvariants();
    if (::testing::Test::HasFailure()) break;  // seed printed by SCOPED_TRACE
  }
  index.impl().DebugCheckInvariants();
  // The mix must actually exercise every lane.
  EXPECT_GT(inserts, kOps / 8);
  EXPECT_GT(deletes, kOps / 8);
  EXPECT_GT(knns, kOps / 16);
  EXPECT_GT(ranges, kOps / 16);
  const SearchIndex::Stats updates = index.UpdateStats();
  EXPECT_EQ(updates.inserts, inserts);
  EXPECT_EQ(updates.deletes, deletes);
}

TEST_P(UpdateFuzzTest, ChurnReusesFreedPagesInsteadOfGrowing) {
  const std::string gen = GetParam();
  const uint64_t seed = 0xBEEF + std::hash<std::string>{}(gen) % 991;
  constexpr size_t kDim = 8;
  const Matrix pool = testing::MakeDataFor(gen, 2400, kDim, seed);
  const Matrix initial(300, kDim,
                       std::vector<double>(pool.data().begin(),
                                           pool.data().begin() + 300 * kDim));
  auto built = IndexBuilder(gen)
                   .Partitions(4)
                   .PageSize(1024)
                   .MaxLeafSize(16)
                   .Seed(seed)
                   .Build(initial);
  ASSERT_TRUE(built.ok()) << built.status().message();
  Index index = *std::move(built);

  LinearScanOracle oracle(index.divergence());
  std::vector<uint32_t> live_ids;
  for (uint32_t id = 0; id < 300; ++id) {
    oracle.Insert(id, initial.Row(id));
    live_ids.push_back(id);
  }

  // Churn: delete a third, re-insert the same number, repeatedly. Freed
  // pages (emptied point-store pages, collapsed tree chunks) must flow
  // back through the pager's free-list into later allocations, so the disk
  // page count plateaus instead of growing monotonically.
  Rng rng(seed);
  size_t pool_cursor = 300;
  std::vector<size_t> pages_after_cycle;
  bool saw_free_pages = false;
  uint64_t reused_pages = 0;  // lower bound: sampled per half-cycle
  for (size_t cycle = 0; cycle < 12; ++cycle) {
    for (size_t i = 0; i < 100; ++i) {
      const size_t pick = rng.NextBelow(live_ids.size());
      const uint32_t id = live_ids[pick];
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
      ASSERT_TRUE(index.Delete(id).ok());
      oracle.Delete(id);
    }
    const uint64_t free_before = index.impl().pager()->num_free_pages();
    saw_free_pages |= free_before > 0;
    for (size_t i = 0; i < 100; ++i) {
      const auto x = pool.Row(pool_cursor++);
      const auto id = index.Insert(x);
      ASSERT_TRUE(id.ok());
      oracle.Insert(*id, x);
      live_ids.push_back(*id);
    }
    const uint64_t free_after = index.impl().pager()->num_free_pages();
    if (free_after < free_before) reused_pages += free_before - free_after;
    index.impl().DebugCheckInvariants();
    pages_after_cycle.push_back(index.impl().pager()->num_pages());
  }
  EXPECT_TRUE(saw_free_pages) << "churn never returned a page";
  std::string curve;
  for (size_t p : pages_after_cycle) curve += std::to_string(p) + " ";
  // Freed pages must actually feed later allocations: the insert halves of
  // the cycles consumed freed pages (this undercounts -- a page freed and
  // reclaimed within one half-cycle is invisible to the sampling)...
  EXPECT_GE(reused_pages, 20u) << "page counts per cycle: " << curve;
  // ... so the disk plateaus instead of growing with the churn volume:
  // some cycles add no pages at all, and 1200 further updates cost a small
  // fraction of the initial footprint (without reuse, the tree relocations
  // and splits alone would several-fold it). A slow structural drift
  // remains legitimate: leaves split eagerly but merge only as leaf pairs.
  size_t flat_cycles = 0;
  for (size_t c = 2; c + 1 < pages_after_cycle.size(); ++c) {
    flat_cycles += pages_after_cycle[c + 1] == pages_after_cycle[c] ? 1 : 0;
  }
  EXPECT_GE(flat_cycles, 1u) << "page counts per cycle: " << curve;
  EXPECT_LE(pages_after_cycle.back(),
            pages_after_cycle.front() + pages_after_cycle.front() * 2 / 5)
      << "page counts per cycle: " << curve;
  // ... and queries stay exact after all of it.
  for (size_t q = 0; q < 8; ++q) {
    const auto y = pool.Row(rng.NextBelow(pool.rows()));
    const auto got = index.Knn(y, 10);
    ASSERT_TRUE(got.ok());
    ExpectIdentical(*got, oracle.Knn(y, 10));
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, UpdateFuzzTest,
                         ::testing::ValuesIn(testing::PartitionSafeGenerators()),
                         [](const auto& info) {
                           return GeneratorTestName(info.param);
                         });

}  // namespace
}  // namespace brep
