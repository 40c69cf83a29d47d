#include "bbtree/disk_bbtree.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "common/math_utils.h"
#include "core/bound.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

class DiskBBTreeTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr size_t kDim = 8;
  std::string gen_ = GetParam();
  Matrix data_ = testing::MakeDataFor(gen_, 500, kDim);
  Matrix queries_ = testing::MakeQueriesFor(gen_, data_, 8);
  BregmanDivergence div_ = MakeDivergence(gen_, kDim);
  BBTreeConfig tree_config_ = [] {
    BBTreeConfig c;
    c.max_leaf_size = 16;
    return c;
  }();
};

TEST_P(DiskBBTreeTest, KnnMatchesInMemoryTree) {
  MemPager pager(4096);
  const BBTree mem_tree(data_, div_, tree_config_);
  const PointStore store(&pager, data_, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree);

  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto expected = mem_tree.KnnSearch(queries_.Row(q), 10);
    const auto got = disk_tree.KnnSearch(queries_.Row(q), 10, store);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance,
                  1e-9 * std::max(1.0, expected[i].distance));
    }
  }
}

/// Reference range descent over BBTree::nodes(): the trees' own depth-first
/// order, left subtree first, pruning with the value form of the ball
/// bound. `exact` holds the ids within `radius`; `stats` counts the
/// descent's work.
struct ReferenceRange {
  std::vector<uint32_t> exact;
  WorkCounters stats;
};

ReferenceRange ReferenceRangeDescent(const BBTree& tree,
                                     std::span<const double> y,
                                     double radius) {
  const BregmanDivergence& div = tree.divergence();
  ReferenceRange ref;
  std::vector<int32_t> stack{tree.root()};
  while (!stack.empty()) {
    const BBTree::Node& node = tree.nodes()[stack.back()];
    stack.pop_back();
    ++ref.stats.nodes_visited;
    if (BallDistanceLowerBound(div, node.ball, y,
                               tree.config().bound_iters) > radius) {
      continue;
    }
    if (node.is_leaf()) {
      ++ref.stats.leaves_visited;
      for (uint32_t id : node.ids) {
        ++ref.stats.points_evaluated;
        if (div.Divergence(tree.data().Row(id), y) <= radius) {
          ref.exact.push_back(id);
        }
      }
    } else {
      stack.push_back(node.right);
      stack.push_back(node.left);
    }
  }
  return ref;
}

TEST_P(DiskBBTreeTest, RangeDescentsMatchReferencePruning) {
  MemPager pager(4096);
  const BBTree mem_tree(data_, div_, tree_config_);
  const DiskBBTree disk_tree(&pager, mem_tree);
  const TransformedDataset tuples = TransformedDataset::WholeSpace(data_, div_);
  const LinearScan scan(data_, div_);

  auto expect_same = [](const std::vector<uint32_t>& got,
                        const WorkCounters& got_stats,
                        const std::vector<uint32_t>& want,
                        const WorkCounters& want_stats, const char* method) {
    EXPECT_EQ(got, want) << method;
    EXPECT_EQ(got_stats.nodes_visited, want_stats.nodes_visited) << method;
    EXPECT_EQ(got_stats.leaves_visited, want_stats.leaves_visited) << method;
    EXPECT_EQ(got_stats.points_evaluated, want_stats.points_evaluated)
        << method;
  };

  uint64_t total_steps = 0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto y = queries_.Row(q);
    auto dists = scan.AllDistances(y);
    const double farthest = *std::max_element(dists.begin(), dists.end());
    for (double radius : {0.0, Quantile(dists, 0.01), Quantile(dists, 0.1),
                          Quantile(dists, 0.5), farthest, 2.0 * farthest}) {
      SCOPED_TRACE("query " + std::to_string(q) + " radius " +
                   std::to_string(radius));
      const ReferenceRange ref = ReferenceRangeDescent(mem_tree, y, radius);

      // The two descents test the same balls in the same order, so they
      // also run the same bisection steps.
      WorkCounters st;
      auto got = mem_tree.RangeSearch(y, radius, &st);
      expect_same(got, st, ref.exact, ref.stats, "BBTree::RangeSearch");
      const uint64_t steps = st.ball_steps;
      total_steps += steps;
      st = {};
      got = disk_tree.RangeSearchExact(y, radius, tuples, 0, &st);
      expect_same(got, st, ref.exact, ref.stats,
                  "DiskBBTree::RangeSearchExact");
      EXPECT_EQ(st.ball_steps, steps) << "DiskBBTree::RangeSearchExact";
    }
  }
  EXPECT_GT(total_steps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Generators, DiskBBTreeTest,
                         ::testing::Values("squared_l2", "itakura_saito",
                                           "exponential", "lp:3"),
                         [](const auto& info) {
                           return testing::GeneratorTestName(info.param);
                         });

TEST(DiskBBTreeRangeTest, FontsLikeExactRangeMatchesInMemoryRangeSearch) {
  // The disk tree's leaf-stored subvectors, decided through the certified
  // identity evaluation, must reproduce the in-memory exact range results
  // bit for bit on the paper's Fonts-like / Itakura-Saito pairing.
  constexpr size_t kDim = 32;
  Rng rng(3);
  const Matrix data = MakeFontsLike(rng, 1200, kDim);
  const BregmanDivergence div = MakeDivergence("itakura_saito", kDim);
  Rng qrng(4);
  const Matrix queries = MakeQueries(qrng, data, 8, 0.1, true);
  const BBTree mem_tree(data, div, BBTreeConfig{});
  MemPager pager(4096);
  const DiskBBTree disk_tree(&pager, mem_tree);
  const TransformedDataset tuples = TransformedDataset::WholeSpace(data, div);
  const LinearScan scan(data, div);
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<double> dists = scan.AllDistances(queries.Row(q));
    std::nth_element(dists.begin(), dists.begin() + 30, dists.end());
    const double radius = dists[30];
    auto mem = mem_tree.RangeSearch(queries.Row(q), radius);
    auto disk = disk_tree.RangeSearchExact(queries.Row(q), radius, tuples, 0);
    std::sort(mem.begin(), mem.end());
    std::sort(disk.begin(), disk.end());
    EXPECT_EQ(mem, disk) << "q=" << q;
  }
}

TEST(DiskBBTreeCorruptionDeathTest, LeafIdOutOfRangeAborts) {
  // A leaf id decoded from a tree page indexes the tuple table; a corrupted
  // one must abort with a message in every build, not read out of bounds.
  constexpr size_t kDim = 4;
  const Matrix data = testing::MakeDataFor("itakura_saito", 200, kDim);
  const BregmanDivergence div = MakeDivergence("itakura_saito", kDim);
  BBTreeConfig config;
  config.max_leaf_size = 16;
  const BBTree mem_tree(data, div, config);
  const TransformedDataset tuples = TransformedDataset::WholeSpace(data, div);
  MemPager pager(512);
  const DiskBBTreeLayout layout = DiskBBTree(&pager, mem_tree).layout();

  // Byte access to the tree's logical address space (slot i of the page
  // table backs bytes [i*P, (i+1)*P)).
  const size_t page = pager.page_size();
  PageBuffer buf;
  auto read = [&](uint64_t off, void* out, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      pager.Read(layout.pages[(off + i) / page], &buf);
      static_cast<uint8_t*>(out)[i] = buf[(off + i) % page];
    }
  };
  auto write = [&](uint64_t off, const void* in, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      const PageId id = layout.pages[(off + i) / page];
      pager.Read(id, &buf);
      buf[(off + i) % page] = static_cast<const uint8_t*>(in)[i];
      pager.Write(id, buf);
    }
  };
  // Node record: is_leaf u8, count u32, radius, mean, std, center, then
  // the child offsets (interior) or the ids (leaf). Follow left children
  // to a leaf and overwrite its first id.
  const size_t fixed = 1 + 4 + 3 * sizeof(double) + kDim * sizeof(double);
  uint64_t off = layout.root_offset;
  for (uint8_t is_leaf = 0;;) {
    read(off, &is_leaf, 1);
    if (is_leaf != 0) break;
    read(off + fixed, &off, sizeof(off));
  }
  const uint32_t bad_id = static_cast<uint32_t>(data.rows()) + 1000;
  write(off + fixed, &bad_id, sizeof(bad_id));

  const DiskBBTree reopened(&pager, div, layout);  // fresh buffer pool
  const double everything = std::numeric_limits<double>::max();
  EXPECT_DEATH(reopened.RangeSearchExact(data.Row(0), everything, tuples, 0),
               "leaf id out of range");
}

TEST(DiskBBTreeIoTest, SearchChargesPageReads) {
  const Matrix data = testing::MakeDataFor("squared_l2", 600, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", 8);
  BBTreeConfig config;
  config.max_leaf_size = 16;

  MemPager pager(2048);
  const BBTree mem_tree(data, div, config);
  const PointStore store(&pager, data, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree, /*pool_pages=*/4);

  pager.ResetStats();
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 1);
  disk_tree.KnnSearch(queries.Row(0), 5, store);
  EXPECT_GT(pager.stats().reads, 0u);
  EXPECT_EQ(pager.stats().writes, 0u);  // search never writes
}

TEST(DiskBBTreeIoTest, LargerPoolReducesNodeReads) {
  const Matrix data = testing::MakeDataFor("squared_l2", 800, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", 8);
  BBTreeConfig config;
  config.max_leaf_size = 8;
  const BBTree mem_tree(data, div, config);
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 10);

  auto reads_with_pool = [&](size_t pool_pages) {
    MemPager pager(1024);
    const PointStore store(&pager, data, mem_tree.LeafOrder());
    const DiskBBTree disk_tree(&pager, mem_tree, pool_pages);
    pager.ResetStats();
    for (size_t q = 0; q < queries.rows(); ++q) {
      disk_tree.KnnSearch(queries.Row(q), 5, store);
    }
    return pager.stats().reads;
  };
  EXPECT_LT(reads_with_pool(256), reads_with_pool(1));
}

TEST(DiskBBTreeIoTest, HeaderOnlyChildBoundsStrictlyReduceIo) {
  // Regression for the descent double-read: an older KnnImpl fully
  // deserialized both children at every interior expansion (including leaf
  // payloads of count*(4 + 8*dim) bytes) just to compute ball lower
  // bounds, then read the popped child again. Child bounds now come from
  // the fixed-size header prefix, so every query must materialize exactly
  // the nodes it visits -- the same nodes, and the same answer, as the
  // in-memory tree. A one-page pool makes every repeat read a real one.
  const size_t kDim = 16;
  const Matrix data = testing::MakeDataFor("squared_l2", 800, kDim);
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  BBTreeConfig config;
  config.max_leaf_size = 8;
  const BBTree mem_tree(data, div, config);
  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 10);

  MemPager pager(1024);
  const PointStore store(&pager, data, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree, /*pool_pages=*/1);
  for (size_t q = 0; q < queries.rows(); ++q) {
    SCOPED_TRACE("q=" + std::to_string(q));
    WorkCounters mem_stats, disk_stats;
    const auto want = mem_tree.KnnSearch(queries.Row(q), 10, &mem_stats);
    const uint64_t full_before = disk_tree.full_node_reads();
    const auto got =
        disk_tree.KnnSearch(queries.Row(q), 10, store, &disk_stats);
    // full_node_reads is counted inside the read path itself, so it carries
    // signal even if the traversal's own accounting were wrong.
    EXPECT_EQ(disk_tree.full_node_reads() - full_before,
              disk_stats.nodes_visited);
    EXPECT_EQ(disk_stats.nodes_visited, mem_stats.nodes_visited);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].distance, want[i].distance);
    }
  }
}

/// A MemPager that counts backend reads per page: once the pages are
/// flushed out of the shadow table, every buffer-pool miss lands here.
class PageReadSpy final : public MemPager {
 public:
  using MemPager::MemPager;
  mutable std::map<PageId, int> reads;

 protected:
  void DoRead(PageId id, uint8_t* out) const override {
    ++reads[id];
    MemPager::DoRead(id, out);
  }
};

TEST(DiskBBTreeIoTest, RangeDescentMissesEachPageAtMostOnce) {
  // The bulk build lays nodes out in preorder, left child first, and the
  // range descent visits them in that order, so it leaves each page for
  // good: even a 2-page pool misses every page at most once per query.
  constexpr size_t kDim = 8;
  const Matrix data = testing::MakeDataFor("itakura_saito", 800, kDim);
  const BregmanDivergence div = MakeDivergence("itakura_saito", kDim);
  BBTreeConfig config;
  config.max_leaf_size = 16;
  const BBTree mem_tree(data, div, config);
  const TransformedDataset tuples = TransformedDataset::WholeSpace(data, div);
  PageReadSpy pager(2048);
  const DiskBBTree disk_tree(&pager, mem_tree, /*pool_pages=*/2);
  ASSERT_GE(disk_tree.LivePages().size(), 6u);
  pager.FlushToBase();

  const LinearScan scan(data, div);
  const Matrix queries = testing::MakeQueriesFor("itakura_saito", data, 8);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto y = queries.Row(q);
    const std::vector<double> dists = scan.AllDistances(y);
    for (double radius : {Quantile(dists, 0.02), Quantile(dists, 0.3),
                          std::numeric_limits<double>::max()}) {
      SCOPED_TRACE("query " + std::to_string(q) + " radius " +
                   std::to_string(radius));
      pager.reads.clear();
      const uint64_t misses_before = disk_tree.pool().misses();
      disk_tree.RangeSearchExact(y, radius, tuples, 0);
      for (const auto& [page, reads] : pager.reads) {
        EXPECT_LE(reads, 1) << "page " << page;
      }
      EXPECT_EQ(pager.reads.size(), disk_tree.pool().misses() - misses_before);
    }
  }
}

TEST(DiskBBTreeIoTest, LeafPayloadsAcrossSmallPagesAreReadOnce) {
  // 512-byte pages: a full leaf's payload, 16 * (4 + 8 * 8) = 1,088 bytes,
  // straddles three or more pages. Both searches must match the in-memory
  // tree, and each node read must pin every page of its byte range once:
  // one pin per page for the header, one per page for the ids and vectors.
  constexpr size_t kDim = 8;
  const Matrix data = testing::MakeDataFor("itakura_saito", 400, kDim);
  const BregmanDivergence div = MakeDivergence("itakura_saito", kDim);
  BBTreeConfig config;
  config.max_leaf_size = 16;
  const BBTree mem_tree(data, div, config);
  const TransformedDataset tuples = TransformedDataset::WholeSpace(data, div);
  MemPager pager(512);
  const PointStore store(&pager, data, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree, /*pool_pages=*/4);

  // The pins of a descent that reads every node in full, from the bulk
  // build's preorder layout (header, then ids and vectors, or child
  // offsets).
  const size_t page = pager.page_size();
  const auto pages_spanned = [&](uint64_t start, uint64_t len) {
    return (start + len - 1) / page - start / page + 1;
  };
  const uint64_t fixed = 1 + 4 + 3 * sizeof(double) + kDim * sizeof(double);
  uint64_t all_pins = 0, widest_tail = 0, cursor = 0;
  std::vector<int32_t> stack{mem_tree.root()};
  while (!stack.empty()) {
    const BBTree::Node& node = mem_tree.nodes()[stack.back()];
    stack.pop_back();
    const uint64_t tail =
        node.is_leaf() ? node.ids.size() * (4 + kDim * sizeof(double)) : 16;
    const uint64_t tail_pages = pages_spanned(cursor + fixed, tail);
    all_pins += pages_spanned(cursor, fixed) + tail_pages;
    if (node.is_leaf()) widest_tail = std::max(widest_tail, tail_pages);
    cursor += fixed + tail;
    if (!node.is_leaf()) {
      stack.push_back(node.right);
      stack.push_back(node.left);
    }
  }
  ASSERT_GE(widest_tail, 3u);

  const auto pins = [&] {
    return disk_tree.pool().hits() + disk_tree.pool().misses();
  };
  const LinearScan scan(data, div);
  const Matrix queries = testing::MakeQueriesFor("itakura_saito", data, 6);
  for (size_t q = 0; q < queries.rows(); ++q) {
    SCOPED_TRACE("q=" + std::to_string(q));
    const auto y = queries.Row(q);
    const std::vector<double> dists = scan.AllDistances(y);
    for (double radius : {Quantile(dists, 0.05), Quantile(dists, 0.5)}) {
      EXPECT_EQ(disk_tree.RangeSearchExact(y, radius, tuples, 0),
                mem_tree.RangeSearch(y, radius));
    }
    const uint64_t before = pins();
    WorkCounters st;
    const auto everything = disk_tree.RangeSearchExact(
        y, std::numeric_limits<double>::max(), tuples, 0, &st);
    EXPECT_EQ(st.nodes_visited, mem_tree.nodes().size());
    EXPECT_EQ(pins() - before, all_pins);
    EXPECT_EQ(everything, mem_tree.RangeSearch(
                              y, std::numeric_limits<double>::max()));

    const auto want = mem_tree.KnnSearch(y, 10);
    const auto got = disk_tree.KnnSearch(y, 10, store);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].distance, want[i].distance);
    }
  }
}

TEST(DiskBBTreeIoTest, NearestLeafIdsTakesWholeLeavesUntilTheCount) {
  constexpr size_t kDim = 8;
  const Matrix data = testing::MakeDataFor("itakura_saito", 400, kDim);
  const BregmanDivergence div = MakeDivergence("itakura_saito", kDim);
  BBTreeConfig config;
  config.max_leaf_size = 16;
  const BBTree mem_tree(data, div, config);
  MemPager pager(512);
  const DiskBBTree disk_tree(&pager, mem_tree);
  const Matrix queries = testing::MakeQueriesFor("itakura_saito", data, 6);
  for (size_t q = 0; q < queries.rows(); ++q) {
    SCOPED_TRACE("q=" + std::to_string(q));
    WorkCounters st;
    std::vector<uint32_t> ids =
        disk_tree.NearestLeafIds(queries.Row(q), 40, &st);
    EXPECT_GE(ids.size(), 40u);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    // Whole leaves, and no more of them than the count needs: without the
    // last leaf taken, and so without the largest, fewer than 40 ids.
    size_t leaves = 0, largest = 0;
    for (const BBTree::Node& node : mem_tree.nodes()) {
      if (!node.is_leaf()) continue;
      const size_t held = std::count_if(
          node.ids.begin(), node.ids.end(), [&](uint32_t id) {
            return std::binary_search(ids.begin(), ids.end(), id);
          });
      EXPECT_TRUE(held == 0 || held == node.ids.size());
      if (held > 0) {
        ++leaves;
        largest = std::max(largest, held);
      }
    }
    EXPECT_EQ(st.leaves_visited, leaves);
    EXPECT_LT(ids.size() - largest, 40u);
    EXPECT_GE(st.nodes_visited, st.leaves_visited);

    // A count past the tree's points takes every leaf.
    ids = disk_tree.NearestLeafIds(queries.Row(q), data.rows() + 1);
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids.size(), data.rows());
    for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
  }
}

TEST(DiskBBTreeIoTest, VariationalSearchVisitsNoMoreThanExact) {
  const Matrix data = testing::MakeDataFor("squared_l2", 800, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", 8);
  BBTreeConfig config;
  config.max_leaf_size = 16;
  MemPager pager(2048);
  const BBTree mem_tree(data, div, config);
  const PointStore store(&pager, data, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree);

  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 10);
  size_t exact_points = 0, var_points = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    WorkCounters exact_stats, var_stats;
    disk_tree.KnnSearch(queries.Row(q), 10, store, &exact_stats);
    disk_tree.KnnSearchVariational(queries.Row(q), 10, store, 2.0,
                                   &var_stats);
    exact_points += exact_stats.points_evaluated;
    var_points += var_stats.points_evaluated;
  }
  EXPECT_LE(var_points, exact_points);
}

TEST(DiskBBTreeIoTest, VariationalResultsAreReasonablyAccurate) {
  const Matrix data = testing::MakeDataFor("squared_l2", 1000, 8);
  const BregmanDivergence div = MakeDivergence("squared_l2", 8);
  BBTreeConfig config;
  config.max_leaf_size = 16;
  MemPager pager(2048);
  const BBTree mem_tree(data, div, config);
  const PointStore store(&pager, data, mem_tree.LeafOrder());
  const DiskBBTree disk_tree(&pager, mem_tree);
  const LinearScan scan(data, div);

  const Matrix queries = testing::MakeQueriesFor("squared_l2", data, 20);
  double ratio_sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto exact = scan.KnnSearch(queries.Row(q), 10);
    const auto approx =
        disk_tree.KnnSearchVariational(queries.Row(q), 10, store, 0.5);
    ASSERT_EQ(approx.size(), 10u);
    // Compare k-th distances (scale-free accuracy check).
    const double e = exact.back().distance;
    const double a = approx.back().distance;
    ratio_sum += e > 0 ? a / e : 1.0;
  }
  EXPECT_LT(ratio_sum / queries.rows(), 1.5);
}

}  // namespace
}  // namespace brep
