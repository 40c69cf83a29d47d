#include "bbtree/bbforest.h"

#include <algorithm>

#include "common/build_counters.h"
#include "common/check.h"

namespace brep {

BBForest::BBForest(Pager* pager, const Matrix& data,
                   const BregmanDivergence& div,
                   std::vector<std::vector<size_t>> partitions,
                   const BBForestConfig& config,
                   const TransformedDataset& tuples)
    : tuples_(&tuples),
      pool_pages_(config.pool_pages),
      partitions_(std::move(partitions)) {
  BREP_CHECK(pager != nullptr);
  BREP_CHECK(!partitions_.empty());
  BREP_CHECK(data.cols() == div.dim());
  BREP_CHECK(tuples.num_points() == data.rows() &&
             tuples.num_partitions() == partitions_.size());
  internal::GetBuildCounters().forest_builds.fetch_add(
      1, std::memory_order_relaxed);

  // Build the first subspace's tree in memory to obtain the leaf order that
  // defines the on-disk point layout (paper Section 6).
  const Matrix sub0 = data.GatherColumns(partitions_[0]);
  const BregmanDivergence div0 = div.Restrict(partitions_[0]);
  const BBTree tree0(sub0, div0, config.tree);
  const std::vector<uint32_t> order = tree0.LeafOrder();
  BREP_CHECK(order.size() == data.rows());

  store_ = std::make_unique<PointStore>(pager, data, order);

  trees_.reserve(partitions_.size());
  trees_.push_back(
      std::make_unique<DiskBBTree>(pager, tree0, config.pool_pages));
  for (size_t m = 1; m < partitions_.size(); ++m) {
    const Matrix sub = data.GatherColumns(partitions_[m]);
    const BregmanDivergence sub_div = div.Restrict(partitions_[m]);
    const BBTree tree(sub, sub_div, config.tree);
    trees_.push_back(
        std::make_unique<DiskBBTree>(pager, tree, config.pool_pages));
  }
}

BBForest::BBForest(Pager* pager, const BregmanDivergence& div,
                   std::vector<std::vector<size_t>> partitions,
                   size_t pool_pages, const PointStoreLayout& store_layout,
                   std::span<const DiskBBTreeLayout> tree_layouts,
                   const TransformedDataset& tuples)
    : tuples_(&tuples),
      pool_pages_(pool_pages),
      partitions_(std::move(partitions)) {
  BREP_CHECK(pager != nullptr);
  BREP_CHECK(!partitions_.empty());
  BREP_CHECK(tree_layouts.size() == partitions_.size());
  BREP_CHECK(tuples.num_partitions() == partitions_.size());

  store_ = std::make_unique<PointStore>(pager, store_layout);
  trees_.reserve(partitions_.size());
  for (size_t m = 0; m < partitions_.size(); ++m) {
    BregmanDivergence sub_div = div.Restrict(partitions_[m]);
    BREP_CHECK(sub_div.dim() == partitions_[m].size());
    trees_.push_back(std::make_unique<DiskBBTree>(
        pager, std::move(sub_div), tree_layouts[m], pool_pages_));
  }
}

BBForest::BBForest(const BBForest& writer, const PageSource* src,
                   const TransformedDataset& tuples)
    : tuples_(&tuples),
      pool_pages_(writer.pool_pages_),
      partitions_(writer.partitions_) {
  store_ = writer.store_->SnapshotClone(src);
  trees_.reserve(writer.trees_.size());
  for (const auto& tree : writer.trees_) {
    trees_.push_back(tree->SnapshotClone(src));
  }
}

std::unique_ptr<BBForest> BBForest::SnapshotClone(
    const PageSource* src, const TransformedDataset& tuples) const {
  BREP_CHECK(src != nullptr);
  BREP_CHECK(tuples.num_partitions() == partitions_.size());
  return std::unique_ptr<BBForest>(new BBForest(*this, src, tuples));
}

void BBForest::Insert(uint32_t id, std::span<const double> x) {
  BREP_CHECK(x.size() == store_->dim());
  store_->Append(id, x);
  std::vector<double> sub;
  for (size_t m = 0; m < partitions_.size(); ++m) {
    const auto& cols = partitions_[m];
    sub.resize(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) sub[c] = x[cols[c]];
    trees_[m]->Insert(id, sub);
  }
}

bool BBForest::Delete(uint32_t id) {
  if (!store_->Contains(id)) return false;
  // The trees locate the point by its exact stored coordinates (their
  // ball-pruned descent), so fetch before tombstoning.
  std::vector<double> x(store_->dim());
  store_->Fetch(id, x);
  std::vector<double> sub;
  for (size_t m = 0; m < partitions_.size(); ++m) {
    const auto& cols = partitions_[m];
    sub.resize(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) sub[c] = x[cols[c]];
    BREP_CHECK_MSG(trees_[m]->Delete(id, sub),
                   "stored point missing from a subspace tree");
  }
  store_->Remove(id);
  return true;
}

void BBForest::DebugCheckInvariants() const {
  store_->DebugCheckInvariants();
  for (const auto& tree : trees_) {
    tree->DebugCheckInvariants();
    BREP_CHECK_MSG(tree->num_points() == store_->num_points(),
                   "tree and point store disagree on the live point count");
  }
}

std::vector<PageId> BBForest::LivePages() const {
  std::vector<PageId> pages = store_->LivePages();
  for (const auto& tree : trees_) {
    const std::vector<PageId> t = tree->LivePages();
    pages.insert(pages.end(), t.begin(), t.end());
  }
  return pages;
}

BBForest::PoolTraffic BBForest::pool_traffic() const {
  PoolTraffic out;
  for (const auto& tree : trees_) {
    out.hits += tree->pool().hits();
    out.misses += tree->pool().misses();
  }
  return out;
}

BBForest::PoolCounters BBForest::pool_counters() const {
  PoolCounters out;
  for (const auto& tree : trees_) {
    const BufferPool& pool = tree->pool();
    out.hits += pool.hits();
    out.misses += pool.misses();
    out.evictions += pool.evictions();
    out.resident_pages += pool.size();
    out.capacity_pages += pool.capacity();
  }
  return out;
}

std::vector<uint32_t> BBForest::FilterTree(size_t m,
                                           std::span<const double> y_sub,
                                           double radius,
                                           WorkCounters* stats) const {
  BREP_CHECK(m < trees_.size());
  return trees_[m]->RangeSearchExact(y_sub, radius, *tuples_, m, stats);
}

std::vector<uint32_t> BBForest::RangeCandidatesUnion(
    std::span<const std::vector<double>> y_subs, std::span<const double> radii,
    WorkCounters* stats) const {
  BREP_CHECK(y_subs.size() == trees_.size());
  BREP_CHECK(radii.size() == trees_.size());
  std::vector<uint32_t> all;
  for (size_t m = 0; m < trees_.size(); ++m) {
    const std::vector<uint32_t> cand =
        FilterTree(m, y_subs[m], radii[m], stats);
    all.insert(all.end(), cand.begin(), cand.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace brep
