#ifndef BREP_BBTREE_BBFOREST_H_
#define BREP_BBTREE_BBFOREST_H_

#include <memory>
#include <span>
#include <vector>

#include "bbtree/bbtree.h"
#include "bbtree/disk_bbtree.h"
#include "core/bound.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"
#include "storage/pager.h"
#include "storage/point_store.h"

namespace brep {

/// Construction parameters for the BB-forest.
struct BBForestConfig {
  BBTreeConfig tree;
  /// Buffer-pool pages per disk tree (caches hot index nodes).
  size_t pool_pages = 128;
};

/// The paper's integrated, disk-resident index (Section 6): one disk BB-tree
/// per partitioned subspace, all sharing a single point store.
///
/// A forest is bound to the tuple table (TransformedDataset) of the same
/// index version: the exact range filter decides leaf points through the
/// certified identity evaluation, which reads each point's stored
/// per-subspace transform by id (DiskBBTree::RangeSearchExact). The table
/// must outlive the forest and describe exactly the points its trees hold.
///
/// Following the paper, the full-dimensional points are laid out on disk in
/// the leaf order of the tree of the *first* subspace; with PCCP the
/// subspaces cluster similarly, so the leaves of every other tree index
/// mostly-contiguous page ranges and the refinement step touches few
/// distinct pages.
class BBForest {
 public:
  /// Build over `data` (n x d) with full-space divergence `div`.
  /// `partitions[m]` lists the original column indices of subspace m;
  /// `tuples` is `data` transformed over the same partitions.
  BBForest(Pager* pager, const Matrix& data, const BregmanDivergence& div,
           std::vector<std::vector<size_t>> partitions,
           const BBForestConfig& config, const TransformedDataset& tuples);

  /// Re-attach to a forest previously written on `pager`: the point-store
  /// placement and the per-tree page lists come from a saved catalog, so no
  /// clustering, serialization or pager write happens here (the open path
  /// of a persistent index).
  BBForest(Pager* pager, const BregmanDivergence& div,
           std::vector<std::vector<size_t>> partitions, size_t pool_pages,
           const PointStoreLayout& store_layout,
           std::span<const DiskBBTreeLayout> tree_layouts,
           const TransformedDataset& tuples);

  BBForest(const BBForest&) = delete;
  BBForest& operator=(const BBForest&) = delete;

  /// Read-only clone bound to an MVCC snapshot: the store and every tree are
  /// snapshot-cloned to read through `src`, and the clone is bound to
  /// `tuples`, the same version's tuple table (both must outlive the
  /// clone). Shares the writer's buffer pools and COW tables. Cheap -- no
  /// pager I/O. Clones serve the whole search path (FilterTree, tree
  /// searches, point fetches); mutating calls on a clone abort.
  std::unique_ptr<BBForest> SnapshotClone(
      const PageSource* src, const TransformedDataset& tuples) const;

  size_t num_partitions() const { return partitions_.size(); }
  size_t num_points() const { return store_->num_points(); }

  /// Route a full-dimensional point into the store and every subspace
  /// tree. `id` must be fresh or tombstoned in the store. Must not race
  /// with searches (the serving layer holds an exclusive lock).
  void Insert(uint32_t id, std::span<const double> x);

  /// Remove a point from the store and every subspace tree; false when the
  /// id is not stored. Must not race with searches.
  bool Delete(uint32_t id);

  /// Whether `id` is currently indexed.
  bool Contains(uint32_t id) const { return store_->Contains(id); }

  /// Store + per-tree structural self-checks (see the members' docs) plus
  /// store/tree point-count agreement. Aborts with a message on violation.
  void DebugCheckInvariants() const;

  /// Pages referenced by the store and every tree (partition-level page
  /// accounting; catalog pages are the caller's).
  std::vector<PageId> LivePages() const;
  /// Each subspace tree's column list, in the tree's coordinate order.
  const std::vector<std::vector<size_t>>& partitions() const {
    return partitions_;
  }
  const DiskBBTree& tree(size_t m) const { return *trees_[m]; }
  const BregmanDivergence& subspace_divergence(size_t m) const {
    return trees_[m]->divergence();
  }
  const PointStore& point_store() const { return *store_; }
  /// The tuple table this forest is bound to (see the class comment).
  const TransformedDataset& tuples() const { return *tuples_; }

  /// Filter step in subspace `m`: the exact range search of tree `m`
  /// (DiskBBTree::RangeSearchExact) for query subvector `y_sub` and radius
  /// `radius`. Ids unordered.
  std::vector<uint32_t> FilterTree(size_t m, std::span<const double> y_sub,
                                   double radius,
                                   WorkCounters* stats = nullptr) const;

  /// FilterTree in every subspace (query subvector `y_subs[m]`, radius
  /// `radii[m]`), returning the union of candidate ids (sorted,
  /// deduplicated). Theorem 3 guarantees the true kNN are inside when the
  /// radii are the components of the k-th smallest upper bound.
  std::vector<uint32_t> RangeCandidatesUnion(
      std::span<const std::vector<double>> y_subs,
      std::span<const double> radii, WorkCounters* stats = nullptr) const;

  /// Buffer-pool pages per disk tree (persisted so Open restores the same
  /// caching behaviour).
  size_t pool_pages() const { return pool_pages_; }

  /// Buffer-pool traffic summed over every tree's node cache. Relaxed
  /// atomic reads: safe concurrently with serving, and two counters read
  /// while queries run may disagree by the in-flight operations.
  struct PoolCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t resident_pages = 0;
    size_t capacity_pages = 0;
  };
  PoolCounters pool_counters() const;

  /// Just the hit/miss counters (the per-query delta the instrumentation
  /// takes twice per query): purely relaxed atomic loads, no pool mutex.
  struct PoolTraffic {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  PoolTraffic pool_traffic() const;

 private:
  /// Snapshot-clone constructor (see SnapshotClone).
  BBForest(const BBForest& writer, const PageSource* src,
           const TransformedDataset& tuples);

  const TransformedDataset* tuples_;
  size_t pool_pages_ = 128;
  std::vector<std::vector<size_t>> partitions_;
  std::unique_ptr<PointStore> store_;
  std::vector<std::unique_ptr<DiskBBTree>> trees_;
};

}  // namespace brep

#endif  // BREP_BBTREE_BBFOREST_H_
