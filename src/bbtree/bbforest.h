#ifndef BREP_BBTREE_BBFOREST_H_
#define BREP_BBTREE_BBFOREST_H_

#include <memory>
#include <span>
#include <vector>

#include "bbtree/bbtree.h"
#include "bbtree/disk_bbtree.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"
#include "storage/pager.h"
#include "storage/point_store.h"

namespace brep {

/// Granularity of the per-subspace range filter.
enum class FilterMode {
  /// Exact range search on index pages (Cayton NIPS'09, the algorithm the
  /// paper adopts): only points whose subspace divergence is within the
  /// radius become candidates. Default.
  kExactRange,
  /// Whole-cluster loading as modelled in the paper's Section 5.1 cost
  /// analysis: every point of every leaf whose ball intersects the range
  /// becomes a candidate. Cheaper per node, many more candidates.
  kCluster,
};

/// Construction parameters for the BB-forest.
struct BBForestConfig {
  BBTreeConfig tree;
  /// Buffer-pool pages per disk tree (caches hot index nodes).
  size_t pool_pages = 128;
  FilterMode filter_mode = FilterMode::kExactRange;
};

/// The paper's integrated, disk-resident index (Section 6): one disk BB-tree
/// per partitioned subspace, all sharing a single point store.
///
/// Following the paper, the full-dimensional points are laid out on disk in
/// the leaf order of the tree of the *first* subspace; with PCCP the
/// subspaces cluster similarly, so the leaves of every other tree index
/// mostly-contiguous page ranges and the refinement step touches few
/// distinct pages.
class BBForest {
 public:
  /// Build over `data` (n x d) with full-space divergence `div`.
  /// `partitions[m]` lists the original column indices of subspace m.
  BBForest(Pager* pager, const Matrix& data, const BregmanDivergence& div,
           std::vector<std::vector<size_t>> partitions,
           const BBForestConfig& config);

  /// Re-attach to a forest previously written on `pager`: the point-store
  /// placement and the per-tree page lists come from a saved catalog, so no
  /// clustering, serialization or pager write happens here (the open path
  /// of a persistent index).
  BBForest(Pager* pager, const BregmanDivergence& div,
           std::vector<std::vector<size_t>> partitions, FilterMode filter_mode,
           size_t pool_pages, const PointStoreLayout& store_layout,
           std::span<const DiskBBTreeLayout> tree_layouts);

  BBForest(const BBForest&) = delete;
  BBForest& operator=(const BBForest&) = delete;

  /// Read-only clone bound to an MVCC snapshot: the store and every tree are
  /// snapshot-cloned to read through `src` (which must outlive the clone),
  /// sharing the writer's buffer pools and COW tables. Cheap -- no pager
  /// I/O. Clones serve the whole search path (RangeCandidatesUnion, tree
  /// searches, point fetches); mutating calls on a clone abort.
  std::unique_ptr<BBForest> SnapshotClone(const PageSource* src) const;

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
  const std::vector<size_t>& partition_columns(size_t m) const {
    return partitions_[m];
  }
  const DiskBBTree& tree(size_t m) const { return *trees_[m]; }
  const BregmanDivergence& subspace_divergence(size_t m) const {
    return trees_[m]->divergence();
  }
  const PointStore& point_store() const { return *store_; }

  /// Filter step: run the range query `filter_mode()` selects in every
  /// subspace (query subvector `y_subs[m]`, radius `radii[m]`) -- by default
  /// the exact range search, else the cluster-granularity one -- and return
  /// the union of candidate ids (sorted, deduplicated). Theorem 3 guarantees
  /// the true kNN are inside when the radii are the components of the k-th
  /// smallest upper bound.
  std::vector<uint32_t> RangeCandidatesUnion(
      std::span<const std::vector<double>> y_subs,
      std::span<const double> radii, SearchStats* stats = nullptr) const;

  FilterMode filter_mode() const { return filter_mode_; }
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
  BBForest(const BBForest& writer, const PageSource* src);

  FilterMode filter_mode_;
  size_t pool_pages_ = 128;
  std::vector<std::vector<size_t>> partitions_;
  std::unique_ptr<PointStore> store_;
  std::vector<std::unique_ptr<DiskBBTree>> trees_;
};

}  // namespace brep

#endif  // BREP_BBTREE_BBFOREST_H_
