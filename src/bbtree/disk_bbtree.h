#ifndef BREP_BBTREE_DISK_BBTREE_H_
#define BREP_BBTREE_DISK_BBTREE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bbtree/bbtree.h"
#include "common/rng.h"
#include "common/top_k.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/point_store.h"

namespace brep {

class TransformedDataset;

/// Serializable description of a disk tree's pages: enough to re-attach to
/// an already-written tree with zero writes (see the attach constructor).
///
/// `pages` is a slot table: slot i backs logical bytes [i*P, (i+1)*P) of the
/// tree's address space; kInvalidPageId marks a slot whose page was returned
/// to the pager (mutation chunks freed by Delete). `chunk_offsets[i]` /
/// `chunk_slots[i]` list the page-aligned allocations created by the
/// mutation path (the bulk-built packed region occupies the first
/// ceil(blob_size / P) slots and is not a chunk).
struct DiskBBTreeLayout {
  std::vector<PageId> pages;
  uint64_t blob_size = 0;
  uint64_t num_nodes = 0;
  uint64_t root_offset = 0;
  int32_t bound_iters = 0;
  uint64_t max_leaf_size = 0;
  int32_t kmeans_iters = 0;
  uint64_t insert_seed = 0;
  uint64_t num_points = 0;
  std::vector<uint64_t> chunk_offsets;
  std::vector<uint32_t> chunk_slots;
};

/// Disk-resident BB-tree: the node structure of an in-memory BBTree
/// serialized onto the simulated disk (paper Section 6's extension of
/// BB-trees to disks).
///
/// Interior and leaf nodes store the cluster center, radius, the per-node
/// distance statistics, and either child offsets or the point ids of the
/// cluster. Traversal reads node bytes through an LRU buffer pool (hot upper
/// levels stay cached, like an OS page cache would); point payloads are
/// fetched from the PointStore and charged against the pager directly.
///
/// All search methods are const and re-entrant: node reads go through the
/// pool's pinned-page API, so any number of threads (the query engine's
/// per-subspace filter tasks, or whole queries of a batch) may search one
/// tree concurrently.
///
/// The tree is also mutable -- the index's only tree-maintenance path.
/// Insert/Delete operate directly on pages and keep every ball a valid
/// cover of its subtree, so searches stay exact:
///
///  * Insert descends to the closer child, widening every ball header in
///    place, and rewrites the target leaf. A leaf that outgrows its byte
///    allocation relocates into a fresh page-aligned chunk (pages served
///    from the pager's free-list first); an overflowing leaf is split by
///    Bregman 2-means, as BBTree construction splits a node.
///  * Delete locates the leaf by ball-pruned descent, shrinks it in place
///    (balls are not shrunk), merges an underflowing leaf with a leaf
///    sibling, and collapses an emptied leaf into its sibling, returning
///    chunk pages to the pager's free-list. Deleting the last point leaves
///    a valid empty tree (root_offset() == kNoNode) that accepts new
///    inserts.
///
/// Mutations are single-writer and run on the writer's tree instance under
/// the serving layer's writer mutex; searches run against read-only
/// SnapshotClone()s bound to a pinned MVCC PageSnapshot (or against the
/// writer instance on single-threaded paths), so they never observe a
/// mutation in progress.
class DiskBBTree {
 public:
  /// root_offset() value of a tree holding no points.
  static constexpr uint64_t kNoNode = UINT64_MAX;

  /// Serialize `tree` into pages of `pager`. The tree object itself may be
  /// discarded afterwards; `pool_pages` bounds the node cache.
  DiskBBTree(Pager* pager, const BBTree& tree, size_t pool_pages = 128);

  /// Re-attach to a tree previously serialized on `pager` (described by
  /// `layout()` of the original). Performs no pager writes.
  DiskBBTree(Pager* pager, BregmanDivergence div,
             const DiskBBTreeLayout& layout, size_t pool_pages = 128);

  /// The page placement to persist for a later re-attach.
  DiskBBTreeLayout layout() const;

  DiskBBTree(const DiskBBTree&) = delete;
  DiskBBTree& operator=(const DiskBBTree&) = delete;

  size_t dim() const { return div_.dim(); }
  const BregmanDivergence& divergence() const { return div_; }
  size_t num_nodes() const { return num_nodes_; }
  /// Points currently indexed.
  size_t num_points() const { return num_points_; }
  bool empty() const { return root_offset_ == kNoNode; }
  /// Total bytes of serialized index (for construction-cost reporting):
  /// the bulk-built region plus every mutation chunk's pages.
  size_t index_bytes() const;
  /// Full node materializations (payload/child-offset deserializations)
  /// since construction. Counted inside the read path itself -- not in the
  /// search algorithms -- so the descent I/O regression test measures what
  /// actually happened, whatever the traversal code claims.
  uint64_t full_node_reads() const {
    return full_node_reads_->load(std::memory_order_relaxed);
  }
  /// This tree's node cache (hit/miss/eviction counters for metrics; the
  /// pool itself is thread-safe and shared with every snapshot clone).
  const BufferPool& pool() const { return *pool_; }

  /// Read-only clone bound to an MVCC snapshot: copies the page table and
  /// tree geometry, shares the buffer pool and the full-node-read counter,
  /// and reads pages through `src` (which must outlive the clone). Serves
  /// every const search method; mutating calls on a clone abort.
  std::unique_ptr<DiskBBTree> SnapshotClone(const PageSource* src) const;

  /// Insert point `id` with subspace vector `x` (this tree's
  /// dimensionality). Must not race with searches.
  void Insert(uint32_t id, std::span<const double> x);

  /// Remove point `id`, whose stored subspace vector must be exactly `x`
  /// (the ball-pruned descent relies on it). Returns false when the id is
  /// not in the tree. Must not race with searches.
  bool Delete(uint32_t id, std::span<const double> x);

  /// Structural self-check: every ball contains its subtree's points,
  /// subtree counts add up, leaf occupancy respects max_leaf_size (unless
  /// the leaf's points are identical), node records stay inside their
  /// allocations and never overlap, and the chunk/free-slot tables
  /// partition the page table. Aborts with a message on violation.
  /// Compiled always; tests call it after every update batch and after
  /// reopening a persisted index.
  void DebugCheckInvariants() const;

  /// Pages currently referenced (for partition-level page accounting).
  std::vector<PageId> LivePages() const;

  /// Exact range search (Cayton NIPS'09, the algorithm the paper adopts for
  /// the filter step): leaves store the subspace vectors, so qualifying
  /// points are identified on the index pages without touching the point
  /// store. Returns exactly {x : D(x_sub, y) <= radius}.
  ///
  /// Each leaf point is decided through the certified identity evaluation
  /// (simd::IdentityScan::WithinRadius): `tuples.At(id, partition)` must
  /// hold the point's transform over this tree's columns, from the same
  /// version as the tree (this tree is subspace `partition` of a forest,
  /// or partition 0 of a one-partition table for a whole-space tree).
  /// Points the bound cannot decide are evaluated exactly, as is every
  /// point when phi is plain arithmetic (simd::IdentityPays); both count
  /// in `exact_evals`.
  std::vector<uint32_t> RangeSearchExact(std::span<const double> y,
                                         double radius,
                                         const TransformedDataset& tuples,
                                         size_t partition,
                                         WorkCounters* stats = nullptr) const;

  /// The ids of the leaves nearest `y`, for the exact kNN bound phase's
  /// seeds: a best-first walk that expands nodes in ascending
  /// D(center, y) -- an order, not a bound -- and takes every leaf it
  /// reaches whole, until at least `count` ids are held or the tree is
  /// exhausted. Reads node headers, child offsets and leaf id lists, never
  /// the leaf vectors. Unordered; counts the expanded nodes and leaves.
  std::vector<uint32_t> NearestLeafIds(std::span<const double> y,
                                       size_t count,
                                       WorkCounters* stats = nullptr) const;

  /// Exact branch-and-bound kNN ("BBT" baseline): node pruning uses this
  /// tree's balls, candidate points are fetched from `store` (which must
  /// have this tree's dimensionality) and evaluated with the tree's own
  /// divergence.
  ///
  /// Child lower bounds during the descent are computed from header-only
  /// node reads (the fixed-size prefix holding the ball), so a child's
  /// payload -- count*(4 + 8*dim) bytes for a leaf -- is deserialized once,
  /// when the node is popped from the frontier, not twice: nodes_visited
  /// equals the in-memory BBTree's and the full_node_reads() delta.
  std::vector<Neighbor> KnnSearch(std::span<const double> y, size_t k,
                                  const PointStore& store,
                                  WorkCounters* stats = nullptr) const;

  /// "Var"-style approximate kNN (Coviello et al., ICML'13 behavioural
  /// reimplementation): identical traversal, but a node is explored only if
  /// the Gaussian model of its distance distribution predicts at least
  /// `min_expected_hits` points improving on the current k-th distance.
  std::vector<Neighbor> KnnSearchVariational(
      std::span<const double> y, size_t k, const PointStore& store,
      double min_expected_hits, WorkCounters* stats = nullptr) const;

 private:
  struct DiskNode {
    BregmanBall ball;
    double dist_mean = 0.0;
    double dist_std = 0.0;
    uint32_t count = 0;
    bool is_leaf = false;
    uint64_t left_off = 0;
    uint64_t right_off = 0;
    std::vector<uint32_t> ids;
    /// Leaf only: the subspace vectors of `ids`, column-major / SoA
    /// (points[j * ids.size() + i] is coordinate j of point i) in memory
    /// AND on disk, so leaf scans stream each dimension unit-stride into
    /// the batched divergence kernel.
    std::vector<double> points;
  };

  /// One ancestor on the Delete descent path.
  struct PathFrame {
    uint64_t off;
    uint32_t count;
    bool from_left;  // which child pointer of the parent leads here
  };

  /// A node record's scalar prefix: is_leaf u8, count u32, radius, and
  /// the two distance statistics; the center follows it.
  static constexpr size_t kHeadBytes = 1 + 4 + 3 * sizeof(double);
  size_t NodeFixedBytes() const {
    return kHeadBytes + div_.dim() * sizeof(double);
  }
  size_t LeafRecordBytes(size_t count) const {
    return NodeFixedBytes() + count * (4 + div_.dim() * sizeof(double));
  }
  size_t InteriorRecordBytes() const { return NodeFixedBytes() + 16; }

  DiskNode ReadNode(uint64_t offset) const;
  /// Header-only read: the fixed-size prefix (flags, count, radius,
  /// distance stats, center) -- everything a ball test needs, without the
  /// leaf payload or child offsets. Decodes into `node`'s buffers with one
  /// ReadBytes, so a search that reuses the node allocates nothing per
  /// node; fields the header does not hold keep their old values until
  /// ReadNodeTail.
  void ReadNodeHeader(uint64_t offset, DiskNode* node) const;
  DiskNode ReadNodeHeader(uint64_t offset) const;
  /// Complete a header-read node in place: fetch the leaf payload or the
  /// child offsets (one ReadBytes), reusing `node`'s id and point buffers.
  /// Counts one full node materialization.
  void ReadNodeTail(uint64_t offset, DiskNode* node) const;
  /// Abort unless a leaf payload of `count` entries at `offset` fits the
  /// page table (a corrupted count must not drive an allocation).
  void CheckLeafPayload(uint64_t offset, uint32_t count) const;
  /// Page-spanning byte fetch through the pool, bounds-checked against the
  /// page table: the bytes from `start` on fill `outs` back to back. Each
  /// page is pinned once and each byte copied once, straight from the
  /// pinned page into its destination.
  void ReadBytes(uint64_t start,
                 std::initializer_list<std::span<uint8_t>> outs) const;
  /// Page-spanning byte store through the pager, never the pool: a whole
  /// page is a Pager::Write, a part of one a Pager::Patch (one read and one
  /// write counted, at most one page copy). Each write advances the page's
  /// generation, which invalidates its pool entry.
  void WriteBytes(uint64_t start, std::span<const uint8_t> bytes);
  template <typename T>
  void WriteField(uint64_t off, T v);

  std::vector<uint8_t> EncodeLeaf(const DiskNode& node) const;
  std::vector<uint8_t> EncodeInterior(const DiskNode& node) const;

  /// Allocate a run of page slots covering `bytes` (free slot runs first,
  /// fresh pager pages -- themselves free-list-served -- otherwise) and
  /// register it as a chunk. Returns its page-aligned offset.
  uint64_t AllocChunk(size_t bytes);
  /// Return a chunk's pages to the pager and its slots to the free runs.
  void FreeChunkAt(uint64_t off);
  /// Byte capacity of the allocation holding the node at `off`: the chunk
  /// extent for chunk nodes, 0 (caller falls back to the old record size)
  /// for nodes in the bulk-built packed region.
  size_t AllocCapacity(uint64_t off) const;

  /// Write `bytes` over the node at `off`, relocating into a fresh chunk
  /// (and repointing the parent / root) when they outgrow `old_bytes` and
  /// the node's allocation. Returns the node's (possibly new) offset.
  uint64_t ReplaceNode(uint64_t off, uint64_t parent_off, bool from_left,
                       size_t old_bytes, std::span<const uint8_t> bytes);

  /// Split `local` (row indices into `pts`) in two, mirroring the
  /// in-memory tree: Bregman 2-means first; when that degenerates (one
  /// side empty) fall back to a deterministic median split by divergence
  /// to `center`, so a leaf of non-identical points always splits.
  void SplitLocal(const Matrix& pts, std::span<const uint32_t> local,
                  std::span<const double> center, Rng& rng,
                  std::vector<uint32_t>* left,
                  std::vector<uint32_t>* right) const;

  /// Serialize a freshly built subtree over `local` rows of `pts` (global
  /// ids `global_ids[local[i]]`), mirroring BBTree::Build. Returns the
  /// subtree root's offset.
  uint64_t WriteSubtree(const Matrix& pts,
                        std::span<const uint32_t> global_ids,
                        std::span<const uint32_t> local, Rng& rng);

  void InsertIntoLeaf(uint64_t off, uint64_t parent_off, bool from_left,
                      DiskNode leaf, double widened_radius, uint32_t id,
                      std::span<const double> x);

  /// Ball (center = mean, radius = max divergence), distance statistics
  /// and count of `local` rows of `pts` -- the shared geometry of freshly
  /// built and merged leaves.
  void ComputeBallAndStats(const Matrix& pts,
                           std::span<const uint32_t> local,
                           DiskNode* node) const;

  /// Underflow handling on Delete: when the shrunk leaf and its sibling
  /// (also a leaf) together fit in three quarters of a leaf, replace
  /// their parent by one merged leaf with freshly computed exact
  /// geometry, returning both old records' chunk pages. Keeps the leaf
  /// count -- and with it the disk footprint -- bounded under
  /// insert/delete churn. Returns whether the merge happened (`path` then
  /// shrinks by the leaf level).
  bool TryMergeWithSibling(const DiskNode& leaf,
                           const std::vector<PathFrame>& path);

  bool FindLeafPath(uint64_t off, bool from_left, std::span<const double> x,
                    uint32_t id, std::vector<PathFrame>* path) const;

  /// DebugCheckInvariants recursion; returns the subtree's point count and
  /// accumulates node count and record extents.
  uint32_t CheckSubtree(uint64_t off,
                        std::vector<const DiskNode*>* ancestors,
                        uint64_t* nodes,
                        std::vector<std::pair<uint64_t, uint64_t>>* extents)
      const;

  template <typename Gate>
  std::vector<Neighbor> KnnImpl(std::span<const double> y, size_t k,
                                const PointStore& store, WorkCounters* stats,
                                const Gate& gate) const;

  /// Snapshot-clone constructor (see SnapshotClone).
  DiskBBTree(const DiskBBTree& writer, const PageSource* src);

  Pager* pager_;           // null in snapshot clones (read-only)
  const PageSource* src_;  // where node reads fetch pages from
  size_t page_size_;
  BregmanDivergence div_;
  int bound_iters_;
  size_t max_leaf_size_ = 64;
  int kmeans_iters_ = 10;
  uint64_t insert_seed_ = 0;
  uint64_t num_points_ = 0;
  /// Shared with snapshot clones, so the descent-I/O metric aggregates
  /// across every reader of this tree.
  std::shared_ptr<std::atomic<uint64_t>> full_node_reads_;
  std::vector<PageId> pages_;
  size_t blob_size_ = 0;
  size_t num_nodes_ = 0;
  uint64_t root_offset_ = 0;
  /// Page-aligned mutation allocations: offset -> slots. Writer-only
  /// (empty in clones).
  std::map<uint64_t, uint32_t> chunk_map_;
  /// Reusable slot runs (pages already returned to the pager): start -> len.
  /// Writer-only (empty in clones).
  std::map<size_t, size_t> free_runs_;
  /// Shared with snapshot clones: generation-keyed entries keep versions
  /// from aliasing (see BufferPool).
  std::shared_ptr<BufferPool> pool_;
};

}  // namespace brep

#endif  // BREP_BBTREE_DISK_BBTREE_H_
