#ifndef BREP_CORE_BREPARTITION_H_
#define BREP_CORE_BREPARTITION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bbtree/bbforest.h"
#include "common/epoch_gate.h"
#include "core/bound.h"
#include "core/config.h"
#include "core/optimal_m.h"
#include "core/partition.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"
#include "obs/index_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/pager.h"
#include "storage/snapshot.h"

namespace brep {

/// The paper's contribution: exact high-dimensional kNN search with Bregman
/// distances via the partition-filter-refinement framework. This class is
/// the index itself -- construction, published versions and storage;
/// queries are served by QueryEngine (engine/query_engine.h), which runs
/// Algorithm 6 against a pinned ReadView.
///
/// Construction (Algorithm 5):
///  1. derive the optimized number of partitions M from the fitted cost
///     model (Theorem 4), unless the caller pinned one;
///  2. assign dimensions to subspaces with PCCP (Section 5.2);
///  3. precompute every point's per-subspace tuple P(x) (Algorithm 2);
///  4. build the disk-resident BB-forest over the subspaces (Section 6).
///
/// What a query reads: the per-subspace query triples Q(y) (Algorithm 3,
/// TransformQueryAll), the tuple table for the searching bound (Algorithm
/// 4, ReadView::transformed), and the forest for the per-subspace range
/// filter and the exact refine (ReadView::forest). Theorem 3 guarantees
/// the union of the range results holds the exact kNN.
///
/// The divergence's generator must be PartitionSafe() (everything but KL).
/// `data` must outlive the index (it is referenced by the approximate
/// extension's distribution sampling, not by the exact search path).
class BrePartition {
 private:
  /// One published MVCC version: everything a query reads, immutable.
  /// `pages` and `transformed` are declared before `forest` so the forest
  /// clone (which reads through the snapshot and is bound to the tuple
  /// table) is destroyed first.
  struct IndexVersion {
    uint64_t seq = 0;
    std::shared_ptr<const PageSnapshot> pages;
    TransformedDataset transformed;
    std::shared_ptr<const BBForest> forest;
    size_t live_points = 0;
    /// Epoch stamped when this version was superseded (see EpochGate);
    /// meaningful only once the version sits on the retired list.
    uint64_t retire_epoch = 0;
  };

 public:
  BrePartition(Pager* pager, const Matrix& data, const BregmanDivergence& div,
               const BrePartitionConfig& config);

  /// A pinned, immutable view of the index -- the read side of MVCC.
  ///
  /// Opening a view costs two atomic operations (EpochGate::Pin + one
  /// seq_cst pointer load) and NEVER takes a mutex: the read fleet is
  /// completely off the writer's lock. Everything reachable through the
  /// view (forest clone, tuple table, page snapshot) is immutable; a
  /// concurrent writer publishes new versions without disturbing it, and
  /// epoch reclamation keeps the pinned version alive until the view is
  /// destroyed. Views are cheap but should be scoped to one query or one
  /// batch: a long-lived pin delays page reclamation (the writer retains
  /// every superseded version published since).
  class ReadView {
   public:
    ~ReadView() { owner_->gate_.Unpin(slot_); }
    ReadView(const ReadView&) = delete;
    ReadView& operator=(const ReadView&) = delete;

    /// The snapshot forest clone: the whole filter + refine path.
    const BBForest& forest() const { return *v_->forest; }
    /// The tuple table as of this version (the bound phase's input).
    const TransformedDataset& transformed() const { return v_->transformed; }
    /// The page snapshot the forest clone reads through.
    const PageSnapshot& pages() const { return *v_->pages; }
    /// Live points as of this version (the consistent k clamp).
    size_t num_points() const { return v_->live_points; }
    /// Monotonic publish sequence number (for prefix-consistency checks).
    uint64_t seq() const { return v_->seq; }

   private:
    friend class BrePartition;
    explicit ReadView(const BrePartition* owner)
        : owner_(owner),
          slot_(owner->gate_.Pin()),
          v_(owner->current_.load(std::memory_order_seq_cst)) {}

    const BrePartition* owner_;
    size_t slot_;
    const IndexVersion* v_;
  };

  /// Pin the most recently published version. Lock-free; the view must not
  /// outlive the index.
  ReadView OpenReadView() const { return ReadView(this); }

  /// OpenReadView, heap-allocated: for callers that need to pick the unpin
  /// point explicitly rather than scope it (the non-blocking checkpoint
  /// holds one across its off-lock copy; tests hold one across writer
  /// churn). ReadView itself is deliberately non-movable.
  std::unique_ptr<ReadView> OpenReadViewHandle() const {
    return std::unique_ptr<ReadView>(new ReadView(this));
  }

  BrePartition(const BrePartition&) = delete;
  BrePartition& operator=(const BrePartition&) = delete;

  /// Persist the index superstructure -- partitioning, divergence spec,
  /// cost-model fit, transformed tuples, point-store placement, per-tree
  /// page lists -- into catalog pages on the pager and commit it. On a
  /// FilePager this is the durability point: a later process can Open()
  /// the file and serve immediately; on a MemPager it enables a
  /// same-process Open() (used by tests).
  ///
  /// Save writes a fresh catalog run, repoints the superblock at it and
  /// then frees the previous run (so repeated saves recycle pages instead
  /// of growing the disk). Takes the writer mutex: the committed catalog
  /// is always a consistent snapshot even while readers and a writer are
  /// active. Readers are never blocked -- they keep serving from their
  /// pinned versions; Save only waits for pins of versions OLDER than the
  /// one it publishes before flushing shadow pages to the backend.
  ///
  /// `durable_lsn` stamps the committed catalog with the WAL watermark
  /// this snapshot includes (see CatalogRef::durable_lsn); 0 for indexes
  /// not running under a WAL.
  void Save(uint64_t durable_lsn = 0) const;

  /// Save, then page-copy this index (all pages, the committed catalog
  /// reference and the free-list head) onto `out`, which must be a fresh
  /// empty pager of the same page size. The whole sequence holds the
  /// writer mutex, so the copy can never interleave with a concurrent
  /// Insert/Delete and tear the written file.
  void SaveTo(Pager* out, uint64_t durable_lsn = 0) const;

  /// Re-attach to an index previously Save()d on `pager` with ZERO rebuild
  /// work: no cost-model fit, no PCCP, no point transform, no forest
  /// construction or serialization -- only the catalog pages are read.
  /// Returns nullptr and sets `*error` if the pager has no committed
  /// catalog or the catalog fails validation (corruption).
  ///
  /// The reopened index has no raw data matrix attached (has_data() is
  /// false): exact kNN/range serving works entirely from the point store.
  /// Only the approximate extension, which samples raw rows, requires an
  /// index constructed from data.
  static std::unique_ptr<BrePartition> Open(Pager* pager,
                                            std::string* error = nullptr);

  /// Dynamic updates (the paper's future-work extension) ----------------
  ///
  /// Insert routes the raw point through the stored divergence transform
  /// (Algorithm 2) into the tuple table, the point store and every
  /// subspace tree; Delete tombstones it everywhere and poisons its tuple
  /// row so the bound phase never selects it. Ids of deleted points are
  /// reused by later inserts, keeping the tuple table dense. Both
  /// serialize on writer_mutex() and publish a fresh version before
  /// returning, so every subsequently opened ReadView observes the update;
  /// in-flight readers keep their pinned version (snapshot isolation).
  /// Works on a reopened index too (no data matrix required).

  /// Outcome of a Delete (updates can be refused without aborting).
  enum class UpdateOutcome : uint8_t { kApplied, kNotFound, kFrozen };

  /// Insert a point; returns its assigned id, or nullopt when updates are
  /// frozen (see FreezeUpdates). The point must be in the divergence
  /// domain and have dim() coordinates (checked).
  std::optional<uint32_t> Insert(std::span<const double> x);

  /// Remove a live point by id.
  UpdateOutcome Delete(uint32_t id);

  /// Locked update API -------------------------------------------------
  ///
  /// The write-ahead-log layer (api/durable_index) must order "append the
  /// redo record" and "apply to the index" inside ONE writer_mutex()
  /// section -- two facade writers interleaving between the two steps
  /// would make the log order diverge from the apply order, and recovery
  /// replays hundreds of records without paying a lock round-trip per
  /// record. The caller of every *Locked member holds writer_mutex(); the
  /// unlocked wrappers above are lock-then-call shims over these.
  ///
  /// InsertLocked/DeleteLocked do NOT publish: a caller applying a batch
  /// under one lock acquisition publishes once at the end via
  /// PublishVersionLocked() (the unlocked wrappers publish per call).

  /// The id the next InsertLocked will assign (tombstone reuse first, else
  /// the id space grows). Deterministic, which is what makes logical WAL
  /// replay reproduce the exact pre-crash id assignment.
  uint32_t NextInsertIdLocked() const;
  std::optional<uint32_t> InsertLocked(std::span<const double> x);
  UpdateOutcome DeleteLocked(uint32_t id);
  bool ContainsLocked(uint32_t id) const { return forest_->Contains(id); }
  bool UpdatesFrozenLocked() const { return updates_frozen_; }
  /// SaveTo's body; exposed so a WAL checkpoint can snapshot the index and
  /// reset the log under one lock acquisition.
  void SaveToLocked(Pager* out, uint64_t durable_lsn) const;

  /// Phase 1 of a NON-BLOCKING checkpoint: commit the catalog on the
  /// serving pager (SaveLocked, stamped `durable_lsn`) and pin the
  /// resulting published version. The caller releases writer_mutex() and
  /// copies ReadView::pages() into the target file with no lock held --
  /// writers keep publishing, readers never notice. Destroying the
  /// returned view is a single atomic unpin, safe from any thread.
  std::unique_ptr<ReadView> CheckpointViewLocked(uint64_t durable_lsn) const;

  /// Result of FreezeUpdates: whether THIS call performed the transition
  /// (so only that caller may undo it on failure -- unfreezing on behalf
  /// of an earlier, still-live view would unpin it).
  enum class FreezeOutcome : uint8_t { kFroze, kAlreadyFrozen, kMutated };

  /// Pin the index read-only on behalf of an approximate view, which
  /// samples the construction-time data matrix and would silently describe
  /// the wrong point set after updates. kMutated if the index has already
  /// been mutated. The check and the freeze happen under one exclusive
  /// lock acquisition, so no insert can slip between them.
  FreezeOutcome FreezeUpdates() const;
  /// Undo a FreezeUpdates that returned kFroze and whose caller failed to
  /// construct its view.
  void UnfreezeUpdates() const;

  /// Whether `id` is currently indexed.
  bool Contains(uint32_t id) const;

  /// Lifetime (inserts, deletes); caller holds writer_mutex(), so the pair
  /// is consistent with anything else it reads under the same acquisition.
  std::pair<uint64_t, uint64_t> UpdateTotalsLocked() const {
    return {inserts_, deletes_};
  }

  /// The narrow writer mutex: Insert/Delete/Save/the WAL facade serialize
  /// on it. Readers never acquire it -- queries pin a ReadView instead
  /// (see OpenReadView), which is what keeps the read fleet off the
  /// writer's lock entirely.
  std::mutex& writer_mutex() const { return writer_mu_; }

  /// Publish the current writer state as a new immutable version and
  /// retire the previous one; caller holds writer_mutex(). Cheap (COW
  /// spine copies, no page I/O). Exposed so a facade applying a WAL batch
  /// publishes once per batch instead of once per record.
  void PublishVersionLocked() const;

  /// Observability (src/obs/): ONE registry and trace log per index, shared
  /// by every engine and facade handle serving it -- so counters aggregate
  /// across all serving paths automatically. The hot paths record through
  /// index_metrics() (pre-resolved handles); the registry itself is only
  /// touched at registration and snapshot time.
  obs::MetricRegistry& metric_registry() const { return registry_; }
  const obs::IndexMetrics& index_metrics() const { return im_; }
  obs::TraceLog& trace_log() const { return trace_; }

  /// Full metrics snapshot: the registry plus gauges and component-owned
  /// metrics (update totals, pager I/O + free-list, file latencies when the
  /// backing pager is a FilePager, buffer-pool traffic, snapshot/version
  /// lifecycle, slow-query log counters). Takes writer_mutex(), so the
  /// plain members it reads (page counts, free-list length, update totals,
  /// the retired-version list) can never tear against a live writer. The
  /// *Locked variant is for callers already holding it.
  obs::MetricsSnapshot CollectMetrics() const;
  obs::MetricsSnapshot CollectMetricsLocked() const;

  /// Whole-index structural self-check: forest invariants (ball
  /// containment, occupancy, counts, chunk tables), id-space consistency
  /// (every id is live exactly-or tombstoned exactly-once), and pager page
  /// accounting -- every page is referenced by exactly one structure
  /// (store, a tree, the committed catalog) or sits on the free-list,
  /// which must be acyclic. Aborts with a message on violation. Compiled
  /// always; tests call it after every update batch and after Open.
  void DebugCheckInvariants() const;

  size_t num_partitions() const { return partitions_.size(); }
  const Partitioning& partitioning() const { return partitions_; }
  const CostModelFit& cost_model() const { return fit_; }
  const BBForest& forest() const { return *forest_; }
  const BregmanDivergence& divergence() const { return div_; }
  /// Number of live indexed points (available with or without a data
  /// matrix; decreases on Delete, increases on Insert). Atomic so the
  /// facade's argument validation may read it without the update lock; a
  /// value observed outside the lock is advisory (a racing writer may
  /// change it before a query acquires the shared side -- the query paths
  /// re-clamp k under the lock).
  size_t num_points() const {
    return live_points_.load(std::memory_order_relaxed);
  }
  /// Size of the id space: ids in [0, id_space()) are live or tombstoned.
  size_t id_space() const { return transformed_.num_points(); }
  /// Whether the raw data matrix is attached (false after Open()).
  bool has_data() const { return data_ != nullptr; }
  const Matrix& data() const;
  /// The WRITER's tuple table. Safe from the writer side (under
  /// writer_mutex()) or while no writer runs; readers use
  /// ReadView::transformed() instead.
  const TransformedDataset& transformed() const { return transformed_; }
  Pager* pager() const { return pager_; }

  /// The query transform (the bound phase's input) --------------------

  /// Per-subspace query subvectors (Algorithm 6 line 2: "rearrange").
  std::vector<std::vector<double>> GatherQuery(std::span<const double> y) const;

  /// Per-subspace query triples (Algorithm 3).
  std::vector<QueryTriple> TransformQueryAll(
      std::span<const std::vector<double>> y_subs) const;

 private:
  /// Open() path: remaining members are filled from the decoded catalog.
  explicit BrePartition(BregmanDivergence div) : div_(std::move(div)) {}

  /// Catalog serialization + commit; caller holds the writer mutex.
  void SaveLocked(uint64_t durable_lsn) const;

  /// Drop retired versions no active pin can still reference; caller
  /// holds the writer mutex (all version shared_ptr drops happen under it,
  /// which is what makes the COW use_count checks exact).
  void ReclaimRetiredLocked() const;

  /// Spin until every retired version is reclaimable, then drop them all.
  /// Called before FlushToBase: a version older than the flush could read
  /// post-flush backend bytes through its table's backend references.
  void DrainRetiredLocked() const;

  Pager* pager_ = nullptr;
  const Matrix* data_ = nullptr;
  BregmanDivergence div_;
  BrePartitionConfig config_;
  CostModelFit fit_;
  Partitioning partitions_;
  std::vector<BregmanDivergence> sub_divs_;
  TransformedDataset transformed_;
  std::unique_ptr<BBForest> forest_;
  /// Tombstoned ids available for reuse (last deleted first).
  std::vector<uint32_t> free_ids_;
  /// Mutated under the exclusive lock; readable lock-free (see
  /// num_points()).
  std::atomic<size_t> live_points_{0};
  uint64_t inserts_ = 0;
  uint64_t deletes_ = 0;
  /// Set by FreezeUpdates (approximate views); guarded by writer_mu_.
  mutable bool updates_frozen_ = false;
  /// Writers only (see writer_mutex()); readers pin ReadViews.
  mutable std::mutex writer_mu_;

  /// MVCC version chain, all guarded by writer_mu_ except current_ (the
  /// lock-free publication point readers load through).
  mutable EpochGate gate_;
  mutable std::atomic<const IndexVersion*> current_{nullptr};
  mutable std::shared_ptr<IndexVersion> live_version_;
  mutable std::vector<std::shared_ptr<IndexVersion>> retired_;
  mutable uint64_t version_seq_ = 0;
  /// Observability state (default member init covers both the build and
  /// the Open() constructor). registry_ must precede im_.
  mutable obs::MetricRegistry registry_;
  obs::IndexMetrics im_ = obs::RegisterIndexMetrics(registry_);
  mutable obs::TraceLog trace_;
};

}  // namespace brep

#endif  // BREP_CORE_BREPARTITION_H_
