#ifndef BREP_API_INDEX_H_
#define BREP_API_INDEX_H_

#include <memory>
#include <string>
#include <utility>

#include "api/durable_index.h"
#include "api/search_index.h"
#include "api/status.h"
#include "core/config.h"
#include "core/optimal_m.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"

/// \file
/// The facade over the paper's index: builder-style construction, typed
/// errors end to end, file persistence that owns its storage, and a
/// parallel serving handle that routes batches through the concurrent
/// query engine. The classes underneath (BrePartition, FilePager,
/// QueryEngine) remain the implementation layer; nothing here hides them,
/// but nothing outside src/ should need them directly.

namespace brep {

class BrePartition;
class Pager;
class QueryEngine;
class ParallelIndex;

/// Options for Index::Build beyond the core construction config.
struct IndexOptions {
  BrePartitionConfig config;
  /// Page size of the backing (simulated or real) disk. Table 4 of the
  /// paper uses 32-128 KB depending on the dataset.
  size_t page_size = 32 * 1024;
  /// Crash safety (see api/durable_index.h). With a wal_path set, every
  /// Insert/Delete is logged (and per fsync_mode synced) before it touches
  /// the index; Save(path) is the checkpoint that resets the log. A
  /// freshly built index must checkpoint once before accepting writes --
  /// the log can only be replayed against a durable base state.
  DurabilityOptions durability;
  /// Slow-call tracing (see obs::TraceLog): calls whose total latency is
  /// >= this many milliseconds land in the in-memory slow-query ring with
  /// their full span breakdown. 0 traces every call (walkthroughs, tests).
  double slow_query_threshold_ms = 100.0;
  /// Entries the slow-query ring retains (newest evicts oldest); 0
  /// disables retention while still counting slow calls.
  size_t trace_capacity = 128;
};

/// An exact BrePartition index that owns its storage. Build from data,
/// Save to a file, Open from a file, search through the uniform
/// SearchIndex surface, or grab a Parallel handle for batch serving.
///
/// `data` passed to Build is referenced (not copied) only by the
/// approximate extension; exact serving works entirely from the index's
/// own point store, so the matrix may be dropped after Build unless
/// Approximate() is needed.
class Index final : public SearchIndex {
 public:
  /// Build over `data` with an explicit divergence.
  static StatusOr<Index> Build(const Matrix& data,
                               const BregmanDivergence& divergence,
                               const IndexOptions& options = {});

  /// Build with the divergence given by factory name ("itakura_saito",
  /// "exponential", "squared_l2", "lp:3", ...).
  static StatusOr<Index> Build(const Matrix& data,
                               const std::string& divergence,
                               const IndexOptions& options = {});

  /// Reopen an index previously Save()d at `path`, owning the file pager.
  /// Zero rebuild work: only the catalog pages are read. kNotFound when no
  /// file exists, kDataLoss when the file fails validation.
  static StatusOr<Index> Open(const std::string& path);

  /// Crash recovery: reopen the checkpoint at `path`, then replay the WAL
  /// suffix past the checkpoint through the ordinary insert/delete path,
  /// restoring every durable write that never made it into a Save. Zero
  /// REBUILD work either way; replay work is proportional to the log
  /// suffix (zero right after a checkpoint -- see recovery()). The index
  /// serves from a memory snapshot and `path` becomes the checkpoint
  /// target: Save(path) persists state + resets the log. kDataLoss when
  /// the log is corrupted mid-stream or does not match the checkpoint;
  /// torn log tails (a crash mid-append) are cut cleanly.
  static StatusOr<Index> Open(const std::string& path,
                              const DurabilityOptions& durability);

  /// Persist to `path`: commits the index catalog and, when the index is
  /// not already backed by that file, copies every page into a freshly
  /// created paged file. Build-once / save-once / serve-many.
  Status Save(const std::string& path) const;

  /// Persist a consistent snapshot to `path` (atomic tmp + rename, like
  /// Save) WITHOUT resetting the WAL, and return the log watermark the
  /// snapshot is stamped with (0 when durability is off). The building
  /// block of multi-index checkpoint protocols -- the sharded manifest
  /// saves every shard's snapshot, commits the manifest, and only THEN
  /// hands each watermark back to TruncateWal -- so every crash window
  /// still recovers from the previous checkpoint plus the intact logs. On
  /// a durable index with no checkpoint yet this IS the first checkpoint:
  /// it attaches the log and unlocks writes, exactly like Save.
  StatusOr<uint64_t> SaveSnapshot(const std::string& path) const;

  /// Reset the WAL after an external protocol made the snapshot stamped
  /// `lsn` (from SaveSnapshot) durable as a unit: truncates the log iff no
  /// write landed past `lsn` (otherwise the log keeps growing until the
  /// next checkpoint, which is always safe). No-op without a WAL.
  Status TruncateWal(uint64_t lsn) const;

  /// A handle that serves batches through the concurrent QueryEngine with
  /// `threads` total threads (0 = hardware concurrency); its single-query
  /// path fans the per-subspace filter out across the pool. Results are
  /// byte-identical to this index's sequential answers at every thread
  /// count. The handle borrows this index, which must outlive it.
  StatusOr<ParallelIndex> Parallel(size_t threads = 0) const;

  /// The approximate (ABP) view with a probability guarantee; borrows this
  /// index. kFailedPrecondition on an index reopened from a file (no raw
  /// data rows to sample) or on a mutated index (the sampled distributions
  /// would describe the wrong point set). Once issued, the view pins the
  /// index read-only: later Insert/Delete calls fail with
  /// kFailedPrecondition.
  StatusOr<std::unique_ptr<SearchIndex>> Approximate(
      const ApproximateConfig& config) const;

  /// Lifetime insert/delete lanes of this index, plus the WAL lanes
  /// (appends/fsyncs/replayed) when durability is on. All are read under
  /// one writer-mutex acquisition, so no write lands between them.
  Stats UpdateStats() const;

  /// Whether this index runs under a write-ahead log.
  bool durable() const { return durability_.enabled(); }
  /// What recovery replayed when this index was opened (all-zero for a
  /// fresh build or an open right after a checkpoint).
  const WalRecoveryStats& recovery() const { return recovery_; }
  /// Lifetime WAL writer counters (zeroes when durability is off).
  WalWriter::Stats wal_stats() const;
  /// Highest log LSN known durable (0 when durability is off).
  uint64_t wal_durable_lsn() const;

  /// Everything this index exports: the shared per-index registry (query
  /// counters + latency histograms), storage series (pager I/O, buffer
  /// pools, real-file read/write/sync latencies), and -- when durability
  /// is on -- the WAL and recovery series. One consistent collection pass
  /// under the shared update lock; safe concurrently with serving.
  obs::MetricsSnapshot Metrics() const override;

  /// Recent traced calls, oldest first (calls slower than the slow-query
  /// threshold; see IndexOptions::slow_query_threshold_ms).
  std::vector<obs::QueryTraceEntry> SlowQueries() const override;

  /// Re-arm tracing at runtime (applies to every engine and Parallel()
  /// handle over this index, which share the trace log).
  void SetSlowQueryThreshold(double ms);
  void SetTraceCapacity(size_t entries);

  // SearchIndex surface ---------------------------------------------------
  std::string Describe() const override;
  size_t dim() const override;
  size_t num_points() const override;
  bool exact() const override { return true; }

  size_t num_partitions() const;
  const CostModelFit& cost_model() const;
  const BregmanDivergence& divergence() const;

  /// Implementation-layer escape hatch (stats plumbing, engine internals).
  const BrePartition& impl() const { return *bp_; }

  Index(Index&&) noexcept;
  Index& operator=(Index&&) noexcept;
  ~Index() override;

 protected:
  const BregmanDivergence* QueryDivergence() const override {
    return &divergence();
  }
  StatusOr<std::vector<Neighbor>> KnnImpl(std::span<const double> y, size_t k,
                                          Stats* stats) const override;
  StatusOr<std::vector<uint32_t>> RangeImpl(std::span<const double> y,
                                            double radius,
                                            Stats* stats) const override;
  /// Native dual-tree join over a pinned read snapshot (see
  /// join/dual_tree.h). Sequential descent; Parallel() handles run the
  /// same descent over their pool.
  StatusOr<JoinResult> KnnJoinImpl(const Matrix& r, size_t k,
                                   Stats* stats) const override;
  /// Dynamic updates: route through BrePartition under its exclusive
  /// update lock (QueryEngine readers hold the shared side), so Parallel()
  /// handles keep serving consistent snapshots while writes stream in.
  /// With durability on, the same exclusive section first appends (and per
  /// fsync_mode syncs) the WAL record, THEN applies -- log order and apply
  /// order can never diverge, and readers still only observe
  /// operation-boundary states.
  StatusOr<uint32_t> InsertImpl(std::span<const double> point,
                                Stats* stats) override;
  Status DeleteImpl(uint32_t id, Stats* stats) override;

 private:
  Index(std::unique_ptr<Pager> pager, std::unique_ptr<BrePartition> bp);

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BrePartition> bp_;
  /// One-thread engine serving every kNN and range call; its single-query
  /// entries are re-entrant, so concurrent callers share it.
  std::unique_ptr<QueryEngine> engine_;
  /// Durability state (wal_ stays null until the first checkpoint gives
  /// the log a base to replay against; mutable because Save() const is
  /// the checkpoint). home_path_ is the canonicalized checkpoint target
  /// whose Save resets the log; Saves to other paths just stamp a
  /// snapshot. Both are guarded by bp_->writer_mutex(): the first
  /// checkpoint publishes them under it, and every facade path that reads
  /// them takes the same mutex (query paths never touch either).
  DurabilityOptions durability_;
  mutable std::unique_ptr<WalWriter> wal_;
  mutable std::string home_path_;
  WalRecoveryStats recovery_;
};

/// Builder-style construction: every setter validates its argument and the
/// first invalid one is reported by Build() (setters keep chaining either
/// way, so call sites stay fluent).
///
///   BREP_ASSIGN_OR_RETURN(Index index, IndexBuilder("itakura_saito")
///                                          .Partitions(8)
///                                          .PageSize(64 << 10)
///                                          .Build(data));
class IndexBuilder {
 public:
  IndexBuilder() = default;
  explicit IndexBuilder(std::string divergence)
      : divergence_(std::move(divergence)) {}

  /// Divergence by factory name; validated against the factory at Build().
  IndexBuilder& Divergence(std::string name);
  /// Pin the number of partitions M (0 = derive via Theorem 4).
  IndexBuilder& Partitions(size_t m);
  /// Clamp the derived M into [min_m, max_m] (only meaningful while M is
  /// derived).
  IndexBuilder& DerivedPartitionBounds(size_t min_m, size_t max_m);
  IndexBuilder& Strategy(PartitionStrategy strategy);
  /// Samples for the cost-model fit (the paper uses 50).
  IndexBuilder& FitSamples(size_t samples);
  IndexBuilder& PageSize(size_t bytes);
  /// Buffer-pool pages per subspace tree.
  IndexBuilder& PoolPages(size_t pages);
  IndexBuilder& MaxLeafSize(size_t points);
  IndexBuilder& Seed(uint64_t seed);
  /// Crash safety: log every write to `durability.wal_path` (see
  /// IndexOptions::durability). Validated at Build().
  IndexBuilder& Durability(DurabilityOptions durability);
  /// Slow-call tracing threshold in milliseconds (0 traces everything;
  /// must be finite and >= 0).
  IndexBuilder& SlowQueryThreshold(double ms);
  /// Slow-query ring capacity (0 counts without retaining).
  IndexBuilder& TraceCapacity(size_t entries);

  /// First setter error, or OK.
  const Status& status() const { return status_; }

  StatusOr<Index> Build(const Matrix& data) const;

 private:
  IndexBuilder& Fail(Status status);

  std::string divergence_ = "squared_l2";
  IndexOptions options_;
  Status status_;
};

/// Concurrent serving handle over an Index (see Index::Parallel): the same
/// validated SearchIndex surface, with batches parallelized across queries
/// and single-query filters fanned out per subspace tree.
class ParallelIndex final : public SearchIndex {
 public:
  std::string Describe() const override;
  size_t dim() const override;
  size_t num_points() const override;
  bool exact() const override { return true; }

  /// Threads serving a call, including the caller.
  size_t threads() const;

  /// The underlying index's snapshot (the registry is shared: queries
  /// through this handle and through the owning Index land in the same
  /// series). WAL/recovery series are the owning Index's to export.
  obs::MetricsSnapshot Metrics() const override;
  std::vector<obs::QueryTraceEntry> SlowQueries() const override;

  ParallelIndex(ParallelIndex&&) noexcept;
  ParallelIndex& operator=(ParallelIndex&&) noexcept;
  ~ParallelIndex() override;

 protected:
  const BregmanDivergence* QueryDivergence() const override;
  StatusOr<std::vector<Neighbor>> KnnImpl(std::span<const double> y, size_t k,
                                          Stats* stats) const override;
  StatusOr<std::vector<uint32_t>> RangeImpl(std::span<const double> y,
                                            double radius,
                                            Stats* stats) const override;
  StatusOr<std::vector<std::vector<Neighbor>>> KnnBatchImpl(
      const Matrix& queries, size_t k, Stats* stats) const override;
  StatusOr<std::vector<std::vector<uint32_t>>> RangeBatchImpl(
      const Matrix& queries, double radius, Stats* stats) const override;
  /// The same dual-tree join as Index, with the R-subtree tasks spread
  /// over the engine's worker pool (byte-identical results at any thread
  /// count by construction).
  StatusOr<JoinResult> KnnJoinImpl(const Matrix& r, size_t k,
                                   Stats* stats) const override;

 private:
  friend class Index;
  explicit ParallelIndex(std::unique_ptr<QueryEngine> engine);

  std::unique_ptr<QueryEngine> engine_;
};

}  // namespace brep

#endif  // BREP_API_INDEX_H_
