#ifndef BREP_SHARD_SHARDED_INDEX_H_
#define BREP_SHARD_SHARDED_INDEX_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/index.h"
#include "api/search_index.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "shard/manifest.h"

/// \file
/// Scale-out serving: hash-partition one logical index across N independent
/// brep::Index shards and serve the uniform SearchIndex surface over them.
///
/// The point with id g lives on shard g % N as local id g / N, so routing
/// is a modulo, the per-shard id spaces never collide, and a shard's
/// ascending local order IS ascending global order -- which is what makes
/// scatter-gather answers byte-identical (ids AND distances) to one big
/// index over the same data: every shard runs the identical exact refine
/// code, and the global TopK merge applies the same (distance, id) total
/// order the unsharded index uses.
///
/// Each shard owns its full vertical slice -- pager, WAL, MVCC writer
/// mutex, metric registry -- so writers routed to different shards never
/// touch a shared lock; the facade's only cross-shard write state is one
/// atomic round-robin insert cursor. Checkpoints cover all shards as a
/// unit through the generation-stamped manifest (see shard/manifest.h):
/// snapshot every shard, commit the manifest, and only then truncate the
/// per-shard logs.

namespace brep {

struct ShardedIndexOptions {
  /// Number of shards (>= 1). Open() takes the authoritative count from
  /// the manifest; this value is ignored there.
  size_t num_shards = 2;
  /// Per-shard construction options. With durability on, `wal_path` is a
  /// prefix: shard k logs to "<wal_path>.shard<k>".
  IndexOptions shard;
  /// Scatter-gather pool threads (0 = hardware concurrency). The pool is
  /// shared by concurrent callers; each call claims shards (or batch rows)
  /// dynamically.
  size_t threads = 0;
};

class ShardedIndex final : public SearchIndex {
 public:
  /// Build over `data`, assigning row i to shard i % N as local id i / N,
  /// so global ids equal row ids exactly like an unsharded Build. Requires
  /// data.rows() >= num_shards (every shard must hold at least one point).
  static StatusOr<std::unique_ptr<ShardedIndex>> Build(
      const Matrix& data, const std::string& divergence,
      const ShardedIndexOptions& options = {});

  /// Reopen the manifest at `path` and every shard it names. A torn or
  /// missing manifest falls back to the "<path>.prev" generation (see
  /// recovered_from_prev_manifest()); with durability on, each shard then
  /// replays its own WAL forward, so the fallback still recovers every
  /// durable write. `options.num_shards` is ignored -- the manifest knows.
  static StatusOr<std::unique_ptr<ShardedIndex>> Open(
      const std::string& path, const ShardedIndexOptions& options = {});

  /// Checkpoint all shards as a unit: snapshot every shard under the next
  /// generation number, atomically commit the manifest naming all of them,
  /// THEN truncate each shard's WAL at its snapshot watermark (only when
  /// `path` is this index's home manifest -- a Save elsewhere is a
  /// consistent copy that leaves the logs alone). A crash anywhere in the
  /// sequence recovers from a committed manifest plus intact logs. On a
  /// durable Build this first Save is what unlocks Insert/Delete, exactly
  /// like brep::Index.
  Status Save(const std::string& path) const;

  // Routing (static so tests and tools can reason about placement).
  static size_t ShardOf(uint32_t global_id, size_t num_shards) {
    return global_id % num_shards;
  }
  static uint32_t LocalId(uint32_t global_id, size_t num_shards) {
    return global_id / static_cast<uint32_t>(num_shards);
  }
  static uint32_t GlobalId(uint32_t local_id, size_t shard,
                           size_t num_shards) {
    return local_id * static_cast<uint32_t>(num_shards) +
           static_cast<uint32_t>(shard);
  }

  size_t num_shards() const { return shards_.size(); }
  const Index& shard(size_t i) const { return *shards_[i]; }
  Index& shard(size_t i) { return *shards_[i]; }
  /// Manifest generation this index serves (0 before the first Save).
  uint64_t generation() const;
  /// Whether Open() had to fall back to the preserved previous manifest.
  bool recovered_from_prev_manifest() const { return fell_back_; }

  // SearchIndex surface ---------------------------------------------------
  std::string Describe() const override;
  size_t dim() const override;
  size_t num_points() const override;
  bool exact() const override { return true; }

  /// Cluster-wide view: every shard's counters and latency histograms
  /// summed by name, size gauges summed, plus the facade's own series
  /// (shard count, per-shard point gauges, scatter/merge latencies).
  obs::MetricsSnapshot Metrics() const override;
  /// All shards' slow-call traces, concatenated in shard order.
  std::vector<obs::QueryTraceEntry> SlowQueries() const override;

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

 protected:
  /// Every shard is built over the same divergence; validate against
  /// shard 0's so a rejected vector never scatters.
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
  /// Scatter join: every shard runs its own dual-tree join over R (with k
  /// clamped to the shard's population), then the per-R-row lists merge
  /// through the global (distance, id) TopK -- byte-identical to one big
  /// index over the same data, like the query paths.
  StatusOr<JoinResult> KnnJoinImpl(const Matrix& r, size_t k,
                                   Stats* stats) const override;
  /// Writes route by id: inserts round-robin over shards (one atomic
  /// cursor, no shared lock -- writers on distinct shards proceed in
  /// parallel), deletes to shard id % N. The assigned global id is the
  /// shard's local id mapped back through GlobalId().
  StatusOr<uint32_t> InsertImpl(std::span<const double> point,
                                Stats* stats) override;
  Status DeleteImpl(uint32_t id, Stats* stats) override;

 private:
  ShardedIndex(std::vector<std::unique_ptr<Index>> shards, size_t threads);

  /// One query's scatter-gather; `parallel` fans the shard scatter over
  /// the pool (single-query path) or runs it inline (batch rows already
  /// occupy the lanes).
  Status KnnOne(std::span<const double> y, size_t k, bool parallel,
                std::vector<Neighbor>* out, Stats* stats) const;
  Status RangeOne(std::span<const double> y, double radius, bool parallel,
                  std::vector<uint32_t>* out, Stats* stats) const;

  std::vector<std::unique_ptr<Index>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  bool durable_ = false;
  bool fell_back_ = false;
  /// Round-robin insert cursor (the facade's only cross-shard write state).
  std::atomic<uint64_t> next_shard_{0};
  /// Checkpoint bookkeeping, guarded by save_mutex_: the current manifest
  /// generation and the canonicalized home manifest path (whose Save
  /// truncates the logs).
  mutable std::mutex save_mutex_;
  mutable uint64_t generation_ = 0;
  mutable std::string home_path_;
  /// Facade-owned series (scatter/merge latencies).
  mutable obs::MetricRegistry registry_;
  obs::LatencyHistogram* scatter_latency_ = nullptr;
  obs::LatencyHistogram* merge_latency_ = nullptr;
};

}  // namespace brep

#endif  // BREP_SHARD_SHARDED_INDEX_H_
