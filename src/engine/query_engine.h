#ifndef BREP_ENGINE_QUERY_ENGINE_H_
#define BREP_ENGINE_QUERY_ENGINE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/top_k.h"
#include "common/work_counters.h"
#include "core/brepartition.h"
#include "core/stats.h"
#include "dataset/matrix.h"
#include "engine/thread_pool.h"

namespace brep {

struct QueryEngineOptions {
  /// Total threads serving a call (workers + the calling thread).
  /// 0 means hardware_concurrency; 1 means strictly sequential execution
  /// on the caller (the reference mode every parallel result is checked
  /// against).
  size_t num_threads = 0;
  /// For single-query calls, fan the per-subspace filter out across the
  /// pool (one task per subspace tree). Batched calls parallelize across
  /// queries instead and run each query's filter serially.
  bool parallel_filter = true;
};

/// Concurrent serving layer over a BrePartition index.
///
/// The paper's query pipeline (Algorithm 6) is bound -> filter -> refine,
/// and the filter step is embarrassingly parallel: the M subspace trees are
/// independent read-only structures. The engine exploits that two ways:
///
///  * KnnSearch / RangeSearch (single query): one filter task per subspace
///    tree, candidate union/intersection merged on the caller.
///  * KnnSearchBatch / RangeSearchBatch: one task per query; each query
///    runs the full sequential pipeline on one lane, which scales better
///    than per-subspace fan-out once the batch is at least as wide as the
///    pool.
///
/// Results are byte-identical to the sequential BrePartition::KnnSearch for
/// every thread count: per-tree search is deterministic, the candidate
/// union is sorted and deduplicated before refinement, and TopK breaks
/// distance ties by id.
///
/// Consistency: every entry point pins ONE BrePartition::ReadView for the
/// whole call -- batches included -- so all queries of a batch observe one
/// published index version, without any query path ever acquiring the
/// writer's mutex (reads are lock-free; a churning writer cannot stall
/// them).
///
/// Thread-safety: concurrent calls into one QueryEngine are not supported
/// (the engine parallelizes internally and reuses per-lane work slots);
/// the underlying index IS safe to share between several engines because
/// DiskBBTree/BufferPool/Pager reads are re-entrant. Caveat when sharing:
/// `io_reads` and the pool counters in QueryStats are deltas over counters
/// shared by the whole index, so engines running concurrently over one
/// index count each other's reads -- results stay exact, but attribute
/// per-engine I/O only when one engine is active at a time.
class QueryEngine {
 public:
  /// `index` must outlive the engine.
  explicit QueryEngine(const BrePartition& index,
                       const QueryEngineOptions& options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Threads serving a call, including the caller.
  size_t num_threads() const { return pool_.num_lanes(); }
  const BrePartition& index() const { return *index_; }
  /// The engine's worker pool, for callers that schedule their own
  /// independent tasks over it (the kNN-join's R-subtree descents). Same
  /// caveat as the engine itself: one call at a time.
  ThreadPool& thread_pool() const { return pool_; }

  /// Exact kNN, identical to BrePartition::KnnSearch; the filter phase
  /// fans out across the pool when parallel_filter is set.
  std::vector<Neighbor> KnnSearch(std::span<const double> y, size_t k,
                                  QueryStats* stats = nullptr) const;

  /// Exact kNN for every row of `queries`, parallel across queries.
  /// `stats`, when supplied, receives the batch aggregate: the queries'
  /// work summed over the lanes, the storage counters measured once around
  /// the batch, and the batch wall clock in `total_ms`. The logical
  /// counters are identical for every thread count; the storage counters
  /// are not, because the lanes share the node caches.
  std::vector<std::vector<Neighbor>> KnnSearchBatch(
      const Matrix& queries, size_t k, QueryStats* stats = nullptr) const;

  /// Exact range query: ids with D(x, y) <= radius, ascending. Because the
  /// divergence decomposes as a sum of non-negative per-subspace terms,
  /// every qualifying point satisfies D_m(x_m, y_m) <= radius in EVERY
  /// subspace, so the filter intersects the per-tree range results (a
  /// tighter candidate set than the kNN union) before exact refinement.
  std::vector<uint32_t> RangeSearch(std::span<const double> y, double radius,
                                    QueryStats* stats = nullptr) const;

  /// Range query for every row of `queries`, parallel across queries.
  std::vector<std::vector<uint32_t>> RangeSearchBatch(
      const Matrix& queries, double radius,
      QueryStats* stats = nullptr) const;

 private:
  /// One lane's summed work, padded to a cache line so two lanes never
  /// write the same line (no locks, no false sharing on the hot path).
  struct alignas(64) LaneWork {
    WorkCounters work;
  };

  /// Per-subspace filter over all M trees; returns the per-tree id lists,
  /// each sorted ascending when `sorted` is set (the range path's
  /// set_intersection needs that; the kNN union re-sorts anyway). Search
  /// counters are summed into `agg`.
  std::vector<std::vector<uint32_t>> FilterAllTrees(
      const BBForest& forest, std::span<const std::vector<double>> y_subs,
      std::span<const double> radii, bool parallel, bool sorted,
      WorkCounters* agg) const;

  /// One query's full pipeline, recorded into the registry and the trace.
  /// `qstats` (zeroed by the caller) receives its measurements. `lane`
  /// stripes the atomic metric recorders (always safe to share);
  /// `lane_work` is a batch lane's slot and must be non-null ONLY when the
  /// caller owns that lane exclusively (batch execution).
  std::vector<Neighbor> KnnOne(const BrePartition::ReadView& view,
                               std::span<const double> y, size_t k,
                               size_t lane, WorkCounters* lane_work,
                               bool parallel_filter,
                               QueryStats* qstats) const;
  std::vector<uint32_t> RangeOne(const BrePartition::ReadView& view,
                                 std::span<const double> y, double radius,
                                 size_t lane, WorkCounters* lane_work,
                                 bool parallel_filter,
                                 QueryStats* qstats) const;

  const BrePartition* index_;
  QueryEngineOptions options_;
  mutable ThreadPool pool_;
  mutable std::vector<LaneWork> lanes_;
};

}  // namespace brep

#endif  // BREP_ENGINE_QUERY_ENGINE_H_
