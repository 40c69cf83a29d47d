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

class Refiner;

struct QueryEngineOptions {
  /// Total threads serving a call (workers + the calling thread).
  /// 0 means hardware_concurrency; 1 means strictly sequential execution
  /// on the caller (the reference mode every parallel result is checked
  /// against).
  size_t num_threads = 0;
};

/// The exact query pipeline over a BrePartition index, and the only code
/// that runs one: every exact kNN and range query of Index, ParallelIndex,
/// the shards and the replicas -- and the approximate extension's filter
/// and refine -- is served here.
///
/// The paper's query pipeline (Algorithm 6) is bound -> filter -> refine.
/// The kNN bound phase takes its radii from exact seeds instead of
/// Algorithm 4's k-th upper bound (README, "Searching bound: exact
/// seeds"); the approximate extension keeps Algorithm 4's radii. The
/// filter step is embarrassingly parallel: the M subspace trees are
/// independent read-only structures. The engine exploits that two ways:
///
///  * KnnSearch / KnnWithRadii / RangeSearch (single query): one filter
///    task per subspace tree when the engine has workers, candidate
///    union/intersection merged on the caller.
///  * KnnSearchBatch / RangeSearchBatch: one task per query; each query
///    runs the full sequential pipeline on one lane, which scales better
///    than per-subspace fan-out once the batch is at least as wide as the
///    pool.
///
/// Results are byte-identical for every thread count: per-tree search is
/// deterministic, the candidate union is sorted and deduplicated before
/// refinement, and TopK breaks distance ties by id.
///
/// Consistency: every entry point pins ONE BrePartition::ReadView for the
/// whole call -- batches included -- so all queries of a batch observe one
/// published index version, without any query path ever acquiring the
/// writer's mutex (reads are lock-free; a churning writer cannot stall
/// them).
///
/// Thread-safety: the single-query entries of a one-thread engine
/// (num_threads = 1) touch neither the pool nor the lane slots, so they
/// are re-entrant: Index and ReplicaIndex serve all their concurrent
/// callers through one such engine. Batches, and every call into an
/// engine with workers, take one call at a time (the engine parallelizes
/// internally and reuses per-lane work slots). The underlying index IS
/// safe to share between several engines because DiskBBTree/BufferPool/
/// Pager reads are re-entrant. Caveat when calls overlap: `io_reads` and
/// the pool counters in QueryStats are deltas over counters shared by the
/// whole index, so overlapping calls count each other's reads -- results
/// stay exact, but attribute per-call I/O only when one call is active at
/// a time.
class QueryEngine {
 public:
  /// Tree-0 seeds per requested neighbor: a kNN query's bound phase takes
  /// tree 0's nearest leaves until it holds at least kSeedsPerK * k ids
  /// (SelectSeeds; README, "Searching bound: exact seeds"). Over 1, 2 and
  /// 4, walking tree 0 alone or every tree, knn_disk read the fewest pages
  /// with 4 from tree 0 alone; walking every tree shrank the union but
  /// cost more pool misses and time than it saved.
  static constexpr size_t kSeedsPerK = 4;

  /// The seeds of a kNN query of `k` neighbors (1 <= k <= live) over
  /// `view`, ascending by id and distinct: the union of
  ///  * S_ub: the k live points with the smallest Algorithm 4 upper-bound
  ///    totals, ties broken by id (live points without a finite total fill
  ///    up in id order). Each of them has D <= its total <= Algorithm 4's
  ///    k-th total, so the seeded radius total never exceeds Algorithm
  ///    4's.
  ///  * S_0: the ids of tree 0's leaves nearest y_subs[0]
  ///    (DiskBBTree::NearestLeafIds) until at least kSeedsPerK * k are
  ///    held. The point store lays rows out in tree 0's leaf order, so
  ///    their rows share a few data pages. The disk trees hold only live
  ///    ids.
  /// `y_subs` and `triples` are the query's BrePartition::GatherQuery and
  /// TransformQueryAll. The leaf walk's nodes and leaves count in `work`.
  /// KnnOne seeds every exact kNN query from this.
  static std::vector<uint32_t> SelectSeeds(
      const BrePartition::ReadView& view,
      std::span<const std::vector<double>> y_subs,
      std::span<const QueryTriple> triples, size_t k, WorkCounters* work);

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

  /// Exact kNN of `y` (minimizing D(x, y)), recorded into the index's
  /// registry and trace log. `k` is clamped to the pinned version's live
  /// points.
  std::vector<Neighbor> KnnSearch(std::span<const double> y, size_t k,
                                  QueryStats* stats = nullptr) const;

  /// The exact pipeline's filter + refine over caller-supplied
  /// per-subspace radii, for the approximate extension (which scales the
  /// exact radii, Proposition 1). `view` must be pinned on this engine's
  /// index and `y_subs` be BrePartition::GatherQuery(y). Adds the filter
  /// and refine spans and work to `*stats` and sets its storage counters;
  /// records nothing in the registry.
  std::vector<Neighbor> KnnWithRadii(
      const BrePartition::ReadView& view, std::span<const double> y,
      std::span<const std::vector<double>> y_subs,
      std::span<const double> radii, size_t k, QueryStats* stats) const;

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
  /// set_intersection needs that; the kNN union re-sorts anyway). Fans out
  /// across the pool when `fan_out` is set and the engine has workers.
  /// Search counters are summed into `agg`.
  std::vector<std::vector<uint32_t>> FilterAllTrees(
      const BBForest& forest, std::span<const std::vector<double>> y_subs,
      std::span<const double> radii, bool fan_out, bool sorted,
      WorkCounters* agg) const;

  /// Filter (union of the per-tree results) + refine over `radii` into
  /// *topk, skipping the ids in `decided` (ascending; the seeds, already
  /// in *topk).
  void FilterRefine(const BrePartition::ReadView& view,
                    const Refiner& refiner,
                    std::span<const std::vector<double>> y_subs,
                    std::span<const double> radii,
                    std::span<const uint32_t> decided, bool fan_out,
                    TopK* topk, QueryStats* q) const;

  /// One query's full pipeline, recorded into the registry and the trace
  /// on the calling thread's metric stripe. `qstats` (zeroed by the
  /// caller) receives its measurements; `lane_work` is a batch lane's slot
  /// and must be non-null ONLY when the caller owns that lane exclusively
  /// (batch execution).
  std::vector<Neighbor> KnnOne(const BrePartition::ReadView& view,
                               std::span<const double> y, size_t k,
                               bool fan_out, WorkCounters* lane_work,
                               QueryStats* qstats) const;
  std::vector<uint32_t> RangeOne(const BrePartition::ReadView& view,
                                 std::span<const double> y, double radius,
                                 bool fan_out, WorkCounters* lane_work,
                                 QueryStats* qstats) const;

  const BrePartition* index_;
  mutable ThreadPool pool_;
  mutable std::vector<LaneWork> lanes_;
};

}  // namespace brep

#endif  // BREP_ENGINE_QUERY_ENGINE_H_
