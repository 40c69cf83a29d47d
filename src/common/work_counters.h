#ifndef BREP_COMMON_WORK_COUNTERS_H_
#define BREP_COMMON_WORK_COUNTERS_H_

#include <cstdint>

namespace brep {

/// The work one call did, in the one vocabulary every layer shares. Tree
/// searches fill the logical counters, the query pipeline adds the storage
/// counters, engine lanes and batches sum them, and QueryStats,
/// SearchIndex::Stats and obs::QueryTraceEntry carry them as a base, so a
/// counter added here reaches every layer.
///
/// What the fields hold depends on the call (README, "Work counters"):
///  * BrePartition kNN / range: as documented per field.
///  * The single-tree adapters ("bbtree", "var"): the tree's evaluated leaf
///    points are reported as `candidates` (they are refined exactly), with
///    `nodes_visited`, `io_reads`, `exact_evals` and `ball_steps`; the
///    other fields stay 0.
///  * kNN-join: S blocks streamed -> `leaves_visited`, pair distances
///    evaluated (|R| times the live points) -> `points_evaluated` and
///    `candidates`; the other fields stay 0.
struct WorkCounters {
  /// Pager page reads issued (index + data). This and the pool counters are
  /// deltas over counters every reader of the index shares, so they are
  /// approximate when calls overlap; the four logical counters are exact.
  uint64_t io_reads = 0;
  /// Points fetched and decided in the full space: a kNN query's seeds
  /// (evaluated in the bound phase) and the filter's union, each once.
  uint64_t candidates = 0;
  /// Tree nodes visited, summed over the subspace trees.
  uint64_t nodes_visited = 0;
  /// Tree leaves scanned.
  uint64_t leaves_visited = 0;
  /// Leaf points decided inside the trees (the filter phase); the refine
  /// phase's points are `candidates`.
  uint64_t points_evaluated = 0;
  /// Exact Bregman evaluations: every kNN seed, plus the filter's leaf
  /// points and the refine's candidates that the certified identity bound
  /// could not decide, or all of them when the index skips the bound
  /// (squared L2; README, "Certified identity evaluation"). A subset of
  /// points_evaluated + candidates.
  uint64_t exact_evals = 0;
  /// Bisection steps run by the trees' ball tests (BallQuery): one per
  /// dual-segment point evaluated, in the filter's range descents and the
  /// kNN descents' node bounds alike.
  uint64_t ball_steps = 0;
  /// Buffer-pool node-cache hits and misses.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  WorkCounters& operator+=(const WorkCounters& o) {
    io_reads += o.io_reads;
    candidates += o.candidates;
    nodes_visited += o.nodes_visited;
    leaves_visited += o.leaves_visited;
    points_evaluated += o.points_evaluated;
    exact_evals += o.exact_evals;
    ball_steps += o.ball_steps;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    return *this;
  }
  bool operator==(const WorkCounters&) const = default;
};

/// The tree-search name of WorkCounters, kept for callers that still spell
/// it (perfbench/).
using SearchStats = WorkCounters;

/// Where one call's wall-clock time went, in milliseconds. A join puts its
/// scan in `refine_ms` (materializing S shows only in `total_ms`); a batch
/// puts its wall clock in `total_ms`.
struct Spans {
  double bound_ms = 0.0;   // query transform, bound totals, exact seeds
  double filter_ms = 0.0;  // range queries over the BB-forest
  double refine_ms = 0.0;  // candidate fetch + exact evaluation
  double total_ms = 0.0;   // the whole call
};

}  // namespace brep

#endif  // BREP_COMMON_WORK_COUNTERS_H_
