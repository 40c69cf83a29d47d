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
///    `nodes_visited` and `io_reads`; the other fields stay 0.
///  * kNN-join: dual-tree node pairs visited -> `nodes_visited`, leaf blocks
///    scanned -> `leaves_visited`, pair distances evaluated ->
///    `points_evaluated` and `candidates`.
struct WorkCounters {
  /// Pager page reads issued (index + data). This and the pool counters are
  /// deltas over counters every reader of the index shares, so they are
  /// approximate when calls overlap; the four logical counters are exact.
  uint64_t io_reads = 0;
  /// Candidate points fetched and exactly evaluated (the refine phase).
  uint64_t candidates = 0;
  /// Tree nodes visited, summed over the subspace trees.
  uint64_t nodes_visited = 0;
  /// Tree leaves scanned.
  uint64_t leaves_visited = 0;
  /// Divergence evaluations inside the trees (the filter phase's leaf
  /// points; the refine phase's exact evaluations are `candidates`).
  uint64_t points_evaluated = 0;
  /// Buffer-pool node-cache hits and misses.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  WorkCounters& operator+=(const WorkCounters& o) {
    io_reads += o.io_reads;
    candidates += o.candidates;
    nodes_visited += o.nodes_visited;
    leaves_visited += o.leaves_visited;
    points_evaluated += o.points_evaluated;
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
/// tree build in `bound_ms` and its descent in `refine_ms`; a batch puts its
/// wall clock in `total_ms`.
struct Spans {
  double bound_ms = 0.0;   // query transform + QBDetermine
  double filter_ms = 0.0;  // range queries over the BB-forest
  double refine_ms = 0.0;  // candidate fetch + exact evaluation
  double total_ms = 0.0;   // the whole call
};

}  // namespace brep

#endif  // BREP_COMMON_WORK_COUNTERS_H_
