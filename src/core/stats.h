#ifndef BREP_CORE_STATS_H_
#define BREP_CORE_STATS_H_

#include "common/work_counters.h"

namespace brep {

/// Per-query measurements reported by the search engines and consumed by the
/// benchmark harness (the evaluation's two headline metrics are `io_reads`
/// and wall-clock time). A batch's QueryStats (QueryEngine::KnnSearchBatch)
/// sums the work of its queries, measures the storage counters once around
/// the whole batch, and holds the batch wall clock in `total_ms`.
struct QueryStats : WorkCounters, Spans {
  /// Total searching bound (sum of per-subspace radii; diagnostic).
  double radius_total = 0.0;
  /// Tightening coefficient c applied by the approximate extension
  /// (1.0 for exact searches).
  double approx_coefficient = 1.0;
};

}  // namespace brep

#endif  // BREP_CORE_STATS_H_
