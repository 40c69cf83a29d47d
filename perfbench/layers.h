#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <span>

#include "api/index.h"
#include "bench.h"
#include "obs/trace.h"

/// \file
/// Per-layer measurement from outside the library. ReplayKnn replays one
/// kNN through the layers' public entry points with spans placed by the
/// benchmark: the bound phase, the BB-forest filter, the point-store fetch
/// and the exact refine, timed separately. Nothing under src/ is
/// instrumented for this. The rest turns replays, work counts and the
/// trace ring into layer-table rows and per-layer metric values.

namespace perfbench {

/// Sums over replayed queries.
struct ReplaySums {
  uint64_t queries = 0;
  double bound_ms = 0.0;
  double filter_ms = 0.0;
  double fetch_ms = 0.0;
  double refine_ms = 0.0;
  uint64_t points = 0;      // leaf points the filter evaluated
  uint64_t candidates = 0;  // candidates fetched and refined
  uint64_t pages = 0;       // distinct data pages those candidates live on
};

/// Replay `y` against the index's current version and add its spans to
/// `sums`. Returns whether the replayed top-k equals `expected` (the
/// facade's answer): same ids, bit-identical distances.
bool ReplayKnn(const brep::Index& index, std::span<const double> y, size_t k,
               std::span<const brep::Neighbor> expected, ReplaySums* sums);

/// Add one call's facade work counters to `counts`.
void AddCounts(const brep::SearchIndex::Stats& st, WorkCounts* counts);

/// Meta every ISD kNN run records: derived M, pool pages against tree node
/// pages, page size.
void IndexMeta(const brep::Index& index, const Shape& s, Outcome* out);

/// Layer rows and values for replayed ISD kNN calls: bound, filter, fetch
/// and refine spans with `c`'s counts. Shares are of the replay's own total
/// (the four spans), measured in the same pass.
void KnnLayers(const ReplaySums& r, const WorkCounts& c, size_t k,
               Outcome* out, LayerValues* v);

/// The trace ring's own spans for entries of kind `op`, as cross-check
/// rows beside the replay; shares are of the entries' total_ms.
void TraceRingLayers(const std::vector<brep::obs::QueryTraceEntry>& entries,
                     char op, Outcome* out, LayerValues* v);

/// Meta every run records: the SIMD backend gauge from `m`, every set-up
/// time (raw), and what the timed window held.
void RunMeta(const brep::obs::MetricsSnapshot& m, const Timings& t,
             const std::string& window, Outcome* out);

/// The ring entry a call admitted, given the trace ring's
/// recorded_total() before and after the call: nullptr unless it admitted
/// exactly one entry and `entries` (a SlowQueries() snapshot) still holds
/// it.
const brep::obs::QueryTraceEntry* RingEntry(
    const std::vector<brep::obs::QueryTraceEntry>& entries, uint64_t before,
    uint64_t after);

/// Note the sample count, median and the highest percentile with at least
/// ten samples beyond it.
void TailNotes(const std::vector<double>& lat, const char* what, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
