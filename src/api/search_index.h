#ifndef BREP_API_SEARCH_INDEX_H_
#define BREP_API_SEARCH_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/status.h"
#include "baselines/bbt_baseline.h"
#include "baselines/var_baseline.h"
#include "common/top_k.h"
#include "common/work_counters.h"
#include "core/approximate.h"
#include "core/config.h"
#include "dataset/matrix.h"
#include "divergence/bregman.h"
#include "join/join_types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/pager.h"
#include "vafile/vafile.h"

/// \file
/// One search interface over every backend. The paper's value proposition
/// is exact Bregman kNN served interchangeably against its baselines;
/// SearchIndex is the stable surface that benches, examples and the serving
/// layers program against, with a string-keyed registry so a backend is a
/// configuration value ("brepartition" | "bbtree" | "vafile" | "scan" |
/// "var" | "abp"), not a type.

namespace brep {

class BrePartition;
struct QueryStats;

/// Uniform kNN/range interface implemented by every backend adapter and by
/// the brep::Index facade. All search entry points validate their arguments
/// (query dimensionality, k, radius) and report failures as Status values;
/// the implementation layer's aborting invariant checks are unreachable
/// through this interface.
class SearchIndex {
 public:
  /// Unified per-call measurements: the call's work (WorkCounters, whose
  /// per-backend meaning is documented there; 0 where a backend has no
  /// such work) plus the wrapper's and the write path's lanes. For batch
  /// calls the counters are sums over the batch and `wall_ms` is the batch
  /// wall-clock (so Qps() is the serving throughput); for single calls
  /// queries == 1.
  struct Stats : WorkCounters {
    uint64_t queries = 0;
    /// Write lanes: completed Insert/Delete calls through this surface.
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    /// Durability lanes (brep::Index with a WAL; 0 elsewhere): redo
    /// records appended and fsync barriers issued by this call, and
    /// records replayed at recovery for batch-level aggregates.
    uint64_t wal_appends = 0;
    uint64_t wal_fsyncs = 0;
    uint64_t wal_replayed = 0;
    /// Total searching bound (BrePartition family; diagnostic).
    double radius_total = 0.0;
    /// Tightening coefficient applied by approximate backends (1 = exact).
    double approx_coefficient = 1.0;
    /// Wall-clock of the whole call.
    double wall_ms = 0.0;

    double Qps() const {
      return wall_ms > 0.0 ? double(queries) * 1e3 / wall_ms : 0.0;
    }

    /// Accumulate one implementation-layer stats record (used by the
    /// backend adapters; `queries`/`wall_ms` stay with the wrapper).
    void Add(const QueryStats& qs);
  };

  virtual ~SearchIndex() = default;

  /// One-line, human-readable self-description (backend name, key
  /// parameters, dataset shape) for logs and bench headers.
  virtual std::string Describe() const = 0;

  virtual size_t dim() const = 0;
  virtual size_t num_points() const = 0;
  /// Whether results carry an exactness guarantee (false for "var"/"abp").
  virtual bool exact() const = 0;

  /// Full observability snapshot: every counter, gauge and latency
  /// histogram the backend exports (render with obs::RenderPrometheus /
  /// obs::RenderJson). Backends without instrumentation return an empty
  /// snapshot; brep::Index and ParallelIndex return the shared per-index
  /// registry plus storage/WAL/recovery series.
  virtual obs::MetricsSnapshot Metrics() const { return {}; }

  /// Recent slow-call traces, oldest first (see obs::TraceLog). Empty for
  /// backends without tracing.
  virtual std::vector<obs::QueryTraceEntry> SlowQueries() const { return {}; }

  /// The k nearest neighbors of `query` (minimizing D(x, query)), sorted
  /// ascending by (distance, id). Errors: wrong dimensionality, k == 0,
  /// k > num_points(), or a query the divergence cannot evaluate finitely
  /// (outside the generator domain, or overflowing phi -- e.g. exponential
  /// at y >= ~710, where e^y = inf turns divergences into inf - inf = NaN
  /// and silently poisons the top-k ordering).
  StatusOr<std::vector<Neighbor>> Knn(std::span<const double> query, size_t k,
                                      Stats* stats = nullptr) const;

  /// Ids with D(x, query) <= radius, ascending. Errors: wrong
  /// dimensionality, negative/NaN radius, or kUnimplemented for backends
  /// without a range path (VA-file, var, abp).
  StatusOr<std::vector<uint32_t>> Range(std::span<const double> query,
                                        double radius,
                                        Stats* stats = nullptr) const;

  /// Knn for every row of `queries`. Backends without a native batch path
  /// run the single-query path per row.
  StatusOr<std::vector<std::vector<Neighbor>>> KnnBatch(
      const Matrix& queries, size_t k, Stats* stats = nullptr) const;

  /// Range for every row of `queries`.
  StatusOr<std::vector<std::vector<uint32_t>>> RangeBatch(
      const Matrix& queries, double radius, Stats* stats = nullptr) const;

  /// kNN-join: the k nearest indexed points of every row of `r` in one
  /// call -- neighbors[i] is Knn(r.Row(i), k), byte-identical to issuing
  /// the N single queries, but served by a dual-tree descent where the
  /// backend supports one (brep::Index, ParallelIndex, ShardedIndex;
  /// others fall back to the per-row loop). Errors: empty `r`, wrong
  /// dimensionality, k == 0, k > num_points(), or any R row the divergence
  /// cannot evaluate finitely -- the same kInvalidArgument contract on
  /// every backend.
  StatusOr<JoinResult> KnnJoin(const Matrix& r, size_t k,
                               Stats* stats = nullptr) const;

  /// Insert `point` and return its assigned id. Errors: wrong
  /// dimensionality, a point the divergence cannot evaluate finitely
  /// (outside the domain or overflowing phi), or kFailedPrecondition for
  /// read-only backends (every baseline adapter and "abp"; brep::Index,
  /// which the registry's "brepartition" builds, supports updates).
  StatusOr<uint32_t> Insert(std::span<const double> point,
                            Stats* stats = nullptr);

  /// Remove the point with id `id`. Errors: kNotFound for an id that is
  /// not currently indexed, kFailedPrecondition for read-only backends.
  Status Delete(uint32_t id, Stats* stats = nullptr);

 protected:
  /// Mutation hooks; the default is a read-only backend. `stats` is
  /// non-null and zeroed (wrapper-owned lanes -- counts, wall clock -- are
  /// filled by the wrapper; hooks add backend lanes such as the WAL ones).
  virtual StatusOr<uint32_t> InsertImpl(std::span<const double> point,
                                        Stats* stats);
  virtual Status DeleteImpl(uint32_t id, Stats* stats);
  /// Backend hooks, called with validated arguments and a non-null stats
  /// sink (zeroed; `queries` and `wall_ms` are filled by the wrapper).
  virtual StatusOr<std::vector<Neighbor>> KnnImpl(std::span<const double> y,
                                                  size_t k,
                                                  Stats* stats) const = 0;
  virtual StatusOr<std::vector<uint32_t>> RangeImpl(std::span<const double> y,
                                                    double radius,
                                                    Stats* stats) const;
  virtual StatusOr<std::vector<std::vector<Neighbor>>> KnnBatchImpl(
      const Matrix& queries, size_t k, Stats* stats) const;
  virtual StatusOr<std::vector<std::vector<uint32_t>>> RangeBatchImpl(
      const Matrix& queries, double radius, Stats* stats) const;
  /// Default: the join as a per-row KnnImpl loop (every backend gets at
  /// least this).
  virtual StatusOr<JoinResult> KnnJoinImpl(const Matrix& r, size_t k,
                                           Stats* stats) const;

  /// The divergence this backend evaluates queries under, or nullptr when
  /// it cannot expose one. When non-null, every public entry point rejects
  /// (kInvalidArgument) query/insert vectors on which the generator's phi
  /// would not evaluate finite -- outside the domain, non-finite input, or
  /// overflow (exponential phi(t) = e^t at t >= ~710). Without this gate a
  /// +inf phi turns D(x, y) into inf - inf = NaN, which every comparison
  /// in the search paths silently mis-orders instead of failing loudly.
  virtual const BregmanDivergence* QueryDivergence() const { return nullptr; }

 private:
  /// kInvalidArgument iff QueryDivergence() is set and rejects `v`.
  Status CheckEvaluable(std::span<const double> v, const std::string& what)
      const;
};

/// Per-backend construction knobs for the registry. Only the member
/// matching the selected backend is read ("abp" reads `brepartition` and
/// `approximate`; "var" reads `var`).
struct BackendOptions {
  BrePartitionConfig brepartition;
  BBTBaselineConfig bbtree;
  VAFileConfig vafile;
  VarBaselineConfig var;
  ApproximateConfig approximate;
};

/// Backend names MakeSearchIndex accepts, in registry order.
std::vector<std::string> RegisteredBackends();

/// Build the named backend over `data` with divergence `div` on `pager`
/// (the shared simulated/real disk; may be nullptr for "scan", which never
/// touches storage). `pager` and `data` must outlive the returned index.
/// "brepartition" builds a brep::Index, which owns its disk: it takes only
/// `pager`'s page size and allocates nothing on `pager`.
/// Errors: unknown backend name (message lists the registry), invalid
/// configuration, divergence/backend mismatch (KL under "brepartition"/
/// "abp"), a page size too small to hold one point.
StatusOr<std::unique_ptr<SearchIndex>> MakeSearchIndex(
    const std::string& backend, Pager* pager, const Matrix& data,
    const BregmanDivergence& div, const BackendOptions& options = {});

/// Convenience: divergence by factory name ("itakura_saito", "lp:3", ...).
StatusOr<std::unique_ptr<SearchIndex>> MakeSearchIndex(
    const std::string& backend, Pager* pager, const Matrix& data,
    const std::string& divergence, const BackendOptions& options = {});

/// The approximate (ABP) view over an existing exact BrePartition; `bp`
/// must outlive the returned index and must have its data matrix attached
/// (an index reopened from a file does not -- kFailedPrecondition).
StatusOr<std::unique_ptr<SearchIndex>> MakeApproximateIndex(
    const BrePartition& bp, const ApproximateConfig& config);

/// Up-front validation of everything the BrePartition constructor would
/// otherwise abort on mid-build: empty data, dimensionality mismatch, a
/// divergence that is not partition-safe (KL), num_partitions > dim,
/// max_partitions == 0, min > max, fit_samples == 0, zero sample/pool
/// sizes, or a page too small for one point.
Status ValidateBrePartitionConfig(const BrePartitionConfig& config,
                                  const Matrix& data,
                                  const BregmanDivergence& div,
                                  const Pager* pager);

}  // namespace brep

#endif  // BREP_API_SEARCH_INDEX_H_
