#ifndef BREP_OBS_INDEX_METRICS_H_
#define BREP_OBS_INDEX_METRICS_H_

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

/// \file
/// The index's metric vocabulary: every name the serving layers export,
/// plus the pre-resolved handle bundle (IndexMetrics) the hot paths record
/// through. Names are plain snake_case with Prometheus-conventional
/// suffixes (_total for counters, _ms for latency histograms); README's
/// "Observability" chapter documents each one's semantics.

namespace brep {
struct QueryStats;
}

namespace brep::obs {

// Registry-owned (live in BrePartition's MetricRegistry; recorded on the
// query/update hot paths, shared by every engine over one index).
inline constexpr char kKnnQueriesTotal[] = "brep_knn_queries_total";
inline constexpr char kRangeQueriesTotal[] = "brep_range_queries_total";
inline constexpr char kCandidatesTotal[] = "brep_candidates_total";
inline constexpr char kNodesVisitedTotal[] = "brep_nodes_visited_total";
inline constexpr char kLeavesVisitedTotal[] = "brep_leaves_visited_total";
inline constexpr char kPointsEvaluatedTotal[] = "brep_points_evaluated_total";
inline constexpr char kExactEvalsTotal[] = "brep_exact_evals_total";
inline constexpr char kBallStepsTotal[] = "brep_ball_steps_total";
inline constexpr char kKnnLatencyMs[] = "brep_knn_latency_ms";
inline constexpr char kRangeLatencyMs[] = "brep_range_latency_ms";
inline constexpr char kBoundLatencyMs[] = "brep_bound_latency_ms";
inline constexpr char kFilterLatencyMs[] = "brep_filter_latency_ms";
inline constexpr char kRefineLatencyMs[] = "brep_refine_latency_ms";
inline constexpr char kInsertLatencyMs[] = "brep_insert_latency_ms";
inline constexpr char kDeleteLatencyMs[] = "brep_delete_latency_ms";
inline constexpr char kSnapshotPublishesTotal[] =
    "brep_snapshot_publishes_total";
inline constexpr char kSnapshotPublishLatencyMs[] =
    "brep_snapshot_publish_latency_ms";
// kNN-join lane (SearchIndex::KnnJoin over brep::Index, ParallelIndex or
// a shard): calls, R rows and latency. The scan's pair work is |R| times
// the live points, so it needs no counter of its own.
inline constexpr char kJoinsTotal[] = "brep_joins_total";
inline constexpr char kJoinRowsTotal[] = "brep_join_rows_total";
inline constexpr char kJoinLatencyMs[] = "brep_join_latency_ms";

// Assembled at snapshot time from component-owned state (index gauges,
// update totals, pager/pool/WAL/recovery counters and histograms).
inline constexpr char kPointsGauge[] = "brep_points";
inline constexpr char kIdSpaceGauge[] = "brep_id_space";
inline constexpr char kPartitionsGauge[] = "brep_partitions";
/// Kernel backend serving divergence/bound batches: 0 = unrolled scalar,
/// 1 = AVX2 (see simd::KernelBackend). Lets an operator confirm from the
/// metrics endpoint alone that a deployment actually dispatches SIMD
/// (BREP_SIMD=off, a non-AVX2 host, or a BREP_SIMD=OFF build all read 0).
inline constexpr char kSimdKernelGauge[] = "brep_simd_kernel_backend";
inline constexpr char kPagesGauge[] = "brep_pages";
inline constexpr char kFreePagesGauge[] = "brep_free_pages";
inline constexpr char kInsertsTotal[] = "brep_inserts_total";
inline constexpr char kDeletesTotal[] = "brep_deletes_total";
inline constexpr char kPagerReadsTotal[] = "brep_pager_reads_total";
inline constexpr char kPagerWritesTotal[] = "brep_pager_writes_total";
/// FilePager backend reads, one sample each: a base page pinned as a view
/// of the file mapping, or copied out of it (FetchPage, Patch). So the
/// count equals the base-page reads. A mapped page's first touch faults
/// in the caller's copy of its bytes (a node decode, a point's refine),
/// which this histogram does not time; a pin's own sample is near zero.
inline constexpr char kIoReadLatencyMs[] = "brep_io_read_latency_ms";
inline constexpr char kIoWriteLatencyMs[] = "brep_io_write_latency_ms";
inline constexpr char kIoSyncLatencyMs[] = "brep_io_sync_latency_ms";
inline constexpr char kFsyncsTotal[] = "brep_file_fsyncs_total";
inline constexpr char kFdatasyncsTotal[] = "brep_file_fdatasyncs_total";
inline constexpr char kPoolHitsTotal[] = "brep_pool_hits_total";
inline constexpr char kPoolMissesTotal[] = "brep_pool_misses_total";
inline constexpr char kPoolEvictionsTotal[] = "brep_pool_evictions_total";
inline constexpr char kPoolResidentGauge[] = "brep_pool_resident_pages";
inline constexpr char kPoolCapacityGauge[] = "brep_pool_capacity_pages";
inline constexpr char kWalAppendsTotal[] = "brep_wal_appends_total";
inline constexpr char kWalFsyncsTotal[] = "brep_wal_fsyncs_total";
inline constexpr char kWalAppendedBytesTotal[] = "brep_wal_appended_bytes_total";
inline constexpr char kWalAppendLatencyMs[] = "brep_wal_append_latency_ms";
inline constexpr char kWalFsyncLatencyMs[] = "brep_wal_fsync_latency_ms";
inline constexpr char kWalLastLsnGauge[] = "brep_wal_last_lsn";
inline constexpr char kWalDurableLsnGauge[] = "brep_wal_durable_lsn";
inline constexpr char kRecoveryReplayedInserts[] =
    "brep_recovery_replayed_inserts_total";
inline constexpr char kRecoveryReplayedDeletes[] =
    "brep_recovery_replayed_deletes_total";
inline constexpr char kRecoverySkippedRecords[] =
    "brep_recovery_skipped_records_total";
inline constexpr char kRecoveryDroppedTailBytes[] =
    "brep_recovery_dropped_tail_bytes";
inline constexpr char kRecoveryReplayMsGauge[] = "brep_recovery_replay_ms";
inline constexpr char kSlowQueriesTotal[] = "brep_slow_queries_total";
inline constexpr char kSlowThresholdGauge[] = "brep_slow_query_threshold_ms";
// MVCC snapshot lifecycle (assembled from the writer's version chain).
inline constexpr char kSnapshotLiveVersionsGauge[] =
    "brep_snapshot_live_versions";
inline constexpr char kSnapshotOldestPinAgeGauge[] =
    "brep_snapshot_oldest_pin_age_epochs";
inline constexpr char kSnapshotCowRetainedPagesGauge[] =
    "brep_snapshot_cow_retained_pages";

// Scale-out tier (ShardedIndex sums its shards' series by name and adds
// these; ReplicaIndex tracks its tailing progress with them).
inline constexpr char kShardsGauge[] = "brep_shards";
inline constexpr char kShardScatterLatencyMs[] = "brep_shard_scatter_latency_ms";
inline constexpr char kShardMergeLatencyMs[] = "brep_shard_merge_latency_ms";
inline constexpr char kReplicationLagLsnsGauge[] = "brep_replication_lag_lsns";
inline constexpr char kReplicationAppliedTotal[] =
    "brep_replication_applied_records_total";
inline constexpr char kReplicationPollsTotal[] = "brep_replication_polls_total";
inline constexpr char kReplicationResetsTotal[] =
    "brep_replication_resets_total";

/// Handles into one index's registry, resolved once at construction so the
/// hot paths never pay the registry's name lookup.
struct IndexMetrics {
  Counter* knn_queries = nullptr;
  Counter* range_queries = nullptr;
  Counter* candidates = nullptr;
  Counter* nodes_visited = nullptr;
  Counter* leaves_visited = nullptr;
  Counter* points_evaluated = nullptr;
  Counter* exact_evals = nullptr;
  Counter* ball_steps = nullptr;
  LatencyHistogram* knn_latency = nullptr;
  LatencyHistogram* range_latency = nullptr;
  LatencyHistogram* bound_latency = nullptr;
  LatencyHistogram* filter_latency = nullptr;
  LatencyHistogram* refine_latency = nullptr;
  LatencyHistogram* insert_latency = nullptr;
  LatencyHistogram* delete_latency = nullptr;
  Counter* snapshot_publishes = nullptr;
  LatencyHistogram* snapshot_publish_latency = nullptr;
  Counter* joins = nullptr;
  Counter* join_rows = nullptr;
  LatencyHistogram* join_latency = nullptr;
};

IndexMetrics RegisterIndexMetrics(MetricRegistry& registry);

/// Call-site context a QueryStats record does not carry.
struct QueryRecordContext {
  char op = 'k';        // 'k' or 'r'
  size_t k = 0;
  double radius = 0.0;
  size_t results = 0;
};

/// Record one finished query into the metric handles (counters + latency
/// histograms on stripe `stripe`) and, if it crosses the trace threshold,
/// into `trace`.
void RecordQuery(const IndexMetrics& im, TraceLog& trace,
                 const QueryStats& qs, const QueryRecordContext& ctx,
                 size_t stripe);

}  // namespace brep::obs

#endif  // BREP_OBS_INDEX_METRICS_H_
