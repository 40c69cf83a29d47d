#include "obs/index_metrics.h"

#include "core/stats.h"

namespace brep::obs {

IndexMetrics RegisterIndexMetrics(MetricRegistry& registry) {
  IndexMetrics im;
  im.knn_queries = &registry.GetCounter(kKnnQueriesTotal);
  im.range_queries = &registry.GetCounter(kRangeQueriesTotal);
  im.candidates = &registry.GetCounter(kCandidatesTotal);
  im.nodes_visited = &registry.GetCounter(kNodesVisitedTotal);
  im.leaves_visited = &registry.GetCounter(kLeavesVisitedTotal);
  im.points_evaluated = &registry.GetCounter(kPointsEvaluatedTotal);
  im.exact_evals = &registry.GetCounter(kExactEvalsTotal);
  im.ball_steps = &registry.GetCounter(kBallStepsTotal);
  im.knn_latency = &registry.GetHistogram(kKnnLatencyMs);
  im.range_latency = &registry.GetHistogram(kRangeLatencyMs);
  im.bound_latency = &registry.GetHistogram(kBoundLatencyMs);
  im.filter_latency = &registry.GetHistogram(kFilterLatencyMs);
  im.refine_latency = &registry.GetHistogram(kRefineLatencyMs);
  im.insert_latency = &registry.GetHistogram(kInsertLatencyMs);
  im.delete_latency = &registry.GetHistogram(kDeleteLatencyMs);
  im.snapshot_publishes = &registry.GetCounter(kSnapshotPublishesTotal);
  im.snapshot_publish_latency =
      &registry.GetHistogram(kSnapshotPublishLatencyMs);
  im.joins = &registry.GetCounter(kJoinsTotal);
  im.join_rows = &registry.GetCounter(kJoinRowsTotal);
  im.join_latency = &registry.GetHistogram(kJoinLatencyMs);
  return im;
}

void RecordQuery(const IndexMetrics& im, TraceLog& trace,
                 const QueryStats& qs, const QueryRecordContext& ctx,
                 size_t stripe) {
  Counter* const op_counter =
      ctx.op == 'k' ? im.knn_queries : im.range_queries;
  op_counter->AddStripe(stripe, 1);
  im.candidates->AddStripe(stripe, qs.candidates);
  im.nodes_visited->AddStripe(stripe, qs.nodes_visited);
  im.leaves_visited->AddStripe(stripe, qs.leaves_visited);
  im.points_evaluated->AddStripe(stripe, qs.points_evaluated);
  im.exact_evals->AddStripe(stripe, qs.exact_evals);
  im.ball_steps->AddStripe(stripe, qs.ball_steps);

  LatencyHistogram* const op_latency =
      ctx.op == 'k' ? im.knn_latency : im.range_latency;
  op_latency->RecordStripe(stripe, qs.total_ms);
  if (ctx.op == 'k') im.bound_latency->RecordStripe(stripe, qs.bound_ms);
  im.filter_latency->RecordStripe(stripe, qs.filter_ms);
  im.refine_latency->RecordStripe(stripe, qs.refine_ms);

  if (qs.total_ms < trace.threshold_ms()) return;  // cheap early out
  QueryTraceEntry entry;
  static_cast<WorkCounters&>(entry) = qs;
  static_cast<Spans&>(entry) = qs;
  entry.op = ctx.op;
  entry.k = ctx.k;
  entry.radius = ctx.radius;
  entry.results = ctx.results;
  trace.Record(entry);
}

}  // namespace brep::obs
