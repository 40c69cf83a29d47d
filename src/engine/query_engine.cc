#include "engine/query_engine.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "common/timer.h"
#include "core/bound.h"

namespace brep {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

QueryEngine::QueryEngine(const BrePartition& index,
                         const QueryEngineOptions& options)
    : index_(&index),
      options_(options),
      pool_(ResolveThreads(options.num_threads) - 1),
      lanes_(pool_.num_lanes()) {}

std::vector<std::vector<uint32_t>> QueryEngine::FilterAllTrees(
    const BBForest& forest, std::span<const std::vector<double>> y_subs,
    std::span<const double> radii, bool parallel, bool sorted,
    WorkCounters* agg) const {
  const size_t m_trees = forest.num_partitions();
  std::vector<std::vector<uint32_t>> per_tree(m_trees);
  std::vector<WorkCounters> per_stats(m_trees);

  auto run_tree = [&](size_t m) {
    const DiskBBTree& tree = forest.tree(m);
    per_tree[m] = forest.filter_mode() == FilterMode::kExactRange
                      ? tree.RangeSearchExact(y_subs[m], radii[m],
                                              &per_stats[m])
                      : tree.RangeCandidates(y_subs[m], radii[m],
                                             &per_stats[m]);
    if (sorted) std::sort(per_tree[m].begin(), per_tree[m].end());
  };

  if (parallel && m_trees > 1 && pool_.num_workers() > 0) {
    pool_.ParallelFor(m_trees, [&](size_t m, size_t) { run_tree(m); });
  } else {
    for (size_t m = 0; m < m_trees; ++m) run_tree(m);
  }

  for (const WorkCounters& s : per_stats) *agg += s;
  return per_tree;
}

std::vector<Neighbor> QueryEngine::KnnOne(const BrePartition::ReadView& view,
                                          std::span<const double> y, size_t k,
                                          size_t lane, WorkCounters* lane_work,
                                          bool parallel_filter,
                                          QueryStats* qstats) const {
  // Every query gets full per-query stats -- either the caller's sink or a
  // local one -- so batched queries feed the latency histograms and the
  // slow-query log exactly like single calls.
  QueryStats local;
  QueryStats& q = qstats != nullptr ? *qstats : local;
  Timer total_timer;
  const StorageDelta storage(*index_->pager(), view.forest());

  // Bound phase (Algorithms 3 + 4).
  Timer bound_timer;
  const auto y_subs = index_->GatherQuery(y);
  const auto triples = index_->TransformQueryAll(y_subs);
  const QueryBounds qb = QBDetermine(view.transformed(), triples, k);
  q.bound_ms += bound_timer.ElapsedMillis();
  q.radius_total = qb.total;

  // Filter: per-subspace range queries, union of candidates (Theorem 3:
  // a true neighbor's subspace divergences cannot all exceed the radii).
  Timer filter_timer;
  const auto per_tree = FilterAllTrees(view.forest(), y_subs, qb.radii,
                                       parallel_filter,
                                       /*sorted=*/false, &q);
  std::vector<uint32_t> candidates;
  {
    size_t total = 0;
    for (const auto& v : per_tree) total += v.size();
    candidates.reserve(total);
    for (const auto& v : per_tree) {
      candidates.insert(candidates.end(), v.begin(), v.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
  q.filter_ms += filter_timer.ElapsedMillis();
  q.candidates += candidates.size();

  // Refine: fetch candidates page-batched and evaluate exactly.
  Timer refine_timer;
  TopK topk(k);
  const BregmanDivergence& div = index_->divergence();
  view.forest().point_store().FetchMany(
      candidates, [&](uint32_t id, std::span<const double> x) {
        topk.Push(div.Divergence(x, y), id);
      });
  q.refine_ms += refine_timer.ElapsedMillis();

  auto result = topk.SortedResults();
  storage.Into(&q);
  q.total_ms = total_timer.ElapsedMillis();
  if (lane_work != nullptr) *lane_work += q;
  obs::QueryRecordContext ctx;
  ctx.op = 'k';
  ctx.k = k;
  ctx.results = result.size();
  obs::RecordQuery(index_->index_metrics(), index_->trace_log(), q, ctx, lane);
  return result;
}

std::vector<uint32_t> QueryEngine::RangeOne(const BrePartition::ReadView& view,
                                            std::span<const double> y,
                                            double radius, size_t lane,
                                            WorkCounters* lane_work,
                                            bool parallel_filter,
                                            QueryStats* qstats) const {
  QueryStats local;
  QueryStats& q = qstats != nullptr ? *qstats : local;
  Timer total_timer;
  const StorageDelta storage(*index_->pager(), view.forest());

  const size_t m_trees = view.forest().num_partitions();
  const auto y_subs = index_->GatherQuery(y);
  const std::vector<double> radii(m_trees, radius);

  Timer filter_timer;
  const auto per_tree = FilterAllTrees(view.forest(), y_subs, radii,
                                       parallel_filter,
                                       /*sorted=*/true, &q);
  // Intersection across subspaces: D decomposes into non-negative terms,
  // so D(x, y) <= radius forces D_m(x_m, y_m) <= radius for every m.
  std::vector<uint32_t> candidates = per_tree[0];
  std::vector<uint32_t> next;
  for (size_t m = 1; m < m_trees && !candidates.empty(); ++m) {
    next.clear();
    std::set_intersection(candidates.begin(), candidates.end(),
                          per_tree[m].begin(), per_tree[m].end(),
                          std::back_inserter(next));
    candidates.swap(next);
  }
  q.filter_ms += filter_timer.ElapsedMillis();
  q.candidates += candidates.size();
  q.radius_total = radius;

  Timer refine_timer;
  std::vector<uint32_t> result;
  const BregmanDivergence& div = index_->divergence();
  view.forest().point_store().FetchMany(
      candidates, [&](uint32_t id, std::span<const double> x) {
        if (div.Divergence(x, y) <= radius) result.push_back(id);
      });
  std::sort(result.begin(), result.end());
  q.refine_ms += refine_timer.ElapsedMillis();

  storage.Into(&q);
  q.total_ms = total_timer.ElapsedMillis();
  if (lane_work != nullptr) *lane_work += q;
  obs::QueryRecordContext ctx;
  ctx.op = 'r';
  ctx.radius = radius;
  ctx.results = result.size();
  obs::RecordQuery(index_->index_metrics(), index_->trace_log(), q, ctx, lane);
  return result;
}

std::vector<Neighbor> QueryEngine::KnnSearch(std::span<const double> y,
                                             size_t k,
                                             QueryStats* stats) const {
  // One pinned version for the whole call; no lock taken (a churning
  // writer keeps publishing without stalling this query).
  const BrePartition::ReadView view = index_->OpenReadView();
  BREP_CHECK(y.size() == index_->divergence().dim());
  BREP_CHECK(k >= 1);
  // Clamp against the pinned version: a writer may have shrunk the index
  // between the caller's validation and the pin (benign race, not an
  // abort).
  k = std::min(k, view.num_points());
  if (stats != nullptr) *stats = QueryStats{};
  if (k == 0) return {};
  return KnnOne(view, y, k, pool_.num_workers(), /*lane_work=*/nullptr,
                options_.parallel_filter, stats);
}

std::vector<uint32_t> QueryEngine::RangeSearch(std::span<const double> y,
                                               double radius,
                                               QueryStats* stats) const {
  // One pinned version for the whole call; no lock taken.
  const BrePartition::ReadView view = index_->OpenReadView();
  BREP_CHECK(y.size() == index_->divergence().dim());
  BREP_CHECK(radius >= 0.0);
  if (stats != nullptr) *stats = QueryStats{};
  return RangeOne(view, y, radius, pool_.num_workers(), /*lane_work=*/nullptr,
                  options_.parallel_filter, stats);
}

std::vector<std::vector<Neighbor>> QueryEngine::KnnSearchBatch(
    const Matrix& queries, size_t k, QueryStats* stats) const {
  // One pinned version for the WHOLE batch: every query observes the same
  // published state (prefix consistency against a concurrent writer).
  const BrePartition::ReadView view = index_->OpenReadView();
  BREP_CHECK(queries.cols() == index_->divergence().dim());
  BREP_CHECK(k >= 1);
  k = std::min(k, view.num_points());  // benign-race clamp, as above
  const size_t n = queries.rows();
  std::vector<std::vector<Neighbor>> results(n);
  if (stats != nullptr) *stats = QueryStats{};
  if (k == 0) return results;

  std::fill(lanes_.begin(), lanes_.end(), LaneWork{});
  const StorageDelta storage(*index_->pager(), view.forest());
  Timer wall;
  if (n == 1) {
    // A lone query still benefits from per-subspace fan-out.
    results[0] = KnnOne(view, queries.Row(0), k, pool_.num_workers(),
                        &lanes_[pool_.num_workers()].work,
                        options_.parallel_filter, nullptr);
  } else {
    pool_.ParallelFor(n, [&](size_t qi, size_t lane) {
      results[qi] = KnnOne(view, queries.Row(qi), k, lane, &lanes_[lane].work,
                           /*parallel_filter=*/false, nullptr);
    });
  }
  if (stats != nullptr) {
    for (const LaneWork& l : lanes_) *stats += l.work;
    storage.Into(stats);
    stats->total_ms = wall.ElapsedMillis();
  }
  return results;
}

std::vector<std::vector<uint32_t>> QueryEngine::RangeSearchBatch(
    const Matrix& queries, double radius, QueryStats* stats) const {
  // One pinned version for the WHOLE batch (prefix consistency).
  const BrePartition::ReadView view = index_->OpenReadView();
  BREP_CHECK(queries.cols() == index_->divergence().dim());
  BREP_CHECK(radius >= 0.0);
  const size_t n = queries.rows();
  std::vector<std::vector<uint32_t>> results(n);
  if (stats != nullptr) *stats = QueryStats{};

  std::fill(lanes_.begin(), lanes_.end(), LaneWork{});
  const StorageDelta storage(*index_->pager(), view.forest());
  Timer wall;
  if (n == 1) {
    results[0] = RangeOne(view, queries.Row(0), radius, pool_.num_workers(),
                          &lanes_[pool_.num_workers()].work,
                          options_.parallel_filter, nullptr);
  } else {
    pool_.ParallelFor(n, [&](size_t qi, size_t lane) {
      results[qi] = RangeOne(view, queries.Row(qi), radius, lane,
                             &lanes_[lane].work,
                             /*parallel_filter=*/false, nullptr);
    });
  }
  if (stats != nullptr) {
    for (const LaneWork& l : lanes_) *stats += l.work;
    storage.Into(stats);
    stats->total_ms = wall.ElapsedMillis();
  }
  return results;
}

}  // namespace brep
