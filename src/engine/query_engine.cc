#include "engine/query_engine.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "common/check.h"
#include "common/timer.h"
#include "core/bound.h"
#include "core/refine.h"
#include "obs/metrics.h"

namespace brep {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// The storage counters of one call: pager reads and the forest's
/// buffer-pool traffic since construction. Both are shared by every reader
/// of the index, so the deltas are approximate when calls overlap.
class StorageDelta {
 public:
  StorageDelta(const Pager& pager, const BBForest& forest)
      : pager_(pager),
        forest_(forest),
        io_before_(pager.stats()),
        pool_before_(forest.pool_traffic()) {}

  /// Overwrite `w`'s io_reads, pool_hits and pool_misses with the deltas.
  void Into(WorkCounters* w) const {
    w->io_reads = (pager_.stats() - io_before_).reads;
    const BBForest::PoolTraffic pool = forest_.pool_traffic();
    w->pool_hits = pool.hits - pool_before_.hits;
    w->pool_misses = pool.misses - pool_before_.misses;
  }

 private:
  const Pager& pager_;
  const BBForest& forest_;
  IoStats io_before_;
  BBForest::PoolTraffic pool_before_;
};

/// S_ub of QueryEngine::SelectSeeds, appended to *out: the min(k, live)
/// live points with the smallest upper-bound totals (Algorithm 4's totals
/// pass), ties broken by id. A finite total means a live point (a deleted
/// row's total is +inf or NaN); live points without a finite total fill up
/// in id order when too few have one.
void AppendLowestTotals(const BrePartition::ReadView& view,
                        std::span<const QueryTriple> triples, size_t k,
                        std::vector<uint32_t>* out) {
  static thread_local QBScratch scratch;
  UBTotals(view.transformed(), triples, /*record_ub=*/false, &scratch);
  const std::vector<double>& totals = scratch.totals;
  const size_t n = view.transformed().num_points();
  const size_t count = std::min(k, view.num_points());
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<uint32_t>& ids = scratch.ids;
  ids.clear();
  for (size_t i = 0; i < n; ++i) {
    if (totals[i] < kInf) ids.push_back(static_cast<uint32_t>(i));
  }
  if (ids.size() > count) {
    std::nth_element(ids.begin(), ids.begin() + ptrdiff_t(count - 1),
                     ids.end(), [&](uint32_t a, uint32_t b) {
                       if (totals[a] != totals[b]) return totals[a] < totals[b];
                       return a < b;
                     });
    ids.resize(count);
  }
  const PointStore& store = view.forest().point_store();
  for (size_t i = 0; i < n && ids.size() < count; ++i) {
    if (!(totals[i] < kInf) && store.Contains(static_cast<uint32_t>(i))) {
      ids.push_back(static_cast<uint32_t>(i));
    }
  }
  out->insert(out->end(), ids.begin(), ids.end());
}

}  // namespace

std::vector<uint32_t> QueryEngine::SelectSeeds(
    const BrePartition::ReadView& view,
    std::span<const std::vector<double>> y_subs,
    std::span<const QueryTriple> triples, size_t k, WorkCounters* work) {
  std::vector<uint32_t> seeds =
      view.forest().tree(0).NearestLeafIds(y_subs[0], kSeedsPerK * k, work);
  AppendLowestTotals(view, triples, k, &seeds);
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

QueryEngine::QueryEngine(const BrePartition& index,
                         const QueryEngineOptions& options)
    : index_(&index),
      pool_(ResolveThreads(options.num_threads) - 1),
      lanes_(pool_.num_lanes()) {}

std::vector<std::vector<uint32_t>> QueryEngine::FilterAllTrees(
    const BBForest& forest, std::span<const std::vector<double>> y_subs,
    std::span<const double> radii, bool fan_out, bool sorted,
    WorkCounters* agg) const {
  const size_t m_trees = forest.num_partitions();
  std::vector<std::vector<uint32_t>> per_tree(m_trees);
  std::vector<WorkCounters> per_stats(m_trees);

  auto run_tree = [&](size_t m) {
    per_tree[m] = forest.FilterTree(m, y_subs[m], radii[m], &per_stats[m]);
    if (sorted) std::sort(per_tree[m].begin(), per_tree[m].end());
  };

  if (fan_out && m_trees > 1 && pool_.num_workers() > 0) {
    pool_.ParallelFor(m_trees, [&](size_t m, size_t) { run_tree(m); });
  } else {
    for (size_t m = 0; m < m_trees; ++m) run_tree(m);
  }

  for (const WorkCounters& s : per_stats) *agg += s;
  return per_tree;
}

void QueryEngine::FilterRefine(const BrePartition::ReadView& view,
                               const Refiner& refiner,
                               std::span<const std::vector<double>> y_subs,
                               std::span<const double> radii,
                               std::span<const uint32_t> decided,
                               bool fan_out, TopK* topk, QueryStats* q) const {
  // Filter: per-subspace range queries, union of candidates (Theorem 3:
  // a true neighbor's subspace divergences cannot all exceed the radii).
  Timer filter_timer;
  const auto per_tree = FilterAllTrees(view.forest(), y_subs, radii, fan_out,
                                       /*sorted=*/false, q);
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
    std::erase_if(candidates, [&](uint32_t id) {
      return std::binary_search(decided.begin(), decided.end(), id);
    });
  }
  q->filter_ms += filter_timer.ElapsedMillis();

  Timer refine_timer;
  refiner.Knn(candidates, topk, q);
  q->refine_ms += refine_timer.ElapsedMillis();
}

std::vector<Neighbor> QueryEngine::KnnOne(const BrePartition::ReadView& view,
                                          std::span<const double> y, size_t k,
                                          bool fan_out,
                                          WorkCounters* lane_work,
                                          QueryStats* qstats) const {
  // Every query gets full per-query stats -- either the caller's sink or a
  // local one -- so batched queries feed the latency histograms and the
  // slow-query log exactly like single calls.
  QueryStats local;
  QueryStats& q = qstats != nullptr ? *qstats : local;
  Timer total_timer;
  const StorageDelta storage(*index_->pager(), view.forest());

  // Bound phase: Algorithm 3, then the exact seeds (Algorithm 4's lowest
  // totals and tree 0's nearest leaves), whose k-th distance is split
  // across the subspaces as the radii (README, "Searching bound: exact
  // seeds"). The seeds' distances prefill the refine's top-k, so the
  // refine skips their rows.
  Timer bound_timer;
  const auto y_subs = index_->GatherQuery(y);
  const auto triples = index_->TransformQueryAll(y_subs);
  const std::vector<uint32_t> seeds =
      SelectSeeds(view, y_subs, triples, k, &q);
  Refiner refiner(view.forest(), index_->divergence(), y);
  TopK topk(k);
  const std::vector<double> radii = refiner.SeedRadii(seeds, &topk, &q);
  q.bound_ms += bound_timer.ElapsedMillis();
  q.radius_total = 0.0;
  for (double r : radii) q.radius_total += r;

  FilterRefine(view, refiner, y_subs, radii, seeds, fan_out, &topk, &q);
  auto result = topk.SortedResults();

  storage.Into(&q);
  q.total_ms = total_timer.ElapsedMillis();
  if (lane_work != nullptr) *lane_work += q;
  obs::QueryRecordContext ctx;
  ctx.op = 'k';
  ctx.k = k;
  ctx.results = result.size();
  obs::RecordQuery(index_->index_metrics(), index_->trace_log(), q, ctx,
                   obs::CurrentThreadStripe());
  return result;
}

std::vector<uint32_t> QueryEngine::RangeOne(const BrePartition::ReadView& view,
                                            std::span<const double> y,
                                            double radius, bool fan_out,
                                            WorkCounters* lane_work,
                                            QueryStats* qstats) const {
  QueryStats local;
  QueryStats& q = qstats != nullptr ? *qstats : local;
  Timer total_timer;
  const StorageDelta storage(*index_->pager(), view.forest());

  const size_t m_trees = view.forest().num_partitions();
  const auto y_subs = index_->GatherQuery(y);
  const std::vector<double> radii(m_trees, radius);

  Timer filter_timer;
  const auto per_tree = FilterAllTrees(view.forest(), y_subs, radii, fan_out,
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
  q.radius_total = radius;

  Timer refine_timer;
  auto result = Refiner(view.forest(), index_->divergence(), y)
                    .Range(candidates, radius, &q);
  q.refine_ms += refine_timer.ElapsedMillis();

  storage.Into(&q);
  q.total_ms = total_timer.ElapsedMillis();
  if (lane_work != nullptr) *lane_work += q;
  obs::QueryRecordContext ctx;
  ctx.op = 'r';
  ctx.radius = radius;
  ctx.results = result.size();
  obs::RecordQuery(index_->index_metrics(), index_->trace_log(), q, ctx,
                   obs::CurrentThreadStripe());
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
  return KnnOne(view, y, k, /*fan_out=*/true, /*lane_work=*/nullptr, stats);
}

std::vector<Neighbor> QueryEngine::KnnWithRadii(
    const BrePartition::ReadView& view, std::span<const double> y,
    std::span<const std::vector<double>> y_subs, std::span<const double> radii,
    size_t k, QueryStats* stats) const {
  BREP_CHECK(y.size() == index_->divergence().dim());
  BREP_CHECK(y_subs.size() == view.forest().num_partitions());
  BREP_CHECK(radii.size() == y_subs.size());
  BREP_CHECK(stats != nullptr);
  const StorageDelta storage(*index_->pager(), view.forest());
  const Refiner refiner(view.forest(), index_->divergence(), y);
  TopK topk(k);
  FilterRefine(view, refiner, y_subs, radii, /*decided=*/{}, /*fan_out=*/true,
               &topk, stats);
  storage.Into(stats);
  return topk.SortedResults();
}

std::vector<uint32_t> QueryEngine::RangeSearch(std::span<const double> y,
                                               double radius,
                                               QueryStats* stats) const {
  // One pinned version for the whole call; no lock taken.
  const BrePartition::ReadView view = index_->OpenReadView();
  BREP_CHECK(y.size() == index_->divergence().dim());
  BREP_CHECK(radius >= 0.0);
  if (stats != nullptr) *stats = QueryStats{};
  return RangeOne(view, y, radius, /*fan_out=*/true, /*lane_work=*/nullptr,
                  stats);
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
    results[0] = KnnOne(view, queries.Row(0), k, /*fan_out=*/true,
                        &lanes_[pool_.num_workers()].work, nullptr);
  } else {
    pool_.ParallelFor(n, [&](size_t qi, size_t lane) {
      results[qi] = KnnOne(view, queries.Row(qi), k, /*fan_out=*/false,
                           &lanes_[lane].work, nullptr);
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
    results[0] = RangeOne(view, queries.Row(0), radius, /*fan_out=*/true,
                          &lanes_[pool_.num_workers()].work, nullptr);
  } else {
    pool_.ParallelFor(n, [&](size_t qi, size_t lane) {
      results[qi] = RangeOne(view, queries.Row(qi), radius,
                             /*fan_out=*/false, &lanes_[lane].work, nullptr);
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
