#include "layers.h"

#include <algorithm>
#include <vector>

#include "bench.h"
#include "core/bound.h"
#include "core/brepartition.h"
#include "obs/index_metrics.h"
#include "obs/trace.h"

namespace perfbench {

bool ReplayKnn(const brep::Index& index, std::span<const double> y, size_t k,
               std::span<const brep::Neighbor> expected, ReplaySums* sums) {
  const brep::BrePartition& bp = index.impl();
  const brep::BrePartition::ReadView view = bp.OpenReadView();
  k = std::min(k, view.num_points());
  const size_t d = y.size();

  const Clock::time_point t0 = Clock::now();
  const auto y_subs = bp.GatherQuery(y);
  const auto triples = bp.TransformQueryAll(y_subs);
  const brep::QueryBounds qb = brep::QBDetermine(view.transformed(), triples, k);
  const Clock::time_point t1 = Clock::now();

  brep::SearchStats filter_stats;
  const std::vector<uint32_t> candidates =
      view.forest().RangeCandidatesUnion(y_subs, qb.radii, &filter_stats);
  const Clock::time_point t2 = Clock::now();

  std::vector<uint32_t> ids;
  std::vector<double> rows;
  ids.reserve(candidates.size());
  rows.reserve(candidates.size() * d);
  view.forest().point_store().FetchMany(
      candidates, [&](uint32_t id, std::span<const double> x) {
        ids.push_back(id);
        rows.insert(rows.end(), x.begin(), x.end());
      });
  const Clock::time_point t3 = Clock::now();

  brep::TopK topk(k);
  const brep::BregmanDivergence& div = bp.divergence();
  for (size_t i = 0; i < ids.size(); ++i) {
    topk.Push(div.Divergence({rows.data() + i * d, d}, y), ids[i]);
  }
  const std::vector<brep::Neighbor> answer = topk.SortedResults();
  const Clock::time_point t4 = Clock::now();

  const auto ms = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  sums->queries += 1;
  sums->bound_ms += ms(t0, t1);
  sums->filter_ms += ms(t1, t2);
  sums->fetch_ms += ms(t2, t3);
  sums->refine_ms += ms(t3, t4);
  sums->points += filter_stats.points_evaluated;
  sums->candidates += candidates.size();
  sums->pages += view.forest().point_store().CountDistinctPages(candidates);
  return SameAnswer(answer, expected);
}

void AddCounts(const brep::SearchIndex::Stats& st, WorkCounts* c) {
  c->calls += st.queries;
  c->nodes += st.nodes_visited;
  c->leaves += st.leaves_visited;
  c->points += st.points_evaluated;
  c->candidates += st.candidates;
  c->io_reads += st.io_reads;
  c->pool_hits += st.pool_hits;
  c->pool_misses += st.pool_misses;
}

void IndexMeta(const brep::Index& index, const Shape& s, Outcome* out) {
  const brep::BBForest& forest = index.impl().forest();
  size_t tree_pages = 0;
  for (size_t m = 0; m < forest.num_partitions(); ++m) {
    tree_pages += forest.tree(m).LivePages().size();
  }
  const double per_tree = double(tree_pages) / double(forest.num_partitions());
  out->meta.emplace_back("partitions_M (derived)",
                         std::to_string(index.num_partitions()));
  out->meta.emplace_back(
      "pool_vs_tree",
      std::to_string(forest.pool_pages()) + " pool pages/tree vs " +
          Fmt(per_tree, 1) + " node pages/tree (" +
          (double(forest.pool_pages()) < per_tree ? "working set exceeds pool"
                                                  : "tree fits in pool") +
          ")");
  out->meta.emplace_back("page_size", std::to_string(s.page_size));
}

void KnnLayers(const ReplaySums& r, const WorkCounts& c, size_t k,
               Outcome* out, LayerValues* v) {
  const double n = double(std::max<uint64_t>(r.queries, 1));
  const double calls = double(std::max<uint64_t>(c.calls, 1));
  const double bound = r.bound_ms / n, filter = r.filter_ms / n;
  const double fetch = r.fetch_ms / n, refine = r.refine_ms / n;
  const double call_ms = bound + filter + fetch + refine;
  (*v)["core.bound_ms"] = bound;
  (*v)["core.bound_share"] = bound / call_ms;
  (*v)["bbtree.filter_ms"] = filter;
  (*v)["bbtree.filter_share"] = filter / call_ms;
  (*v)["bbtree.ns_per_point"] =
      r.points > 0 ? r.filter_ms * 1e6 / double(r.points) : 0.0;
  (*v)["bbtree.nodes_per_query"] = double(c.nodes) / calls;
  (*v)["bbtree.leaves_per_query"] = double(c.leaves) / calls;
  (*v)["bbtree.points_per_query"] = double(c.points) / calls;
  (*v)["bbtree.candidates_per_query"] = double(c.candidates) / calls;
  (*v)["bbtree.filter_precision"] =
      c.candidates > 0 ? double(k) * calls / double(c.candidates) : 0.0;
  (*v)["storage.fetch_ms"] = fetch;
  (*v)["storage.fetch_share"] = fetch / call_ms;
  (*v)["storage.io_reads_per_query"] = double(c.io_reads) / calls;
  const uint64_t pool = c.pool_hits + c.pool_misses;
  (*v)["storage.pool_hit_ratio"] =
      pool > 0 ? double(c.pool_hits) / double(pool) : 0.0;
  (*v)["storage.pool_misses_per_query"] = double(c.pool_misses) / calls;
  const double pages_per_candidate =
      r.candidates > 0 ? double(r.pages) / double(r.candidates) : 0.0;
  const double ns_per_candidate =
      r.candidates > 0 ? r.refine_ms * 1e6 / double(r.candidates) : 0.0;
  (*v)["storage.pages_per_candidate"] = pages_per_candidate;
  (*v)["divergence.refine_ms"] = refine;
  (*v)["divergence.refine_share"] = refine / call_ms;
  (*v)["divergence.refine_ns_per_candidate"] = ns_per_candidate;

  const auto per = [&](uint64_t x) { return Fmt(double(x) / calls, 1); };
  out->layers.push_back({"core", "bound: GatherQuery+TransformQueryAll+QB", bound,
                         bound / call_ms, ""});
  out->layers.push_back(
      {"bbtree", "filter: RangeCandidatesUnion", filter, filter / call_ms,
       "nodes " + per(c.nodes) + ", leaves " + per(c.leaves) + ", points " +
           per(c.points) + ", candidates " + per(c.candidates) + "/query"});
  out->layers.push_back(
      {"storage", "fetch: PointStore::FetchMany (copy out)", fetch,
       fetch / call_ms,
       "io_reads " + per(c.io_reads) + "/query, pool hits " +
           per(c.pool_hits) + " misses " + per(c.pool_misses) +
           "/query, data pages/candidate " + Fmt(pages_per_candidate, 3)});
  out->layers.push_back({"divergence", "refine: Divergence on candidates",
                         refine, refine / call_ms,
                         Fmt(ns_per_candidate, 1) + " ns/candidate"});
}

void TraceRingLayers(const std::vector<brep::obs::QueryTraceEntry>& entries,
                     char op, Outcome* out, LayerValues* v) {
  double bound = 0, filter = 0, refine = 0, total = 0;
  size_t n = 0;
  for (const auto& e : entries) {
    if (e.op != op) continue;
    bound += e.bound_ms;
    filter += e.filter_ms;
    refine += e.refine_ms;
    total += e.total_ms;
    ++n;
  }
  const double d = double(std::max<size_t>(n, 1));
  const double call_ms = total / d;
  (*v)["trace.bound_ms"] = bound / d;
  (*v)["trace.filter_ms"] = filter / d;
  (*v)["trace.refine_ms"] = refine / d;
  out->layers.push_back({"trace", "ring: bound_ms", bound / d,
                         bound / d / call_ms, std::to_string(n) + " entries"});
  out->layers.push_back(
      {"trace", "ring: filter_ms", filter / d, filter / d / call_ms, ""});
  out->layers.push_back({"trace", "ring: refine_ms (fetch + refine)",
                         refine / d, refine / d / call_ms, ""});
}

const brep::obs::QueryTraceEntry* RingEntry(
    const std::vector<brep::obs::QueryTraceEntry>& entries, uint64_t before,
    uint64_t after) {
  if (entries.empty() || after != before + 1) return nullptr;
  const uint64_t first = entries.front().seq;
  if (after < first || after - first >= entries.size()) return nullptr;
  return &entries[after - first];
}

void TailNotes(const std::vector<double>& lat, const char* what,
               Outcome* out) {
  const size_t n = lat.size();
  std::string note = std::string(what) + ": " + std::to_string(n) +
                     " samples, p50 " + Fmt(Median(lat)) + " ms";
  // The highest percentile with at least ten samples beyond it.
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (double(n) * (100.0 - p) / 100.0 >= 10.0) {
      note += ", p" + Fmt(p, 0) + " " + Fmt(Percentile(lat, p)) + " ms";
      break;
    }
  }
  out->notes.push_back(note);
}

void RunMeta(const brep::obs::MetricsSnapshot& m, const Timings& t,
             const std::string& window, Outcome* out) {
  const double backend = Gauge(m, brep::obs::kSimdKernelGauge);
  out->meta.emplace_back("simd_backend (gauge)",
                         Fmt(backend, 0) + (backend == 1 ? " (avx2)" : " (scalar)"));
  std::string runs;
  for (double x : t.setup_raw_s) {
    if (!runs.empty()) runs += ' ';
    runs += Fmt(x);
  }
  out->meta.emplace_back("setup_runs_s (raw)", runs);
  out->meta.emplace_back("window", window + " in " + Fmt(t.window_ms / 1e3) +
                                       " s");
}

}  // namespace perfbench
